"""Dilations: Parseval frames as compressions of basis projections.

A Parseval family {f_i} in an n-space is exactly the image of the standard
basis of an M-space under the orthogonal projection onto an embedded copy of
the n-space.  The projection is the Gram matrix of the family and the
embedding is the analysis map, which is an isometry precisely in the
Parseval case.  A norm-one operator dilates the same way after completing
its columns to a Parseval family with at most n - 1 extra vectors, giving
ambient dimension 2n - 1; a strict contraction needs n extra vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    CHECK_TOL,
    ContractViolation,
    Frame,
    ensure_matrix,
    matrix_to_json,
    numeric_rank,
    operator_norm,
    sym_eig,
)
from .frames import analysis_matrix, frame_operator, gram_matrix

__all__ = ["DilationResult", "naimark_dilate", "dilate_operator"]


@dataclass
class DilationResult:
    """Projection + embedding certificate for one dilation.

    projection is the ambient_dim x ambient_dim orthogonal projection,
    embedding the ambient_dim x n isometry identifying the small space with
    its embedded copy, frame the Parseval family that was dilated (for
    operator dilation: original columns first, completion vectors after),
    and added_vectors the completion columns (empty for a plain frame).
    The projection's rank is the dimension n of the frame's vectors.
    """

    ambient_dim: int
    projection: np.ndarray
    embedding: np.ndarray
    frame: Frame
    added_vectors: np.ndarray
    meta: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "ambient_dim": self.ambient_dim,
            "projection": matrix_to_json(self.projection),
            "embedding": matrix_to_json(self.embedding),
            "frame": matrix_to_json(self.frame.synthesis),
            "added_vectors": matrix_to_json(self.added_vectors)
            if self.added_vectors.size else None,
            "meta": dict(self.meta), "rank": self.frame.n,
        }


def naimark_dilate(fr, _slack=1.0):
    """Dilate a Parseval family: projection = Gram, embedding = analysis map.

    P e_i lands on the embedded copy of f_i, so inner products among the
    projected basis vectors reproduce those of the family exactly.
    """
    s = frame_operator(fr)
    eye = np.eye(fr.n)
    if np.abs(s - eye).max() > _slack * CHECK_TOL:
        raise ContractViolation("naimark_dilate needs a Parseval family")
    p = gram_matrix(fr)
    emb = analysis_matrix(fr)
    lim = max(_slack, 2.0) * max(1.0, fr.M) * CHECK_TOL * (1.0 + np.abs(p).max())
    if np.abs(p - p.conj().T).max() > lim:
        raise ContractViolation("dilation projection is not Hermitian")
    if np.abs(p @ p - p).max() > lim:
        raise ContractViolation("dilation projection is not idempotent")
    if numeric_rank(p) != fr.n:
        raise ContractViolation("dilation projection has wrong rank")
    # embedded vectors: P e_i == emb @ f_i by construction, asserted anyway
    resid = np.abs(p - emb @ fr.synthesis).max()
    if resid > CHECK_TOL * max(1.0, fr.M):
        raise ContractViolation(f"embedding residual {resid:.3e}")
    tr = float(np.real(np.trace(p)))
    if abs(tr - fr.n) > max(_slack, 2.0) * CHECK_TOL * fr.M:
        raise ContractViolation("projection trace does not match the rank")
    return DilationResult(
        ambient_dim=fr.M, projection=p, embedding=emb, frame=fr,
        added_vectors=np.zeros((fr.n, 0), dtype=fr.synthesis.dtype),
        meta={"mode": "naimark", "n": fr.n, "M": fr.M})


def dilate_operator(t):
    """Dilate a norm-at-most-one operator into a basis-projection compression.

    Columns f_i = T g_i are completed to a Parseval family by appending
    sqrt(1 - lambda) times the unit eigenvectors of T T* for every eigenvalue
    below one.  A norm-one operator keeps its top eigenvector out of the
    completion (lambda_1 = 1), giving 2n - 1 ambient dimensions; an operator
    with norm strictly below one needs all n completion vectors and lands in
    ambient dimension 2n.
    """
    t = ensure_matrix(t, "operator")
    n = t.shape[0]
    if t.shape[0] != t.shape[1]:
        raise ContractViolation("dilate_operator needs a square matrix")
    nrm = operator_norm(t)
    if nrm > 1.0 + CHECK_TOL:
        raise ContractViolation(f"operator norm {nrm:.6f} exceeds one")
    s = t @ t.conj().T
    w, v = sym_eig(s)               # ascending
    lam = w[::-1]                   # descending
    vecs = v[:, ::-1]
    norm_one = lam[0] >= 1.0 - CHECK_TOL
    start = 1 if norm_one else 0    # skip the top eigenvector at norm one
    gaps = np.sqrt(np.clip(1.0 - lam[start:], 0.0, None))
    added = vecs[:, start:] * gaps
    combined = np.concatenate([t, added], axis=1)
    fr = Frame(combined, label="operator-dilation",
               meta={"mode": "operator", "norm_one": bool(norm_one)})
    res = naimark_dilate(fr, _slack=4.0)
    res.added_vectors = added
    res.meta.update({"mode": "operator", "norm_one": bool(norm_one),
                     "operator_norm": nrm, "n": n})
    expected = 2 * n - 1 if norm_one else 2 * n
    if res.ambient_dim != expected:
        raise ContractViolation("unexpected ambient dimension")
    return res
