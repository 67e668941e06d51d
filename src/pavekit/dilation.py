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

import numpy as np

from .core import (
    CHECK_TOL,
    ContractViolation,
    Frame,
    check_entries,
    ensure_matrix,
    matrix_to_json,
    operator_norm,
    sym_eig,
)
from .frames import _is_parseval, analysis_matrix, gram_matrix

__all__ = ["naimark_dilate", "dilate_operator"]


# The bounds every dilation report is held to, by the producers and by
# verify alike.  They pin the rank without an SVD: with M <= 2048, as the
# entry budget of the M x M projection allows, the Hermitian (1e-9) and
# idempotence (1e-8) bounds put every eigenvalue of (P + P*)/2 within 3e-5
# of 0 or 1, so the trace is within 0.07 of the count near 1, and the trace
# bound (1e-6 relative) makes that count n.
def _certificate(mode, original, p, emb, family):
    """The meta of a dilation of the input `original` in `mode`, where
    `family` is the dilated family, p the projection and emb the embedding;
    raises unless p is an orthogonal projection of trace n equal to
    emb @ family and the family starts with the input's columns."""
    check_entries(p.size, "a dilation projection")
    (n, k), m = original.shape, family.shape[1]
    if p.shape != (m, m) or emb.shape != (m, n) or family.shape[0] != n or \
            m < k:
        raise ContractViolation("dilation shapes do not match the input")
    if np.abs(p - p.conj().T).max() > 1e-9:
        raise ContractViolation("dilation projection is not Hermitian")
    if np.abs(p @ p - p).max() > 1e-8:
        raise ContractViolation("dilation projection is not idempotent")
    if np.abs(p - emb @ family).max() > 1e-8:
        raise ContractViolation("projection is not embedding @ family")
    if np.abs(family[:, :k] - original).max() > 1e-12:
        raise ContractViolation(
            "dilated family does not extend the input columns")
    tr = float(np.real(np.trace(p)))
    if abs(tr - n) > 1e-6 * max(1.0, abs(tr), n):
        raise ContractViolation("projection trace does not match the rank")
    meta = {"mode": mode, "n": n, "M": m}
    if mode == "operator":      # norm one leaves the top eigenvector out
        meta.update(norm_one=m - k == n - 1,
                    operator_norm=operator_norm(original))
    return meta


def _dilation_results(mode, original, p, emb, family):
    """The results of a dilation of `original` in `mode` whose projection p,
    embedding emb and dilated family hold to _certificate: the projection is
    the ambient_dim x ambient_dim orthogonal projection, the embedding the
    ambient_dim x n isometry onto the embedded copy of the small space, the
    frame the Parseval family that was dilated (the input's columns first)
    and added_vectors its completion columns (None for a plain frame).  The
    projection's rank is n."""
    meta = _certificate(mode, original, p, emb, family)
    added = family[:, original.shape[1]:]
    return {"ambient_dim": p.shape[0], "projection": matrix_to_json(p),
            "embedding": matrix_to_json(emb), "frame": matrix_to_json(family),
            "added_vectors": matrix_to_json(added) if added.size else None,
            "meta": meta, "rank": original.shape[0]}


def naimark_dilate(fr):
    """Dilate a Parseval family: projection = Gram, embedding = analysis map.

    P e_i lands on the embedded copy of f_i, so inner products among the
    projected basis vectors reproduce those of the family exactly.
    """
    if not _is_parseval(fr):
        raise ContractViolation("naimark_dilate needs a Parseval family")
    return _dilation_results("naimark", fr.synthesis, gram_matrix(fr),
                             analysis_matrix(fr), fr.synthesis)


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
    if t.shape[0] != t.shape[1]:
        raise ContractViolation("dilate_operator needs a square matrix")
    nrm = operator_norm(t)
    if nrm > 1.0 + CHECK_TOL:
        raise ContractViolation(f"operator norm {nrm:.6f} exceeds one")
    w, v = sym_eig(t @ t.conj().T)  # ascending
    lam = w[::-1]                   # descending
    start = 1 if lam[0] >= 1.0 - CHECK_TOL else 0   # skip the top at norm one
    vecs = v[:, ::-1][:, start:]
    added = vecs * np.sqrt(np.clip(1.0 - lam[start:], 0.0, None))
    fr = Frame(np.concatenate([t, added], axis=1))
    return _dilation_results("operator", t, gram_matrix(fr),
                             analysis_matrix(fr), fr.synthesis)
