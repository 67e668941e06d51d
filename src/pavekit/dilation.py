"""Dilations: Parseval frames as compressions of basis projections.

A Parseval family F = [f_1 ... f_M] in an n-space (F F* = I) is exactly the
image of the standard basis of an M-space under the orthogonal projection
P = F* F onto an embedded copy of the n-space: the embedding is the analysis
map F*, an isometry precisely because F F* = I, and P e_i = F* f_i.  So F
alone certifies its dilation, and a dilation stores only the columns that
complete its input to F.  A norm-one operator dilates the same way after
completing its columns to a Parseval family with at most n - 1 extra
vectors, giving ambient dimension 2n - 1; a strict contraction needs n
extra vectors.
"""

from __future__ import annotations

import numpy as np

from .core import (
    CHECK_TOL,
    ContractViolation,
    Frame,
    ensure_matrix,
    matrix_to_json,
    operator_norm,
    sym_eig,
)
from .frames import _is_parseval

__all__ = ["naimark_dilate", "dilate_operator"]


# The one check every dilation is held to, by the producers and by verify
# alike.  Each entry of E = F F* - I is at most CHECK_TOL, so ||E||_2 <=
# n CHECK_TOL, below 1 since the frame operator's entry budget keeps n <=
# 2048.  P = F* F shares its nonzero eigenvalues with F F* = I + E: n of
# them, each within n CHECK_TOL of 1, and the rest are 0, so P is Hermitian
# of rank n.  P^2 - P = F* E F has norm at most ||E|| ||F||^2 <= n CHECK_TOL
# (1 + n CHECK_TOL), and P e_i = F* f_i is the embedded f_i.  In operator
# mode, n - 1 added columns A make A A* singular, so T T* = I + E - A A*
# has an eigenvalue within n CHECK_TOL of 1: they prove the norm one that
# meta records.
def _certificate(mode, original, added):
    """The meta of the dilation of the input `original` in `mode` whose
    completion columns are `added` (None for none); raises unless their
    count is the mode's and F = [original | added] is Parseval."""
    (n, k), j = original.shape, 0 if added is None else added.shape[1]
    counts = (0,) if mode == "naimark" else (n - 1, n) if k == n else ()
    if added is not None and added.shape[0] != n or j not in counts:
        raise ContractViolation("dilation shapes do not match the input")
    family = original if added is None else \
        np.concatenate([original, added], axis=1)
    if not _is_parseval(Frame(family)):
        raise ContractViolation("dilated family is not Parseval")
    meta = {"mode": mode, "n": n, "M": k + j}
    if mode == "operator":
        meta.update(norm_one=j == n - 1,
                    operator_norm=operator_norm(original))
    return meta


def _dilation_results(mode, original, added):
    """The results of the dilation of `original` in `mode` completed by the
    columns `added` (None when it needs none), held to _certificate:
    ambient_dim is the size of the Parseval family F = [original | added],
    added_vectors the completion columns, meta what the certificate builds
    and rank the input's dimension n, the rank of the projection F* F.  A
    caller that wants the projection or the embedding F* rebuilds it from
    F."""
    meta = _certificate(mode, original, added)
    return {"ambient_dim": meta["M"],
            "added_vectors": None if added is None else matrix_to_json(added),
            "meta": meta, "rank": original.shape[0]}


def naimark_dilate(fr):
    """Dilate a Parseval family, which needs no completion: the projection
    is its Gram matrix and the embedding its analysis map.

    P e_i lands on the embedded copy of f_i, so inner products among the
    projected basis vectors reproduce those of the family exactly.
    """
    if not _is_parseval(fr):
        raise ContractViolation("naimark_dilate needs a Parseval family")
    return _dilation_results("naimark", fr.synthesis, None)


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
    return _dilation_results("operator", t, added if added.size else None)
