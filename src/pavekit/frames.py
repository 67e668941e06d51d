"""Frame-theoretic operations on finite vector families.

For a family F = {f_i} with synthesis matrix T (columns f_i), the frame
operator is S = T T* and the Gram matrix is G = T* T, so G[i, j] = <f_j, f_i>.
The family is a frame for the whole space iff S is invertible; its optimal
frame bounds are the extreme eigenvalues of S.  Riesz-sequence bounds, when
the columns are linearly independent, are the extreme eigenvalues of G.
"""

from __future__ import annotations

import numpy as np

from .core import (
    CHECK_TOL,
    EIG_TOL,
    ContractViolation,
    Frame,
    check_entries,
    numeric_rank,
    spanning,
    sym_eig,
)

__all__ = [
    "frame_operator", "gram_matrix", "spectral_summary", "parseval_normalize",
]


def _product(a, b, what):
    """a @ b within ENTRY_BUDGET.  Finite factors whose product overflows
    float64 are refused as such, not blamed on their entries."""
    check_entries(a.shape[0] * b.shape[1], what)
    with np.errstate(over="ignore", invalid="ignore"):
        p = a @ b
    if not np.isfinite(p).all():
        raise ContractViolation(f"{what} overflows float64")
    return p


def frame_operator(fr):
    """S = T T*, an n x n positive semidefinite matrix (_product)."""
    t = fr.synthesis
    return _product(t, t.conj().T, f"the {fr.n}x{fr.n} frame operator")


def _is_parseval(fr):
    """Whether the frame operator is the identity to CHECK_TOL."""
    return bool(np.abs(frame_operator(fr) - np.eye(fr.n)).max() <= CHECK_TOL)


def gram_matrix(fr):
    """G = T* T, an M x M positive semidefinite matrix (_product)."""
    t = fr.synthesis
    return _product(t.conj().T, t, f"the {fr.M}x{fr.M} Gram matrix")


def spectral_summary(fr):
    """Everything the optimal bounds of a family determine, as the dict
    analyze stores: n, M, lower, upper, bessel, trace_S, rank, spans,
    riesz_lower, riesz_upper, is_parseval, is_tight, is_equal_norm,
    degenerate and check_tol.

    lower is the optimal lower frame bound (0 when the family does not span),
    upper = bessel is the optimal upper bound, and the Riesz bounds are
    reported only when the columns are linearly independent (they are then
    the extreme eigenvalues of the Gram matrix; square roots of the frame
    bounds in the basis case), else None.  is_parseval reads the extreme
    eigenvalues of S, not its entries.  rank is numeric_rank's; where
    core.spanning certifies the whole family from one n x n svd, it is n
    without the n x M svd.
    """
    s = frame_operator(fr)
    w, _ = sym_eig(s)
    upper = float(max(w[-1], 0.0))
    t = fr.synthesis
    rank = fr.n if spanning(t, [range(fr.M)])[0] else numeric_rank(t)
    spans = rank == fr.n
    lower = float(max(w[0], 0.0)) if spans else 0.0
    norms = np.linalg.norm(t, axis=0)
    degenerate = upper <= 0.0
    scale = max(1.0, upper)
    riesz_lower = riesz_upper = None
    if rank == fr.M:  # independent columns: Gram is nonsingular
        g = gram_matrix(fr)
        gw, _ = sym_eig(g)
        riesz_lower = float(max(gw[0], 0.0))
        riesz_upper = float(max(gw[-1], 0.0))
    is_tight = spans and abs(upper - lower) <= CHECK_TOL * scale
    is_parseval = is_tight and abs(upper - 1.0) <= CHECK_TOL and \
        abs(lower - 1.0) <= CHECK_TOL
    is_equal_norm = bool(np.ptp(norms) <= CHECK_TOL * max(1.0, norms.max()))
    return {"n": fr.n, "M": fr.M, "lower": lower, "upper": upper,
            "bessel": upper, "trace_S": float(np.real(np.trace(s))),
            "rank": rank, "spans": spans, "riesz_lower": riesz_lower,
            "riesz_upper": riesz_upper, "is_parseval": is_parseval,
            "is_tight": is_tight, "is_equal_norm": is_equal_norm,
            "degenerate": degenerate, "check_tol": CHECK_TOL}


def parseval_normalize(fr):
    """The family {S^-1/2 f_i}, a Parseval frame with the same span behavior."""
    w, v = sym_eig(frame_operator(fr))
    if w[-1] <= 0.0 or w[0] <= EIG_TOL * max(w[-1], 0.0):
        raise ContractViolation("family is not a frame for the space")
    s_inv_half = (v / np.sqrt(w)) @ v.conj().T
    return Frame(s_inv_half @ fr.synthesis)
