"""Frame-theoretic operations on finite vector families.

For a family F = {f_i} with synthesis matrix T (columns f_i), the frame
operator is S = T T* and the Gram matrix is G = T* T, so G[i, j] = <f_j, f_i>.
The family is a frame for the whole space iff S is invertible; its optimal
frame bounds are the extreme eigenvalues of S.  Riesz-sequence bounds, when
the columns are linearly independent, are the extreme eigenvalues of G.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .core import (
    CHECK_TOL,
    EIG_TOL,
    RANK_TOL,
    ContractViolation,
    Frame,
    ensure_projection,
    numeric_rank,
    sym_eig,
)

__all__ = [
    "frame_operator", "gram_matrix", "analysis_matrix", "SpectralSummary",
    "spectral_summary", "frame_bounds", "is_frame_sequence", "canonical_dual",
    "parseval_normalize", "subframe", "project_frame", "frames_equivalent",
]


def frame_operator(fr):
    """S = T T*, an n x n positive semidefinite matrix."""
    t = fr.synthesis
    return t @ t.conj().T


def gram_matrix(fr):
    """G = T* T, an M x M positive semidefinite matrix."""
    t = fr.synthesis
    return t.conj().T @ t


def analysis_matrix(fr):
    """The M x n matrix of the analysis map f -> (<f, f_i>)_i."""
    return fr.synthesis.conj().T


@dataclass
class SpectralSummary:
    """Everything the optimal bounds of a family determine.

    lower is the optimal lower frame bound (0 when the family does not span),
    upper = bessel is the optimal upper bound, and the Riesz bounds are
    reported only when the columns are linearly independent (they are then
    the extreme eigenvalues of the Gram matrix; square roots of the frame
    bounds in the basis case).
    """

    n: int
    M: int
    lower: float
    upper: float
    bessel: float
    trace_S: float
    rank: int
    spans: bool
    riesz_lower: float | None
    riesz_upper: float | None
    is_parseval: bool
    is_tight: bool
    is_equal_norm: bool
    degenerate: bool
    check_tol: float

    def to_json(self):
        return asdict(self)


def spectral_summary(fr):
    s = frame_operator(fr)
    w, _ = sym_eig(s)
    upper = float(max(w[-1], 0.0))
    rank = numeric_rank(fr.synthesis)
    spans = rank == fr.n
    lower = float(max(w[0], 0.0)) if spans else 0.0
    norms = np.linalg.norm(fr.synthesis, axis=0)
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
    return SpectralSummary(
        n=fr.n, M=fr.M, lower=lower, upper=upper, bessel=upper,
        trace_S=float(np.real(np.trace(s))), rank=rank, spans=spans,
        riesz_lower=riesz_lower, riesz_upper=riesz_upper,
        is_parseval=is_parseval, is_tight=is_tight,
        is_equal_norm=is_equal_norm, degenerate=degenerate,
        check_tol=CHECK_TOL)


def frame_bounds(fr):
    """(lower, upper) optimal frame bounds; lower is 0 for non-spanning."""
    summ = spectral_summary(fr)
    return summ.lower, summ.upper


def is_frame_sequence(fr):
    """(ok, A') where A' is the optimal lower bound on the span.

    Every nonzero finite family is a frame for its span; A' is the smallest
    nonzero eigenvalue of the frame operator, with "nonzero" decided by the
    numeric-rank cutoff.  The zero family is flagged degenerate: (False, None).
    """
    s = frame_operator(fr)
    w, _ = sym_eig(s)
    if w[-1] <= 0.0:
        return False, None
    cutoff = (RANK_TOL * max(fr.n, fr.M)) ** 2 * w[-1]
    nonzero = w[w > cutoff]
    if nonzero.size == 0:
        return False, None
    return True, float(nonzero[0])


def _inv_sqrt_and_inv(fr):
    """Eigendata of S with a spanning check shared by dual and normalize."""
    s = frame_operator(fr)
    w, v = sym_eig(s)
    floor = EIG_TOL * max(w[-1], 0.0)
    if w[-1] <= 0.0 or w[0] <= floor:
        raise ContractViolation("family is not a frame for the space")
    return w, v


def canonical_dual(fr):
    """The dual family {S^-1 f_i}; reconstruction holds against the input."""
    w, v = _inv_sqrt_and_inv(fr)
    s_inv = (v / w) @ v.conj().T
    return Frame(s_inv @ fr.synthesis, label=fr.label + "-dual",
                 meta=dict(fr.meta, derived="canonical-dual"))


def parseval_normalize(fr):
    """The family {S^-1/2 f_i}, a Parseval frame with the same span behavior."""
    w, v = _inv_sqrt_and_inv(fr)
    s_inv_half = (v / np.sqrt(w)) @ v.conj().T
    return Frame(s_inv_half @ fr.synthesis, label=fr.label + "-parseval",
                 meta=dict(fr.meta, derived="parseval-normalize"))


def subframe(fr, indices):
    """Column selection in the given order; indices must be in range."""
    idx = list(indices)
    if len(idx) == 0:
        raise ContractViolation("subframe needs at least one index")
    if any((not isinstance(i, (int, np.integer))) or i < 0 or i >= fr.M
           for i in idx):
        raise ContractViolation("subframe index out of range")
    return Frame(fr.synthesis[:, idx], label=fr.label + "-sub",
                 meta=dict(fr.meta, subframe_indices=[int(i) for i in idx]))


def project_frame(fr, p):
    """Apply an orthogonal projection to every vector.

    A Parseval frame stays Parseval on the range of the projection; callers
    verify that by restricting to an orthonormal basis of range(p).
    """
    p = ensure_projection(p)
    if p.shape != (fr.n, fr.n):
        raise ContractViolation("projection shape must match the frame space")
    return Frame(p @ fr.synthesis, label=fr.label + "-projected",
                 meta=dict(fr.meta, derived="projected"))


def frames_equivalent(fr1, fr2):
    """True iff the two synthesis maps kill the same coefficient vectors.

    Same index count required; the null spaces coincide exactly when the row
    spaces of the two synthesis matrices agree, tested by three ranks.
    """
    if fr1.M != fr2.M:
        raise ContractViolation("frames_equivalent needs equal index counts")
    r1 = numeric_rank(fr1.synthesis)
    r2 = numeric_rank(fr2.synthesis)
    if r1 != r2:
        return False
    stacked = np.vstack([
        fr1.synthesis.astype(np.complex128),
        fr2.synthesis.astype(np.complex128),
    ])
    return numeric_rank(stacked) == r1
