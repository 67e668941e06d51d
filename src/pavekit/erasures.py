"""Erasure robustness and sign-blind recovery for finite families.

Erasing a set J of vectors leaves the family's complement of J, whose
lowest frame operator eigenvalue is the surviving lower bound.  erasure
bounds that value for every J from cheap norms of J's own vectors, and
eigen-prices, once and on the surviving family, only the J whose bounds,
widened by a rounding margin, leave them able to change the answer; so it
returns what pricing every J would.  (For a Parseval family the value
equals one minus the largest Gram eigenvalue of J's block; the tests hold
the scan to that second route.)  Sign-blind recovery (real case) holds if
and only if the complement property does (Balan, Casazza and Edidin): every
way of splitting the index set must leave a spanning side.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import (
    SUBSET_BUDGET,
    BudgetExceeded,
    ContractViolation,
    basis_cut,
    bound_first_scan,
    every_basis_clears,
    hyperplane_flats,
    index_stacks,
    numeric_rank,
    spanning,
    stack_spectra,
)
from .frames import _is_parseval

__all__ = ["erasure_robustness", "phase_retrieval_check"]


def _erasure_results(k, parseval, worst, subset, scanned, value_max):
    """The results of erasure: the worst surviving lower bound and the
    erased subset that leaves it, out of scanned k-subsets, and whether the
    input is Parseval."""
    return {"k": k, "worst_value": worst, "worst_subset": subset,
            "is_parseval": parseval, "subsets_scanned": scanned,
            "value_min": worst, "value_max": value_max, "flags": {}}


def _surviving_lower(fr, erased):
    """The lower frame bound left after erasing each row of the (B, k)
    index array erased, as erasure_robustness prices it."""
    keep = _complements(erased, fr.M)
    if not keep.shape[1]:
        return np.zeros(len(erased))
    return np.maximum(stack_spectra(fr.synthesis, keep, frame=True)[:, 0],
                      0.0)


def _complements(idx, m):
    """The complement in range(m) of each row of idx, in ascending rows."""
    out = np.ones((len(idx), m), dtype=bool)
    out[np.arange(len(idx))[:, None], idx] = False
    return np.nonzero(out)[1].reshape(len(idx), m - idx.shape[1])


def erasure_robustness(fr, k):
    """Worst surviving lower frame bound over every erasure of k vectors.

    Each erasure E is bounded, and priced only where core.bound_first_scan
    finds that its bounds leave it in play, by the lowest eigenvalue of
    the surviving family's frame operator S - T_E T_E*, S = TT*, in stacks
    of erasures.  By Weyl that value lies above lambda_min(S) minus the
    Gershgorin row sum or the Frobenius norm of |G[E, E]|, whichever is
    less, and below the least diagonal entry min_j (S_jj - sum_(i in E)
    |t_ji|^2).  Both bounds are widened by the rounding margin
    err (||T||_F^2 + tiny), err = 64 (n + M) eps and tiny the least normal
    float, which covers the rounding of every product and spectrum on
    either side, subnormal ones included.  So worst_value, its first
    subset and value_max are the full scan's, bit for bit, and
    subsets_scanned counts every erasure, C(M, k).  Where a settle of the
    scan shows the bounds ruling out little, the rest is priced unbounded.
    """
    if not (0 <= k < fr.M):
        raise ContractViolation(f"--k {k} must be in 0 <= k < M = {fr.M}")
    total = math.comb(fr.M, k)
    if total > SUBSET_BUDGET:
        raise BudgetExceeded(
            f"{total} erasures exceed the {SUBSET_BUDGET} budget")
    parseval = _is_parseval(fr)     # refuses a frame operator past budget
    t = fr.synthesis
    bottom = stack_spectra(t, np.arange(fr.M)[None], frame=True)[0, 0]
    with np.errstate(over="ignore"):    # err past the float range: inf
        sq = np.abs(t) ** 2
        diag = sq.sum(axis=1)
        err = 64 * (fr.n + fr.M) * np.finfo(float).eps * \
            (diag.sum() + np.finfo(float).tiny)

    def bounds(erased):
        ix = np.ascontiguousarray(erased.T)     # (k, B): short axes first
        te = t[:, ix]                            # (n, k, B)
        g = np.abs((te.conj()[:, :, None] * te[:, None]).sum(axis=0))
        top = g.max(axis=(0, 1), initial=0.0)   # |G[E, E]| as (k, k, B)
        frobenius = top * np.sqrt(((g / np.where(top > 0.0, top, 1.0)) ** 2)
                                  .sum(axis=(0, 1)))
        spread = np.minimum(g.sum(axis=1).max(axis=0, initial=0.0),
                            frobenius)
        least = (diag[:, None] - sq[:, ix].sum(axis=1)).min(axis=0)
        return (np.maximum(bottom - spread - err, 0.0),
                np.maximum(least + err, 0.0))

    worst, subset, vmax = bound_first_scan(
        fr.M, [k], bounds, lambda _: 4 * t.itemsize * (fr.n + k) * (k + 1),
        lambda erased: _surviving_lower(fr, erased),
        lambda _: t.itemsize * fr.n * max(fr.n, fr.M - k), top=True)
    return _erasure_results(k, parseval, worst, subset, total, vmax)


def _true_columns(rows):
    """The columns where each row of a 2-d bool array is True, as tuples."""
    cols, ends = np.nonzero(rows)[1].tolist(), np.cumsum(rows.sum(1)).tolist()
    return [tuple(cols[a:b]) for a, b in zip([0, *ends], ends)]


def _complement_witness(t):
    """{side, complement} with neither side spanning and index 0 on side,
    or None when the real n x M family t has the complement property.

    A failing bipartition can be grown until one side is a flat of rank
    n - 1, so the candidates are the flats F = {i : [S, f_i] has rank
    n - 1} of the (n - 1)-subsets S of rank n - 1: C(M, n - 1) of them,
    not 2^(M - 1).  Ranks follow numeric_rank's cutoff throughout:
    hyperplane_flats decides the rank of each S and its flat tests from one
    svd per stack of S, and hands the undecided ones to subset_ranks.  A
    side of fewer than n members cannot span.  A wider flat or rest spans
    when core.spanning's basis certificate holds: the first n members of
    the side form a basis whose computed sigma_n clears 2 (RANK_TOL
    max(n, M) (1 + err) + 2 err) ||t||_F plus the least normal float,
    err = 64 n eps, which no superset can fall below.  One svd per stack
    prices the distinct bases of a stack of S, and only the sides the
    certificate leaves undecided take a subset_ranks call.  Stacks of S,
    sized so their U's and (B, M, n) bound arrays fill a quarter of
    BLOCK_STACK_BYTES, take one call of each.
    """
    (n, m), seen = t.shape, set()
    for idx in index_stacks(itertools.combinations(range(m), n - 1),
                            lambda _: 4 * t.itemsize * n * (n + m)):
        rows = hyperplane_flats(t, idx)[1]
        pairs = [p for p in dict.fromkeys(zip(_true_columns(rows),
                                              _true_columns(~rows)))
                 if p[0] not in seen]
        seen.update(p[0] for p in pairs)
        wide = sorted(dict.fromkeys(s for p in pairs for s in p
                                    if len(s) >= n), key=len)
        low = dict(zip(wide, ~spanning(t, wide)))
        for flat, rest in pairs:
            if low.get(flat, True) and low.get(rest, True):
                side, comp = (flat, rest) if 0 in flat else (rest, flat)
                return {"side": list(side), "complement": list(comp)}
    return None


# The certificate runs where C(M, n) <= _BASES_PER_HYPERPLANE C(M, n - 1):
# one core measured 0.4-1.0 us per n-subset for it and 6-24 us per
# (n - 1)-subset for the scan, at least 9.7 times as much past 100
# subsets, so a certificate that fails at its last stack still costs less
# than the scan it precedes.
_BASES_PER_HYPERPLANE = 8


def phase_retrieval_check(fr):
    """Decide sign-blind recovery for a real family.

    Every real signal is recovered up to a global sign from the moduli of
    its analysis coefficients exactly when the family has the complement
    property: every bipartition leaves one spanning side.  So the verdict
    is that property, and the witness is None when it holds, else the
    first bipartition found with neither side spanning: the whole index
    set for a family of rank below n, otherwise a rank-(n - 1) flat and
    its complement, from the flat scan (_complement_witness).

    A family in general position with M >= 2n - 1 has the property
    (Balan, Casazza and Edidin), and core.every_basis_clears proves it
    first, where the gate above admits it: sigma_n(T_A) > c for every
    n-subset A, c = core.basis_cut(T).  That is the scan's own answer,
    under numeric_rank's cutoff throughout:
    - T has rank n, since sigma_n(T) >= sigma_n(T_A), which clears
      numeric_rank's cutoff by basis_cut's margin, as in core.spanning;
    - every (n - 1)-subset S lies in some A, so sigma_(n-1)(S) >=
      sigma_n(A) > c by interlacing and S has rank n - 1; [S, f_i] has
      rank n for i outside S, since it is some A, and rank n - 1 for i
      in S, a repeated column: so S is a flat holding only itself;
    - its rest holds M - n + 1 >= n vectors, and the first n of them are
      an A, so the rest spans, as core.spanning argues from a basis.
    So every flat has fewer than n members and its rest spans: the scan
    finds no witness.  A stack that does not factor proves nothing, and
    the scan decides.
    """
    if np.iscomplexobj(fr.synthesis) and np.abs(fr.synthesis.imag).max() > 0.0:
        raise ContractViolation("sign-blind recovery check is real-case only")
    m, n = fr.M, fr.n
    if (total := math.comb(m, n - 1)) > SUBSET_BUDGET:
        raise BudgetExceeded(
            f"{total} candidate hyperplanes exceed the {SUBSET_BUDGET} "
            "subset budget")
    t = np.real(fr.synthesis)
    if m >= 2 * n - 1 and \
            math.comb(m, n) <= _BASES_PER_HYPERPLANE * total and \
            every_basis_clears(t, basis_cut(t)):
        return {"verdict": True, "witness": None}
    witness = {"side": list(range(m)), "complement": []} \
        if numeric_rank(t) < n else _complement_witness(t)
    return {"verdict": witness is None, "witness": witness}
