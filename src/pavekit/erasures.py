"""Erasure robustness and sign-blind recovery for finite families.

Erasing a set J of vectors leaves the family's complement of J, whose
lowest frame operator eigenvalue is the surviving lower bound.  erasure
eigen-prices, once and on the surviving family, only the J that a cheap
bound or core.stack_clears' certificate leaves able to change the answer;
so it returns what pricing every J would.  (For a Parseval family the value
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
    FEW_PRICED,
    SUBSET_BUDGET,
    BudgetExceeded,
    ContractViolation,
    basis_cut,
    combination_table,
    every_basis_clears,
    hyperplane_flats,
    index_stacks,
    numeric_rank,
    spanning,
    stack_clears,
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
    index array erased, as erasure_robustness prices it, in index_stacks
    stacks."""
    t, n, keep = fr.synthesis, fr.n, fr.M - erased.shape[1]
    if not keep:
        return np.zeros(len(erased))
    return np.concatenate([np.zeros(0)] + [
        np.maximum(stack_spectra(t, _complements(idx, fr.M), frame=True)
                   [:, 0], 0.0)
        for idx in index_stacks(erased,
                                lambda _: t.itemsize * n * max(n, keep))])


def _complements(idx, m):
    """The complement in range(m) of each row of idx, in ascending rows."""
    out = np.ones((len(idx), m), dtype=bool)
    out[np.arange(len(idx))[:, None], idx] = False
    return np.nonzero(out)[1].reshape(len(idx), m - idx.shape[1])


def erasure_robustness(fr, k):
    """Worst surviving lower frame bound over every erasure of k vectors.

    An erasure E is priced by lambda_min(S - T_E T_E*), S = TT*, clipped
    at 0, only where it may change the answer.  Its least diagonal entry,
    plus err = 64 (n + M) eps (||T||_F^2 + tiny), tiny the least normal
    float, bounds that price from above: err covers the rounding of every
    product and spectrum on either side.  The few erasures of least and
    greatest bound are priced first, then, for value_max, every other one
    whose bound tops the greatest price.  The rest are priced only where
    core.stack_clears does not prove lambda_min(S - T_E T_E*) above the
    least price plus err, a threshold descent.  So the results are the
    full scan's, bit for bit; subsets_scanned counts C(M, k).
    """
    if not (0 <= k < fr.M):
        raise ContractViolation(f"--k {k} must be in 0 <= k < M = {fr.M}")
    total = math.comb(fr.M, k)
    if total > SUBSET_BUDGET:
        raise BudgetExceeded(
            f"{total} erasures exceed the {SUBSET_BUDGET} budget")
    parseval = _is_parseval(fr)     # refuses a frame operator past budget
    t, n = fr.synthesis, fr.n
    erased = combination_table(fr.M, k)

    def row_bytes(_):       # an n x n block per row, as stack_clears takes
        return t.itemsize * n * n

    with np.errstate(over="ignore", invalid="ignore"):  # inf past the range
        sq = np.abs(t) ** 2
        err = 64 * (n + fr.M) * np.finfo(float).eps * \
            (sq.sum() + np.finfo(float).tiny)
        top = np.concatenate([np.zeros(0)] + [
            _erased_sums(sq, sq.sum(axis=1), idx).min(axis=0)
            for idx in index_stacks(erased, row_bytes)]) + err
    top[np.isnan(top)] = np.inf
    ends = np.argsort(top, kind="stable")
    priced, value = np.zeros(total, dtype=bool), np.full(total, np.nan)
    priced[ends[:FEW_PRICED]] = priced[ends[-FEW_PRICED:]] = True
    value[priced] = _surviving_lower(fr, erased[priced])
    wanted = ~priced & (top > np.nanmax(value))     # may raise value_max
    outer = (t[:, None, :] * t.conj()[None, :, :]).reshape(n * n, -1)
    least = float(np.nanmin(value)) + err
    for pos in index_stacks(np.flatnonzero(~priced & ~wanted)[:, None],
                            row_bytes):
        kept = _erased_sums(outer, outer.sum(axis=1), erased[pos[:, 0]])
        wanted[pos[:, 0]] = ~stack_clears(kept.reshape(n, n, -1), least)
    value[wanted] = _surviving_lower(fr, erased[wanted])
    first = int(np.nanargmin(value))
    return _erasure_results(k, parseval, float(value[first]),
                            erased[first].tolist(), total,
                            float(np.nanmax(value)))


def _erased_sums(a, whole, erased):
    """whole[:, None] less the sum of a's columns in each row of the (B, k)
    index array erased, as a (len(whole), B) array: a's row sums left
    after each erasure."""
    out = np.repeat(whole[:, None], len(erased), axis=1)
    for col in erased.T:
        out -= a[:, col]
    return out


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
    n-subset A, c = core.basis_cut(T), by one core.stack_clears call per
    stack of Gram blocks.  That is the scan's own answer, under
    numeric_rank's cutoff throughout:
    - T has rank n, since sigma_n(T) >= sigma_n(T_A), which clears
      numeric_rank's cutoff by basis_cut's margin, as in core.spanning;
    - every (n - 1)-subset S lies in some A, so sigma_(n-1)(S) >=
      sigma_n(A) > c by interlacing and S has rank n - 1; [S, f_i] has
      rank n for i outside S, since it is some A, and rank n - 1 for i
      in S, a repeated column: so S is a flat holding only itself;
    - its rest holds M - n + 1 >= n vectors, and the first n of them are
      an A, so the rest spans, as core.spanning argues from a basis.
    So every flat has fewer than n members and its rest spans: the scan
    finds no witness.  A block that does not clear proves nothing, and
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
