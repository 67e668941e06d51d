"""Erasure robustness and sign-blind recovery for finite families.

Erasing a set J of vectors leaves the family's complement of J, whose
lowest frame operator eigenvalue is the surviving lower bound; erasure
prices each J once, on that surviving family.  (For a Parseval family it
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
    hyperplane_flats,
    numeric_rank,
    stack_spectra,
    stacks,
    subset_ranks,
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

    Each erasure is priced once, by the lowest eigenvalue of the surviving
    family's frame operator, in stacks of erasures.
    """
    if not (0 <= k < fr.M):
        raise ContractViolation(f"--k {k} must be in 0 <= k < M = {fr.M}")
    total = math.comb(fr.M, k)
    if total > SUBSET_BUDGET:
        raise BudgetExceeded(f"{total} erasure patterns exceed the budget")
    parseval = _is_parseval(fr)     # refuses a frame operator past budget
    vmin, vmax, worst_subset, scanned = math.inf, -math.inf, [], 0
    for chunk in stacks(itertools.combinations(range(fr.M), k),
                        fr.synthesis.itemsize * fr.n * max(fr.n, fr.M - k)):
        erased = np.array(chunk, dtype=np.intp).reshape(len(chunk), k)
        val = _surviving_lower(fr, erased)
        scanned += len(val)
        lo, hi = int(np.argmin(val)), int(np.argmax(val))  # first occurrences
        if val[lo] < vmin:
            vmin, worst_subset = float(val[lo]), erased[lo].tolist()
        vmax = max(vmax, float(val[hi]))
    return _erasure_results(k, parseval, vmin, worst_subset, scanned, vmax)


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
    side of fewer than n members cannot span; the wider flats and rests of
    a stack take one subset_ranks call.  Stacks of S, sized so their U's
    and (B, M, n) bound arrays fill a quarter of BLOCK_STACK_BYTES, take
    one call of each.
    """
    (n, m), seen = t.shape, set()
    for chunk in stacks(itertools.combinations(range(m), n - 1),
                        4 * t.itemsize * n * (n + m)):
        rows = hyperplane_flats(t, chunk)[1]
        pairs = [p for p in dict.fromkeys(zip(_true_columns(rows),
                                              _true_columns(~rows)))
                 if p[0] not in seen]
        seen.update(p[0] for p in pairs)
        wide = sorted({s for p in pairs for s in p if len(s) >= n},
                      key=lambda s: (len(s), s))
        low = dict(zip(wide, subset_ranks(t, wide) < n))
        for flat, rest in pairs:
            if low.get(flat, True) and low.get(rest, True):
                side, comp = (flat, rest) if 0 in flat else (rest, flat)
                return {"side": list(side), "complement": list(comp)}
    return None


def phase_retrieval_check(fr):
    """Decide sign-blind recovery for a real family.

    Every real signal is recovered up to a global sign from the moduli of
    its analysis coefficients exactly when the family has the complement
    property: every bipartition leaves one spanning side.  So the verdict
    is that property, and the witness is None when it holds, else the
    first bipartition found with neither side spanning: the whole index
    set for a family of rank below n, otherwise a rank-(n - 1) flat and
    its complement.
    """
    if np.iscomplexobj(fr.synthesis) and np.abs(fr.synthesis.imag).max() > 0.0:
        raise ContractViolation("sign-blind recovery check is real-case only")
    m, n = fr.M, fr.n
    if (total := math.comb(m, n - 1)) > SUBSET_BUDGET:
        raise BudgetExceeded(
            f"{total} candidate hyperplanes exceed the {SUBSET_BUDGET} "
            "subset budget")
    t = np.real(fr.synthesis)
    witness = {"side": list(range(m)), "complement": []} \
        if numeric_rank(t) < n else _complement_witness(t)
    return {"verdict": witness is None, "witness": witness}
