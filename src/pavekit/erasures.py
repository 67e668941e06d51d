"""Erasure robustness and sign-blind recovery for finite families.

Deleting a set J of vectors from a Parseval family leaves a family whose
frame operator is I minus the partial sum over J, so the surviving lower
bound is one minus the largest eigenvalue of the erased block; that
complementarity is asserted on every subset the scans visit, never silently
assumed.  Sign-blind recovery (real case) is decided by the complement
property: every way of splitting the index set must leave a spanning side.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import (
    SUBSET_BUDGET,
    TRIAL_BUDGET,
    BudgetExceeded,
    ContractViolation,
    hyperplane_flats,
    numeric_rank,
    stack_spectra,
    stacks,
    subset_ranks,
)
from .frames import _is_parseval, gram_matrix

__all__ = ["erasure_robustness", "phase_retrieval_check"]


def _erasure_results(k, parseval, worst, subset, scanned, value_max):
    """The results of erasure: the worst surviving lower bound and the
    erased subset that leaves it, out of scanned k-subsets, and whether the
    complementarity identity was checked: on Parseval input, for k > 0."""
    return {"k": k, "worst_value": worst, "worst_subset": subset,
            "is_parseval": parseval, "identity_checked": parseval and k > 0,
            "subsets_scanned": scanned, "value_min": worst,
            "value_max": value_max, "flags": {}}


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

    For Parseval inputs the complementary route 1 - lambda_max(gram block)
    is computed alongside the direct eigensolve and the two are required to
    agree to 1e-9; the report records that the check ran.
    """
    if not (0 <= k < fr.M):
        raise ContractViolation(f"--k {k} must be in 0 <= k < M = {fr.M}")
    total = math.comb(fr.M, k)
    if total > SUBSET_BUDGET:
        raise BudgetExceeded(f"{total} erasure patterns exceed the budget")
    parseval = _is_parseval(fr)
    g = gram_matrix(fr) if parseval else None
    vmin, vmax, worst_subset, scanned = math.inf, -math.inf, [], 0
    for chunk in stacks(itertools.combinations(range(fr.M), k),
                        fr.synthesis.itemsize * fr.n * max(fr.n, fr.M - k)):
        erased = np.array(chunk, dtype=np.intp).reshape(len(chunk), k)
        val = _surviving_lower(fr, erased)
        if parseval and k > 0:
            via_complement = 1.0 - stack_spectra(g, erased)[:, -1]
            bad = np.flatnonzero(np.abs(via_complement - val) > 1e-9)
            if bad.size:
                i = bad[0]
                raise ContractViolation(
                    f"complementarity identity violated at "
                    f"{tuple(erased[i].tolist())}: {val[i]} vs "
                    f"{via_complement[i]}")
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


def phase_retrieval_check(fr, trials=10**4, seed=0):
    """Decide sign-blind recovery for a real family, then stress-test it.

    Complement property: every bipartition must leave one spanning side.
    The first rank-(n - 1) flat whose complement does not span is returned
    as the witness.  When the property holds, randomized cross-validation
    solves for vectors matching the absolute analysis coefficients of
    random inputs under random sign patterns (the two uniform patterns are
    always included so at least two solvable instances exist) and every
    solvable instance must recover the input up to a global sign.  A stack
    of trials, sized so its eight (trials, M) arrays fill a quarter of
    BLOCK_STACK_BYTES, is one least-squares solve with a column per trial.
    More than TRIAL_BUDGET trials raise BudgetExceeded before any work.
    """
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 0:
        raise ContractViolation("trials must be a non-negative integer")
    if trials > TRIAL_BUDGET:
        raise BudgetExceeded(f"--trials {trials} exceeds the {TRIAL_BUDGET} "
                             "trial budget")
    if np.iscomplexobj(fr.synthesis) and np.abs(fr.synthesis.imag).max() > 0.0:
        raise ContractViolation("sign-blind recovery check is real-case only")
    m, n = fr.M, fr.n
    if (total := math.comb(m, n - 1)) > SUBSET_BUDGET:
        raise BudgetExceeded(
            f"{total} candidate hyperplanes exceed the {SUBSET_BUDGET} "
            "subset budget")
    t = np.real(fr.synthesis)
    report = {"verdict": False, "witness": None, "trials": 0,
              "solvable": 0, "failures": 0, "seed": int(seed)}
    if numeric_rank(t) < n:
        report["witness"] = {"side": list(range(m)), "complement": []}
        return report
    report["witness"] = _complement_witness(t)
    if report["witness"] is not None:
        return report
    rng = np.random.default_rng(seed)
    solvable = failures = 0
    for chunk in stacks(range(trials), 32 * t.itemsize * m):
        f, signs = np.empty((len(chunk), n)), np.ones((len(chunk), m))
        for j, trial in enumerate(chunk):   # the stream rng.choice draws
            rng.standard_normal(out=f[j])
            if trial:
                signs[j] = rng.integers(0, 2, size=m) if trial > 1 else 0.0
        signs = 2.0 * signs - 1.0       # 0 and 1 become -1 and +1
        c = np.einsum("jn,nm->jm", f, t)  # @ would page in gemm buffers
        g = np.linalg.lstsq(t.T, (signs * c).T, rcond=None)[0].T
        # an unrealizable sign pattern has nothing to test
        resid = np.abs(np.einsum("jn,nm->jm", g, t) - signs * c).max(axis=1)
        ok = ~(resid > 1e-9 * np.maximum(1.0, np.abs(c).max(axis=1)))
        bad = np.linalg.norm(g - [f, -f], axis=2).min(axis=0) > \
            1e-6 * (1.0 + np.linalg.norm(f, axis=1))
        solvable += int(ok.sum())
        failures += int((ok & bad).sum())
    report.update({"verdict": failures == 0, "trials": trials,
                   "solvable": solvable, "failures": failures})
    return report
