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
from dataclasses import dataclass, field

import numpy as np

from .core import (
    BIPARTITION_INDEX_MAX,
    DEFAULT_TOL,
    SUBSET_BUDGET,
    BudgetExceeded,
    ContractViolation,
    Partition,
    numeric_rank,
    within,
)
from .frames import frame_operator, gram_matrix
from .paving import _search

__all__ = ["ErasureReport", "erasure_robustness", "cc_partition_search",
           "ccc_partition_search", "phase_retrieval_check"]


@dataclass
class ErasureReport:
    k: int
    worst_value: float
    worst_subset: list
    is_parseval: bool
    identity_checked: bool
    subsets_scanned: int
    value_min: float
    value_max: float
    flags: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "k": self.k, "worst_value": self.worst_value,
            "worst_subset": list(self.worst_subset),
            "is_parseval": self.is_parseval,
            "identity_checked": self.identity_checked,
            "subsets_scanned": self.subsets_scanned,
            "value_min": self.value_min, "value_max": self.value_max,
            "flags": dict(self.flags),
        }


def _surviving_lower(fr, erased):
    keep = [i for i in range(fr.M) if i not in erased]
    if not keep:
        return 0.0
    t = fr.synthesis[:, keep]
    w = np.linalg.eigvalsh(t @ t.conj().T)
    return float(max(w[0], 0.0))


def erasure_robustness(fr, k, tol=DEFAULT_TOL):
    """Worst surviving lower frame bound over every erasure of k vectors.

    For Parseval inputs the complementary route 1 - lambda_max(gram block)
    is computed alongside the direct eigensolve and the two are required to
    agree to 1e-9; the report records that the check ran.
    """
    if not (0 <= k < fr.M):
        raise ContractViolation("need 0 <= k < M")
    total = math.comb(fr.M, k)
    if total > SUBSET_BUDGET:
        raise BudgetExceeded(f"{total} erasure patterns exceed the budget")
    s = frame_operator(fr)
    parseval = bool(np.abs(s - np.eye(fr.n)).max() <= tol.check_tol)
    g = gram_matrix(fr) if parseval else None
    worst, worst_subset = math.inf, []
    vmin, vmax = math.inf, -math.inf
    scanned = 0
    for subset in itertools.combinations(range(fr.M), k):
        scanned += 1
        val = _surviving_lower(fr, set(subset))
        if parseval and k > 0:
            sub = g[np.ix_(subset, subset)]
            w = np.linalg.eigvalsh(0.5 * (sub + sub.conj().T))
            via_complement = 1.0 - float(w[-1])
            if abs(via_complement - val) > 1e-9:
                raise ContractViolation(
                    f"complementarity identity violated at {subset}: "
                    f"{val} vs {via_complement}")
        vmin, vmax = min(vmin, val), max(vmax, val)
        if val < worst:
            worst, worst_subset = val, list(subset)
    return ErasureReport(k=k, worst_value=worst, worst_subset=worst_subset,
                         is_parseval=parseval,
                         identity_checked=parseval and k > 0,
                         subsets_scanned=scanned, value_min=vmin,
                         value_max=vmax)


def cc_partition_search(fr, tol=DEFAULT_TOL):
    """Bipartition maximizing the smaller of the two lower frame bounds.

    Exhaustive over all 2^(M-1) - 1 proper bipartitions; index 0 stays on
    the first side to kill the mirror symmetry.
    """
    m = fr.M
    if m < 2:
        raise ContractViolation("need at least two vectors to bipartition")
    if m > BIPARTITION_INDEX_MAX:
        raise BudgetExceeded(
            f"bipartition scans are capped at {BIPARTITION_INDEX_MAX} indices")
    best = None
    scanned = 0
    rest = list(range(1, m))
    for size in range(0, m - 1):
        for extra in itertools.combinations(rest, size):
            side = {0, *extra}
            comp = [i for i in range(m) if i not in side]
            scanned += 1
            val = min(_surviving_lower(fr, set(comp)),
                      _surviving_lower(fr, side))
            if best is None or val > best[0]:
                best = (val, sorted(side), comp)
    value, side, comp = best
    part = Partition.from_blocks([side, comp], M=m)
    return {"best_value": value, "partition": part, "scanned": scanned}


def ccc_partition_search(fr, r_max, epsilon, seed=0, tol=DEFAULT_TOL):
    """Partition a Parseval family so every block frame operator has top
    eigenvalue at most 1 - epsilon.

    Each final block's top eigenvalue is computed both from the block frame
    operator and from the Gram submatrix (the compressed projection in the
    dilation picture); the two must agree to 1e-9.
    """
    if not (0.0 < epsilon < 1.0):
        raise ContractViolation("epsilon must lie in (0, 1)")
    s = frame_operator(fr)
    if np.abs(s - np.eye(fr.n)).max() > tol.check_tol:
        raise ContractViolation("ccc_partition_search needs a Parseval family")
    g = gram_matrix(fr)
    m = fr.M

    def cost(blk):
        sub = g[np.ix_(blk, blk)]
        w = np.linalg.eigvalsh(0.5 * (sub + sub.conj().T))
        return float(max(w[-1], 0.0))

    flags = {}
    part, achieved, scanned, mode = _search(m, r_max, cost, seed, flags)
    cross = []
    for blk in part.blocks():
        t = fr.synthesis[:, blk]
        w = np.linalg.eigvalsh(t @ t.conj().T)
        direct = float(max(w[-1], 0.0))
        via_gram = cost(blk)
        if abs(direct - via_gram) > 1e-9:
            raise ContractViolation(
                f"block spectrum mismatch: {direct} vs {via_gram}")
        cross.append({"block": list(blk), "lambda_max": direct})
    return {"verdict": within(achieved, 1.0 - epsilon),
            "achieved": achieved, "target": 1.0 - epsilon,
            "partition": part, "mode": mode, "scanned": scanned,
            "blocks": cross, "flags": flags}


def phase_retrieval_check(fr, trials=10**4, seed=0, tol=DEFAULT_TOL):
    """Decide sign-blind recovery for a real family, then stress-test it.

    Complement property scan: every bipartition must leave one spanning
    side; the first failure is returned as a witness.  When the scan
    passes, randomized cross-validation solves for vectors matching the
    absolute analysis coefficients of random inputs under random sign
    patterns (the two uniform patterns are always included so at least two
    solvable instances exist) and every solvable instance must recover the
    input up to a global sign.
    """
    if np.iscomplexobj(fr.synthesis) and np.abs(fr.synthesis.imag).max() > 0.0:
        raise ContractViolation("sign-blind recovery check is real-case only")
    m, n = fr.M, fr.n
    if m > BIPARTITION_INDEX_MAX:
        raise BudgetExceeded(
            f"bipartition scans are capped at {BIPARTITION_INDEX_MAX} indices")
    t = np.real(fr.synthesis)
    rank_full = numeric_rank(t, tol)
    report = {"verdict": False, "witness": None, "trials": 0,
              "solvable": 0, "failures": 0, "seed": int(seed)}
    if rank_full < n:
        report["witness"] = {"side": list(range(m)), "complement": []}
        return report
    rest = list(range(1, m))
    for size in range(0, m):
        for extra in itertools.combinations(rest, size):
            side = sorted({0, *extra})
            comp = [i for i in range(m) if i not in set(side)]
            if numeric_rank(t[:, side], tol) < n and \
                    (not comp or numeric_rank(t[:, comp], tol) < n):
                report["witness"] = {"side": side, "complement": comp}
                return report
    rng = np.random.default_rng(seed)
    analysis = t.T
    solvable = failures = 0
    for trial in range(trials):
        f = rng.standard_normal(n)
        c = analysis @ f
        if trial == 0:
            signs = np.ones(m)
        elif trial == 1:
            signs = -np.ones(m)
        else:
            signs = rng.choice([-1.0, 1.0], size=m)
        target = signs * c
        gvec, *_ = np.linalg.lstsq(analysis, target, rcond=None)
        resid = float(np.abs(analysis @ gvec - target).max())
        if resid > 1e-9 * max(1.0, float(np.abs(c).max())):
            continue  # the sign pattern is not realizable; nothing to test
        solvable += 1
        gap = min(float(np.linalg.norm(gvec - f)),
                  float(np.linalg.norm(gvec + f)))
        if gap > 1e-6 * (1.0 + float(np.linalg.norm(f))):
            failures += 1
    report.update({"verdict": failures == 0, "trials": trials,
                   "solvable": solvable, "failures": failures})
    return report
