"""Paving searches: compress a matrix onto diagonal blocks and shrink its norm.

Matrix paving always works on T - D(T) (the off-diagonal part): a paving
statement about arbitrary matrices only ever constrains what survives off
the diagonal.  Projection paving is the exception and compresses the full
matrix, since there the diagonal is the obstruction being measured.

The exhaustive searches walk canonical partitions depth first under one
placement budget, with block costs memoized by bitmask, and prune a prefix
only when it provably cannot beat the best partition found so far; they
return the partition a full scan would.  The local search does steepest-
descent single-index moves and never claims optimality.  Every report
records which mode produced it.  Blocks are priced on memo misses by core's
one-block kernels, one cost for the searches, _priced and verify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import (
    CHECK_TOL,
    EXHAUSTIVE_INDEX_MAX,
    LOCAL_MOVE_BUDGET,
    PARTITION_BUDGET,
    WKHB_MOVE_BUDGET,
    BudgetExceeded,
    ContractViolation,
    Partition,
    block_norm,
    block_spectrum,
    ensure_matrix,
    ensure_projection,
    ensure_unit_norm,
    operator_norm,
    sym_eig,
    within,
)
from .frames import gram_matrix

__all__ = [
    "PavingReport", "delta_diag", "pave_matrix_check",
    "pave_projection_check", "weaver_check", "wkhb_partition",
]


def delta_diag(t):
    """Largest diagonal entry in absolute value."""
    t = ensure_matrix(t)
    if t.shape[0] != t.shape[1]:
        raise ContractViolation("delta_diag needs a square matrix")
    return float(np.abs(np.diag(t)).max())


@dataclass
class PavingReport:
    form: str                    # "matrix", "projection" or "weaver"
    verdict: bool
    achieved: float
    target: float
    partition: Partition
    per_block: list
    mode: str                    # "exhaustive" or "local"
    evaluated: int
    scale: float                 # reference norm the target was derived from
    flags: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "form": self.form, "verdict": bool(self.verdict),
            "achieved": self.achieved, "target": self.target,
            "partition": self.partition.to_json(),
            "per_block": list(self.per_block), "mode": self.mode,
            "evaluated": self.evaluated, "scale": self.scale,
            "flags": self.flags,
        }


# Relative slack for rounding in computed block costs.  Every block cost in
# use is monotone under inclusion in exact arithmetic (compression norms,
# and Gram eigenvalues by Cauchy interlacing), but a computed cost can dip
# below a sub-block's by a few ulps of the block's scale.  A prune that
# waits for a gap of _ROUND_SLACK * (1 + scale) therefore never drops a
# completion the full scan would have accepted.
_ROUND_SLACK = 1e-12


def _block_mask(indices):
    """Bitmask of a block: bit i is set when index i belongs to it."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _block_cost_cache(cost):
    """Memo of block costs keyed by bitmask, filled on first use.

    cost is called once per distinct nonempty block, on its sorted index
    list; the empty block costs 0.0.  A search over M indices holds at most
    2^M entries.
    """
    cache = {0: 0.0}

    def get(mask):
        val = cache.get(mask)
        if val is None:
            idx = [i for i in range(mask.bit_length()) if mask >> i & 1]
            val = cache[mask] = cost(idx)
        return val

    return get


def _rgs_walk(m, r_max, get, admit, leaf, carry, spent=0):
    """Depth-first walk over the partitions of {0..m-1} into at most r_max
    blocks, in enumerate_partitions order (restricted-growth label strings).

    Placing index i in block b prices the grown block with get(mask) and
    asks admit(carry, price) for the carry of the longer prefix; None
    prunes every completion of that prefix.  leaf(labels, masks, nblocks)
    sees each complete partition that survives, and a true return stops
    the walk.  Returns (its labels or None, placements spent so far).

    A search may make PARTITION_BUDGET placements in all, spent of them in
    earlier walks, and the memo behind get holds up to 2^m entries; past
    either bound, PARTITION_BUDGET or EXHAUSTIVE_INDEX_MAX, the walk raises
    BudgetExceeded.
    """
    if m > EXHAUSTIVE_INDEX_MAX:
        raise BudgetExceeded(f"the partition walk runs on at most "
                             f"{EXHAUSTIVE_INDEX_MAX} indices, not {m}")
    allowed = PARTITION_BUDGET       # read per call, so tests can lower it
    labels = [0] * m
    masks = [0] * r_max

    def rec(i, top, carry):
        nonlocal spent
        if i == m:
            return tuple(labels) if leaf(labels, masks, top + 1) else None
        bit = 1 << i
        for b in range(min(top + 2, r_max)):
            spent += 1
            if spent > allowed:
                raise BudgetExceeded(f"partition search reached {spent} "
                                     f"placements, over the {allowed} allowed")
            mask = masks[b] | bit
            nxt = admit(carry, get(mask))
            if nxt is None:
                continue
            labels[i] = b
            masks[b] = mask
            found = rec(i + 1, b if b > top else top, nxt)
            masks[b] = mask ^ bit
            if found is not None:
                return found
        return None

    return rec(0, -1, carry), spent


def _exhaustive_search(m, r_max, cost):
    """Minimize the max block cost over every partition into <= r_max blocks.

    Branch-and-bound over _rgs_walk.  The carry is the largest block cost
    seen along the prefix; a prefix is pruned once it exceeds the incumbent
    by more than _ROUND_SLACK * (1 + incumbent), so by monotonicity each
    pruned completion costs strictly more than the incumbent.  The
    incumbent is replaced only on a strict <, as in a full scan, so the
    result is the first optimal partition in enumeration order.
    evaluated counts the complete partitions reached.

    Every block cost must be >= 0 (norms and clipped eigenvalues are), so
    no partition beats a value of 0.0 and the walk stops at the first one.
    """
    get = _block_cost_cache(cost)
    best, best_labels = None, None
    limit = float("inf")
    evaluated = 0

    def admit(partial, c):
        if c > partial:
            partial = c
        return partial if partial <= limit else None

    def leaf(labels, masks, nblocks):
        nonlocal best, best_labels, limit, evaluated
        evaluated += 1
        val = max(get(masks[b]) for b in range(nblocks))
        if best is None or val < best:
            best, best_labels = val, tuple(labels)
            limit = val + _ROUND_SLACK * (1.0 + val)
        return best == 0.0

    _rgs_walk(m, r_max, get, admit, leaf, -float("inf"))
    part = Partition(best_labels, max(best_labels) + 1)
    return part, best, evaluated


def _local_search(m, r_max, cost, seed):
    """Steepest-descent single-index moves on (max block cost, block mass),
    at most LOCAL_MOVE_BUDGET of them.

    The mass tie-break is the sum of squared block costs, which lets moves
    drain weight out of non-binding blocks; the primary objective is
    monotone nonincreasing over accepted moves.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(m)
    labels = [0] * m
    for pos, i in enumerate(order):
        labels[int(i)] = pos % r_max
    get = _block_cost_cache(cost)

    def masks_of(lab):
        out = [0] * r_max
        for i, b in enumerate(lab):
            out[b] |= 1 << i
        return out

    def objective(lab):
        per = [get(mask) for mask in masks_of(lab)]
        return max(per), float(sum(v * v for v in per))

    cur = objective(labels)
    evaluated = 1
    for _ in range(LOCAL_MOVE_BUDGET):
        best_move, best_val = None, cur
        for i in range(m):
            old = labels[i]
            for b in range(r_max):
                if b == old:
                    continue
                labels[i] = b
                val = objective(labels)
                evaluated += 1
                if val < best_val:
                    best_val, best_move = val, (i, b)
                labels[i] = old
        if best_move is None:
            break
        labels[best_move[0]] = best_move[1]
        cur = best_val
    part = Partition(tuple(labels), r_max, allow_empty=True).canonical()
    per = [get(_block_mask(b)) for b in part.blocks()]
    return part, max(per), evaluated


def _search(m, r_max, cost, seed, flags, mode="auto"):
    """(partition, achieved, evaluated, mode) of the "exhaustive" search,
    which raises BudgetExceeded when the walk does, or of local search from
    seed, which is then recorded in flags; "auto" runs the first and falls
    back to the second."""
    if mode not in ("auto", "exhaustive", "local") or r_max < 1:
        raise ContractViolation(f"need r_max >= 1 and a search mode, got "
                                f"{r_max!r} and {mode!r}")
    r_max = min(r_max, m)       # more blocks than indices add nothing
    if mode != "local":
        try:
            return _exhaustive_search(m, r_max, cost) + ("exhaustive",)
        except BudgetExceeded:
            if mode == "exhaustive":
                raise
    flags["seed"] = int(seed)
    return _local_search(m, r_max, cost, seed) + ("local",)


def _pricing(form, a, epsilon, bound=None):
    """(block cost, target, scale, flags) of a paving form on the matrix its
    blocks are read from: T for "matrix" (block_norm of T - D(T), target
    epsilon ||T - D(T)||), the projection for "projection" (block_norm of P,
    target 1 - epsilon, flags on diag_delta against the bound delta), the
    Gram matrix for "weaver" (top Gram block eigenvalue, target bessel -
    epsilon, flags on the top Gram eigenvalue against the bound bessel).
    An overflowing target is refused, naming the option that set it."""
    if form == "matrix":
        a = ensure_matrix(a)
        if a.shape[0] != a.shape[1]:
            raise ContractViolation("paving needs a square matrix")
        a = a - np.diag(np.diag(a))
        scale = operator_norm(a)
        target, flags = epsilon * scale, {}
    elif form == "projection":
        target, scale, flags = 1.0 - epsilon, 1.0, {"diag_delta": delta_diag(a)}
    elif form == "weaver":
        target, scale = bound - epsilon, float(bound)
        flags = {"bessel_actual": float(max(sym_eig(a)[0][-1], 0.0))}
    else:
        raise ContractViolation(f"unknown paving form {form!r}")
    if not np.isfinite(target):
        option = "--bessel" if form == "weaver" else "--epsilon"
        raise ContractViolation(f"{option} gives a {form} target of {target}")
    if bound is not None and form != "matrix" and \
            max(flags.values()) > bound + CHECK_TOL:
        flags["precondition_violated"] = True
    cost = _gram_block_top(a) if form == "weaver" else partial(block_norm, a)
    return cost, target, scale, flags


def _priced(form, cost, part, target, scale, mode, evaluated, flags):
    """The report on a partition: every block priced with cost, and the
    verdict on the worst of them against target."""
    per = [cost(blk) for blk in part.blocks()]
    achieved = max(per)
    return PavingReport(form=form, verdict=within(achieved, target),
                        achieved=achieved, target=target, partition=part,
                        per_block=per, mode=mode, evaluated=evaluated,
                        scale=scale, flags=flags)


def _pave(form, a, r_max, epsilon, bound, mode, seed):
    """The report of a search for the best partition of a's indices."""
    cost, target, scale, flags = _pricing(form, a, epsilon, bound)
    part, _, evaluated, mode = _search(len(a), r_max, cost, seed, flags, mode)
    return _priced(form, cost, part, target, scale, mode, evaluated, flags)


def pave_matrix_check(t, r_max, epsilon, mode="auto", seed=0):
    """Search for a partition whose compressions of T - D(T) all have norm
    at most epsilon ||T - D(T)||.

    mode "exhaustive" finds a provably minimal paving or raises
    BudgetExceeded, "local" moves single indices downhill from seed with
    no optimality claim, and "auto" falls back from the first to the
    second when the walk does not fit its budget.
    """
    if not (0.0 < epsilon):
        raise ContractViolation("need epsilon > 0")
    return _pave("matrix", t, r_max, epsilon, None, mode, seed)


def pave_projection_check(p, r_max, epsilon, delta=None, mode="auto", seed=0):
    """Search for a partition with every ||Q_A P Q_A|| <= 1 - epsilon,
    in the modes of pave_matrix_check.

    The full projection is compressed (no diagonal subtraction).  When a
    diagonal bound delta is supplied and delta_diag(p) exceeds it, the
    report is flagged precondition_violated instead of failing.
    """
    return _pave("projection", ensure_projection(p), r_max, epsilon, delta,
                 mode, seed)


def _gram_block_top(g):
    """Block cost of weaver: the top eigenvalue of the Gram block,
    clipped at 0, which is the norm of the block frame operator."""
    return lambda blk: float(max(block_spectrum(g, blk)[-1], 0.0))


def weaver_check(fr, bessel, epsilon, r_max, seed=0):
    """Partition a unit-norm family so every block frame operator stays
    below bessel - epsilon.

    Block spectra are read off Gram submatrices (same nonzero spectrum as
    the block frame operator).  Unit norms and the stated Bessel bound are
    preconditions; a violated Bessel bound yields a flagged report.
    """
    ensure_unit_norm(fr)
    return _pave("weaver", gram_matrix(fr), r_max, epsilon, bessel, "auto",
                 seed)


def wkhb_partition(a, r, seed=0):
    """Partition indices so each in-block row mass is at most every
    cross-block row mass.

    Input: entrywise-nonnegative symmetric matrix with zero diagonal.  The
    search moves one index at a time to a block of strictly smaller row
    mass; the total in-block mass strictly decreases by a positive amount
    each move, so the loop reaches a fixed point.  At the fixed point the
    certificate holds, and consequently each in-block row mass is at most
    that row's total mass divided by r.  Past WKHB_MOVE_BUDGET moves it
    raises BudgetExceeded.
    """
    a = ensure_matrix(a, "mass matrix")
    m = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ContractViolation("wkhb_partition needs a square matrix")
    if np.iscomplexobj(a) or a.min() < 0.0:
        raise ContractViolation("entries must be real and nonnegative")
    if np.abs(np.diag(a)).max() > 0.0:
        raise ContractViolation("diagonal must be zero")
    if np.abs(a - a.T).max() > 0.0:
        raise ContractViolation("matrix must be symmetric")
    if r < 1:
        raise ContractViolation("need r >= 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(m)
    labels = np.zeros(m, dtype=int)
    for pos, i in enumerate(order):
        labels[int(i)] = pos % r
    onehot = np.zeros((m, r))
    onehot[np.arange(m), labels] = 1.0
    masses = a @ onehot                     # masses[i, b] = mass from i into block b
    for moves in range(WKHB_MOVE_BUDGET):
        cur = masses[np.arange(m), labels]
        best = masses.min(axis=1)
        movable = np.nonzero(best < cur)[0]
        if movable.size == 0:
            break
        i = int(movable[0])                 # first movable index, lowest id
        b = int(np.argmin(masses[i]))       # ties go to the lowest block id
        old = labels[i]
        labels[i] = b
        masses[:, old] -= a[:, i]
        masses[:, b] += a[:, i]
    else:
        raise BudgetExceeded("wkhb_partition did not stabilize in budget")
    part = Partition(tuple(int(b) for b in labels), r, allow_empty=True)
    onehot = np.zeros((m, r))
    onehot[np.arange(m), labels] = 1.0
    masses = a @ onehot                     # recompute to shed update roundoff
    in_mass = masses[np.arange(m), labels]
    row_tot = a.sum(axis=1)
    certified = bool(np.all(within(in_mass, masses.min(axis=1))) and
                     np.all(within(in_mass, row_tot / r)))
    return {
        "partition": part,
        "in_block_mass": in_mass.copy(),
        "cross_block_mass": masses.copy(),
        "row_totals": row_tot,
        "moves": moves,
        "certified": certified,
        "seed": int(seed),
    }
