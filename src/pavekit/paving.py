"""Paving searches: compress a matrix onto diagonal blocks and shrink its norm.

paving_norm always works on T - D(T) (the off-diagonal part): a paving
statement about arbitrary matrices only ever constrains what survives off
the diagonal.  Projection paving is the exception and compresses the full
matrix, since there the diagonal is the obstruction being measured.

The exhaustive searches walk canonical partitions depth first under hard
budgets, with block costs memoized by bitmask, and prune a prefix only when
it provably cannot beat the best partition found so far; they return the
partition a full scan would.  The local searches do steepest-descent
single-index moves and never claim optimality.  Every report records which
mode produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    BIPARTITION_INDEX_MAX,
    DEFAULT_TOL,
    EXHAUSTIVE_INDEX_MAX,
    PARTITION_BUDGET,
    BudgetExceeded,
    ContractViolation,
    Partition,
    count_partitions,
    ensure_matrix,
    is_hermitian,
    operator_norm,
    sym_eig,
    within,
)
from .frames import gram_matrix

__all__ = [
    "PavingReport", "delta_diag", "diagonal_projection", "paving_norm",
    "pave_exhaustive", "pave_local", "pave_projection_check", "weaver_check",
    "wkhb_partition",
]


def delta_diag(t):
    """Largest diagonal entry in absolute value."""
    t = ensure_matrix(t)
    if t.shape[0] != t.shape[1]:
        raise ContractViolation("delta_diag needs a square matrix")
    return float(np.abs(np.diag(t)).max())


def diagonal_projection(m, indices):
    """The 0/1 diagonal matrix keeping exactly the given coordinates."""
    idx = sorted(set(int(i) for i in indices))
    if idx and (idx[0] < 0 or idx[-1] >= m):
        raise ContractViolation("diagonal_projection index out of range")
    q = np.zeros((m, m))
    for i in idx:
        q[i, i] = 1.0
    return q


def _offdiag(t):
    t = ensure_matrix(t)
    if t.shape[0] != t.shape[1]:
        raise ContractViolation("paving needs a square matrix")
    return t - np.diag(np.diag(t))


def paving_norm(t, p):
    """(max, per-block) operator norms of the diagonal compressions of T - D(T)."""
    t0 = _offdiag(t)
    if p.M != t0.shape[0]:
        raise ContractViolation("partition size does not match the matrix")
    per = []
    for blk in p.blocks():
        per.append(operator_norm(t0[np.ix_(blk, blk)]) if blk else 0.0)
    return max(per), per


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
            "flags": dict(self.flags),
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


def _rgs_walk(m, r_max, get, admit, leaf, carry):
    """Depth-first walk over the partitions of {0..m-1} into at most r_max
    blocks, in enumerate_partitions order (restricted-growth label strings).

    Placing index i in block b prices the grown block with get(mask) and
    asks admit(carry, price) for the carry of the longer prefix; None
    prunes every completion of that prefix.  leaf(labels, masks, nblocks)
    sees each complete partition that survives, and a true return stops
    the walk.  Returns the labels of the partition that stopped it, or None.
    """
    labels = [0] * m
    masks = [0] * r_max

    def rec(i, top, carry):
        if i == m:
            return tuple(labels) if leaf(labels, masks, top + 1) else None
        bit = 1 << i
        for b in range(min(top + 2, r_max)):
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

    return rec(0, -1, carry)


def _exhaustive_search(m, r_max, cost):
    """Minimize the max block cost over every partition into <= r_max blocks.

    Branch-and-bound over _rgs_walk.  The carry is the largest block cost
    seen along the prefix; a prefix is pruned once it exceeds the incumbent
    by more than _ROUND_SLACK * (1 + incumbent), so by monotonicity each
    pruned completion costs strictly more than the incumbent.  The
    incumbent is replaced only on a strict <, as in a full scan, so the
    result is the first optimal partition in enumeration order.
    evaluated counts the complete partitions reached.
    """
    total = count_partitions(m, r_max)
    if total > PARTITION_BUDGET:
        raise BudgetExceeded(
            f"{total} partitions exceed the {PARTITION_BUDGET} budget")
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
        return False

    _rgs_walk(m, r_max, get, admit, leaf, -float("inf"))
    part = Partition(best_labels, max(best_labels) + 1)
    return part, best, evaluated


def _local_search(m, r_max, cost, seed, max_moves=2000):
    """Steepest-descent single-index moves on (max block cost, block mass).

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
    moves = 0
    improved = True
    while improved and moves < max_moves:
        improved = False
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
        if best_move is not None:
            labels[best_move[0]] = best_move[1]
            cur = best_val
            moves += 1
            improved = True
    part = Partition(tuple(labels), r_max, allow_empty=True).canonical()
    per = [get(_block_mask(b)) for b in part.blocks()]
    return part, max(per), evaluated


def _fits_exhaustive(m, r_max):
    """Whether the exhaustive search runs within its index and partition
    budgets; searches that do not fit fall back to local search."""
    return m <= EXHAUSTIVE_INDEX_MAX and \
        count_partitions(m, r_max) <= PARTITION_BUDGET


def _search(m, r_max, cost, seed, flags):
    """(partition, achieved, evaluated, mode): exhaustive when it fits,
    else local search from seed, which is then recorded in flags."""
    if _fits_exhaustive(m, r_max):
        return _exhaustive_search(m, r_max, cost) + ("exhaustive",)
    flags["seed"] = int(seed)
    return _local_search(m, r_max, cost, seed) + ("local",)


def pave_exhaustive(t, r_max, epsilon, tol=DEFAULT_TOL):
    """Provably minimal paving over all partitions into at most r_max blocks."""
    t0 = _offdiag(t)
    m = t0.shape[0]
    if m > EXHAUSTIVE_INDEX_MAX:
        raise BudgetExceeded(
            f"exhaustive paving is capped at {EXHAUSTIVE_INDEX_MAX} indices")
    if r_max < 1 or not (0.0 < epsilon):
        raise ContractViolation("need r_max >= 1 and epsilon > 0")
    scale = operator_norm(t0)
    part, achieved, evaluated = _exhaustive_search(
        m, r_max, lambda blk: operator_norm(t0[np.ix_(blk, blk)]))
    _, per = paving_norm(t, part)
    target = epsilon * scale
    return PavingReport(form="matrix", verdict=within(achieved, target),
                        achieved=achieved, target=target, partition=part,
                        per_block=per, mode="exhaustive", evaluated=evaluated,
                        scale=scale)


def pave_local(t, r_max, epsilon, seed=0, tol=DEFAULT_TOL):
    """Heuristic paving by steepest-descent index moves; no optimality claim."""
    t0 = _offdiag(t)
    m = t0.shape[0]
    if r_max < 1 or not (0.0 < epsilon):
        raise ContractViolation("need r_max >= 1 and epsilon > 0")
    scale = operator_norm(t0)
    part, achieved, evaluated = _local_search(
        m, r_max, lambda blk: operator_norm(t0[np.ix_(blk, blk)]), seed)
    _, per = paving_norm(t, part)
    target = epsilon * scale
    return PavingReport(form="matrix", verdict=within(achieved, target),
                        achieved=achieved, target=target, partition=part,
                        per_block=per, mode="local", evaluated=evaluated,
                        scale=scale, flags={"seed": int(seed)})


def pave_projection_check(p, r_max, epsilon, delta=None, seed=0,
                          tol=DEFAULT_TOL):
    """Search for a partition with every ||Q_A P Q_A|| <= 1 - epsilon.

    The full projection is compressed (no diagonal subtraction).  When a
    diagonal bound delta is supplied and delta_diag(p) exceeds it, the
    report is flagged precondition_violated instead of failing.
    """
    p = ensure_matrix(p, "projection")
    m = p.shape[0]
    if p.shape[0] != p.shape[1]:
        raise ContractViolation("projection must be square")
    scale = 1.0 + np.abs(p).max()
    if np.abs(p @ p - p).max() > tol.check_tol * scale or \
            np.abs(p - p.conj().T).max() > tol.check_tol * scale:
        raise ContractViolation("matrix is not an orthogonal projection")
    flags = {"diag_delta": delta_diag(p)}
    if delta is not None and flags["diag_delta"] > delta + tol.check_tol:
        flags["precondition_violated"] = True
    cost = lambda blk: operator_norm(p[np.ix_(blk, blk)])
    part, achieved, evaluated, mode = _search(m, r_max, cost, seed, flags)
    per = [cost(blk) for blk in part.blocks()]
    target = 1.0 - epsilon
    return PavingReport(form="projection", verdict=within(achieved, target),
                        achieved=achieved, target=target, partition=part,
                        per_block=per, mode=mode, evaluated=evaluated,
                        scale=1.0, flags=flags)


def weaver_check(fr, bessel, epsilon, r_max, seed=0, tol=DEFAULT_TOL):
    """Partition a unit-norm family so every block frame operator stays
    below bessel - epsilon.

    Block spectra are read off Gram submatrices (same nonzero spectrum as
    the block frame operator).  Unit norms and the stated Bessel bound are
    preconditions; a violated Bessel bound yields a flagged report.
    """
    norms = np.linalg.norm(fr.synthesis, axis=0)
    if np.abs(norms - 1.0).max() > tol.check_tol:
        raise ContractViolation("weaver_check needs unit-norm vectors")
    g = gram_matrix(fr)
    gw, _ = sym_eig(g, tol)
    flags = {"bessel_actual": float(max(gw[-1], 0.0))}
    if flags["bessel_actual"] > bessel + tol.check_tol:
        flags["precondition_violated"] = True
    m = fr.M

    def cost(blk):
        sub = g[np.ix_(blk, blk)]
        w, _ = sym_eig(sub, tol)
        return float(max(w[-1], 0.0))

    part, achieved, evaluated, mode = _search(m, r_max, cost, seed, flags)
    per = [cost(blk) for blk in part.blocks()]
    target = bessel - epsilon
    return PavingReport(form="weaver", verdict=within(achieved, target),
                        achieved=achieved, target=target, partition=part,
                        per_block=per, mode=mode, evaluated=evaluated,
                        scale=float(bessel), flags=flags)


def wkhb_partition(a, r, seed=0, max_moves=10**6):
    """Partition indices so each in-block row mass is at most every
    cross-block row mass.

    Input: entrywise-nonnegative symmetric matrix with zero diagonal.  The
    search moves one index at a time to a block of strictly smaller row
    mass; the total in-block mass strictly decreases by a positive amount
    each move, so the loop reaches a fixed point.  At the fixed point the
    certificate holds, and consequently each in-block row mass is at most
    that row's total mass divided by r.
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
    moves = 0
    while moves < max_moves:
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
        moves += 1
    else:
        raise BudgetExceeded("wkhb_partition did not stabilize in budget")
    part = Partition(tuple(int(b) for b in labels), r, allow_empty=True)
    onehot = np.zeros((m, r))
    onehot[np.arange(m), labels] = 1.0
    masses = a @ onehot                     # recompute to shed update roundoff
    in_mass = masses[np.arange(m), labels]
    row_tot = a.sum(axis=1)
    certified = bool(np.all(in_mass <= masses.min(axis=1) + 1e-12) and
                     np.all(in_mass <= row_tot / r + 1e-12))
    return {
        "partition": part,
        "in_block_mass": in_mass.copy(),
        "cross_block_mass": masses.copy(),
        "row_totals": row_tot,
        "moves": moves,
        "certified": certified,
        "seed": int(seed),
    }
