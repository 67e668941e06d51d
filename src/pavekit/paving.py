"""Paving searches: compress a matrix onto diagonal blocks and shrink its norm.

Matrix paving always works on T - D(T) (the off-diagonal part): a paving
statement about arbitrary matrices only ever constrains what survives off
the diagonal.  Projection paving is the exception and compresses the full
matrix, since there the diagonal is the obstruction being measured.

The exhaustive searches walk canonical partitions depth first under one
placement budget, with block costs memoized by bitmask, and prune a prefix
only when it provably cannot beat the best partition known; a greedy dive
before the walk gives the first such bound.  They return the partition a
full scan would.  The local search does steepest-descent single-index
moves and never claims optimality.  Every report records which mode
produced it.  A block cost prices a stack of same-size blocks in one LAPACK
call (core's stack_norms and stack_spectra), one cost for the searches,
_priced and verify; a memo miss in the walk prices every block of its size
when the missed block holds at most _FILL_SIZE indices, and otherwise the
missed block with the siblings the walk may place next.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import (
    CHECK_TOL,
    EXHAUSTIVE_INDEX_MAX,
    LOCAL_MOVE_BUDGET,
    PARTITION_BUDGET,
    WKHB_MOVE_BUDGET,
    BudgetExceeded,
    ContractViolation,
    ensure_matrix,
    ensure_projection,
    ensure_unit_norm,
    index_stacks,
    label_blocks,
    operator_norm,
    stack_norms,
    stack_spectra,
    sym_eig,
    within,
)
from .frames import gram_matrix

__all__ = [
    "delta_diag", "pave_matrix_check",
    "pave_projection_check", "weaver_check", "wkhb_partition",
]


def delta_diag(t):
    """Largest diagonal entry in absolute value."""
    t = ensure_matrix(t)
    if t.shape[0] != t.shape[1]:
        raise ContractViolation("delta_diag needs a square matrix")
    return float(np.abs(np.diag(t)).max())


# Relative slack for rounding in computed block costs.  Every block cost in
# use is monotone under inclusion in exact arithmetic (compression norms,
# and Gram eigenvalues by Cauchy interlacing), but a computed cost can dip
# below a sub-block's by a few ulps of the block's scale.  A prune that
# waits for a gap of _ROUND_SLACK * (1 + scale) therefore never drops a
# completion the full scan would have accepted.
_ROUND_SLACK = 1e-12

# A memo miss on a block of at most this many indices prices every block
# of its size at once: up to EXHAUSTIVE_INDEX_MAX indices that is at most
# 364 blocks, the walk and its dive read many of them, and one stack of
# them costs little more than one LAPACK call of a few.
_FILL_SIZE = 3


def _block_mask(indices):
    """Bitmask of a block: bit i is set when index i belongs to it."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _block_cost_cache(cost):
    """Memo of block costs keyed by bitmask, filled in stacks on first use.

    cost takes a (B, k) array whose rows are the sorted index lists of B
    blocks and returns their B costs; the empty block costs 0.0.  get(mask)
    prices a missing block alone.  get(mask, m), the call of the walk and
    of its greedy dive, fills more on a miss: a block of at most
    _FILL_SIZE indices comes with every block of its size below m, and a
    larger block R + {i}, i its top index, with every sibling R + {j},
    i < j < m, not yet held, which the walk reaches when it places a later
    index into the same block.  get.fill(blocks) prices the index lists
    blocks that the memo lacks, as the local search does with the blocks of
    each move round.  Every fill goes in stacks cut by core.index_stacks,
    one per run of same-size blocks.  Every key is a subset of {0..m-1}, so
    a search over M indices holds at most 2^M entries.
    """
    cache = {0: 0.0}

    def fill(blocks):
        missing = [b for b in blocks if _block_mask(b) not in cache]
        # rows sized as complex k x k blocks, the largest a cost reads
        for idx in index_stacks(missing, lambda k: 16 * k * k):
            for row, c in zip(idx.tolist(), cost(idx)):
                cache[_block_mask(row)] = c

    def get(mask, m=0):
        val = cache.get(mask)
        if val is None:
            size = mask.bit_count()
            if m and size <= _FILL_SIZE:
                fill(itertools.combinations(range(m), size))
            else:
                top = mask.bit_length() - 1
                head = [i for i in range(top) if mask >> i & 1]
                fill(head + [j] for j in range(top, max(m, top + 1)))
            val = cache[mask]
        return val

    get.fill = fill
    return get


def _rgs_walk(m, r_max, get, admit, leaf, carry):
    """Depth-first walk over the partitions of {0..m-1} into at most r_max
    blocks, in enumerate_partitions order (restricted-growth label strings).

    Placing index i in block b prices the grown block with get(mask, m),
    with the fill of _block_cost_cache (past EXHAUSTIVE_INDEX_MAX indices
    with get(mask) alone: most of that fill is never read there), and
    asks admit(carry, price) for the carry of the longer prefix; None prunes
    every completion of that prefix.  leaf(labels, masks, nblocks) sees
    each complete partition that survives and returns how many blocks the
    rest of the walk may use: r_max goes on, fewer drops every prefix that
    already uses more, and 0 stops the walk.

    A walk may make PARTITION_BUDGET placements, and past them it raises
    BudgetExceeded.  Its stack of prefixes is its own, so Python's
    recursion limit does not bound its depth, one level per index.
    """
    allowed = PARTITION_BUDGET       # read per call, so tests can lower it
    labels = [0] * m
    masks = [0] * r_max
    tops = [-1] * (m + 1)            # tops[i]: the highest block of labels[:i]
    carries = [carry] * (m + 1)      # carries[i]: the carry of that prefix
    fill = m if m <= EXHAUSTIVE_INDEX_MAX else 0
    spent, cap, i, b = 0, r_max, 0, 0
    while True:
        top = tops[i]
        if i < m and b <= top + 1 and b < cap and top < cap:  # cap may fall
            spent += 1
            if spent > allowed:
                raise BudgetExceeded(f"partition search reached {spent} "
                                     f"placements, over the {allowed} allowed")
            mask = masks[b] | 1 << i
            nxt = admit(carries[i], get(mask, fill))
            if nxt is None:
                b += 1
            else:
                labels[i], masks[b] = b, mask
                tops[i + 1] = b if b > top else top
                carries[i + 1] = nxt
                i, b = i + 1, 0
            continue
        if i == m:
            cap = leaf(labels, masks, top + 1)
        if i == 0:
            return
        i -= 1                       # back up: index i tries its next block
        masks[labels[i]] ^= 1 << i
        b = labels[i] + 1


def _exhaustive_search(m, r_max, cost):
    """Minimize the max block cost over every partition into <= r_max blocks.

    Branch-and-bound over _rgs_walk, bounded from the start by one greedy
    dive: each index in turn goes into the open block whose grown block
    costs least, or into a new one while fewer than r_max are open, the
    lowest block on ties.  The dive prices through the walk's memo, and
    its partition's value g sets the first limit.  The carry is the
    largest block cost seen along the prefix; a prefix is pruned once it
    exceeds the limit, the best value known (g, then the incumbent's) plus
    _ROUND_SLACK * (1 + that value), so by monotonicity each pruned
    completion costs strictly more than the best value known.  The limit
    never falls below the optimum plus that slack, and the incumbent, which
    starts empty, is replaced only on a strict <, as in a full scan, so the
    result is the first optimal partition in enumeration order.  evaluated
    counts the complete partitions the walk reaches under that bound, the
    dive's own partition not among them.

    Every block cost must be >= 0 (norms and clipped eigenvalues are), so
    no partition beats a value of 0.0 and the walk stops at the first one.
    Nothing bounds the blocks this walk prices but the 2^m subsets, so past
    EXHAUSTIVE_INDEX_MAX indices it raises BudgetExceeded before it starts.
    """
    if m > EXHAUSTIVE_INDEX_MAX:
        raise BudgetExceeded(f"the exhaustive search runs on at most "
                             f"{EXHAUSTIVE_INDEX_MAX} indices, not {m}")
    get = _block_cost_cache(cost)
    masks, opened = [0] * r_max, 0
    for i in range(m):
        _, b = min((get(masks[b] | 1 << i, m), b)
                   for b in range(min(opened + 1, r_max)))
        masks[b] |= 1 << i
        opened = max(opened, b + 1)
    g = max(map(get, masks))
    best, best_labels = None, None
    limit = g + _ROUND_SLACK * (1.0 + g)
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
        return 0 if best == 0.0 else r_max

    _rgs_walk(m, r_max, get, admit, leaf, -float("inf"))
    return label_blocks(best_labels), best, evaluated


def _local_search(m, r_max, cost, seed):
    """Steepest-descent single-index moves on (max block cost, block mass),
    at most LOCAL_MOVE_BUDGET of them.

    The mass tie-break is the sum of squared block costs, which lets moves
    drain weight out of non-binding blocks; the primary objective is
    monotone nonincreasing over accepted moves.  Each round first prices
    every block its moves reach that the memo lacks, one stack per block
    size, then tries the moves.
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

    def reach(lab):
        """The blocks of lab and of every single-index move from it."""
        masks = masks_of(lab)
        out = set(masks)
        for i, old in enumerate(lab):
            out.add(masks[old] & ~(1 << i))
            out.update(masks[b] | 1 << i for b in range(r_max) if b != old)
        return sorted(([i for i in range(m) if mask >> i & 1] for mask in out),
                      key=len)

    evaluated = 1
    for _ in range(LOCAL_MOVE_BUDGET):
        get.fill(reach(labels))
        best_move, best_val = None, objective(labels)
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
    blocks = label_blocks(labels)
    per = [get(_block_mask(b)) for b in blocks]
    return blocks, max(per), evaluated


def _search(m, r_max, cost, seed, flags, mode="auto"):
    """(blocks, achieved, evaluated, mode) of the "exhaustive" search,
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
    blocks are read from: T for "matrix" (block norms of T - D(T), target
    epsilon ||T - D(T)||), the projection for "projection" (block norms of P,
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
    cost = _gram_block_top(a) if form == "weaver" else _block_norms(a)
    return cost, target, scale, flags


def _block_costs(cost, blocks):
    """The cost of each of a partition's blocks, in order: one call of the
    stacked cost per block size."""
    per = {}
    for k in {len(blk) for blk in blocks}:
        run = [blk for blk in blocks if len(blk) == k]
        per.update(zip(map(tuple, run), cost(np.array(run, dtype=np.intp))))
    return [per[tuple(blk)] for blk in blocks]


def _priced(form, cost, blocks, target, scale, mode, evaluated, flags):
    """The results on a partition's blocks: every block priced with cost,
    one stack per block size, and the verdict on the worst of them against
    target.  scale is the reference norm the target was derived from."""
    per = _block_costs(cost, blocks)
    achieved = max(per)
    return {"form": form, "verdict": bool(within(achieved, target)),
            "achieved": achieved, "target": target,
            "partition": {"blocks": blocks}, "per_block": per, "mode": mode,
            "evaluated": evaluated, "scale": scale, "flags": flags}


def _pave(form, a, r_max, epsilon, bound, mode, seed):
    """The results of a search for the best partition of a's indices."""
    cost, target, scale, flags = _pricing(form, a, epsilon, bound)
    blocks, _, evaluated, mode = _search(len(a), r_max, cost, seed, flags,
                                         mode)
    return _priced(form, cost, blocks, target, scale, mode, evaluated, flags)


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


def _block_norms(a):
    """Block cost of matrix and projection paving: the norm of each
    compression a[S, S] of a stack."""
    return lambda idx: stack_norms(a, idx).tolist()


def _gram_block_top(g):
    """Block cost of weaver: the top eigenvalue of each Gram block of a
    stack, clipped at 0, which is the norm of the block frame operator."""
    return lambda idx: [max(w, 0.0)
                        for w in stack_spectra(g, idx)[:, -1].tolist()]


def weaver_check(fr, bessel, epsilon, r_max, seed=0):
    """Split a unit-norm family into blocks whose frame operators all stay
    below bessel - epsilon.

    Block spectra are read off Gram submatrices (same nonzero spectrum as
    the block frame operator).  Unit norms and the stated Bessel bound are
    preconditions; a violated Bessel bound yields a flagged report.
    """
    ensure_unit_norm(fr)
    return _pave("weaver", gram_matrix(fr), r_max, epsilon, bessel, "auto",
                 seed)


def wkhb_partition(a, r, seed=0):
    """Label the indices with r blocks so each in-block row mass is at most
    every cross-block row mass.

    Input: entrywise-nonnegative symmetric matrix with zero diagonal.  The
    search moves one index at a time to a block of strictly smaller row
    mass; the total in-block mass strictly decreases by a positive amount
    each move, so the loop reaches a fixed point.  At the fixed point the
    certificate holds, and consequently each in-block row mass is at most
    that row's total mass divided by r.  labels holds each index's block,
    0..r-1, and some blocks may be empty.  Past WKHB_MOVE_BUDGET moves it
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
        raise BudgetExceeded(f"wkhb_partition did not stabilize in the "
                             f"{WKHB_MOVE_BUDGET} moves allowed")
    onehot = np.zeros((m, r))
    onehot[np.arange(m), labels] = 1.0
    masses = a @ onehot                     # recompute to shed update roundoff
    in_mass = masses[np.arange(m), labels]
    certified = bool(np.all(within(in_mass, masses.min(axis=1))) and
                     np.all(within(in_mass, a.sum(axis=1) / r)))
    return {
        "labels": labels.tolist(),
        "in_block_mass": in_mass,
        "moves": moves,
        "certified": certified,
        "seed": int(seed),
    }
