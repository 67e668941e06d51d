"""Splitting families into well-conditioned pieces, and subspace
decomposability.

A block of vectors is epsilon-Riesz when every unit coefficient vector maps
to a combination of squared norm within epsilon of one; equivalently the
block Gram spectrum sits inside [1 - eps, 1 + eps].  Both block feasibility
predicates here are monotone (enlarging a block only widens its Gram
spectrum), which is what makes greedy assignment with pruning sound.

Restricted isometry constants are computed by brute force over small
subsets; the partition algorithm that drives them down routes squared
inner-product row mass through wkhb_partition and then re-verifies every
block with the brute-force oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CHECK_TOL,
    GREEDY_BACKTRACKS,
    SUBSET_BUDGET,
    BudgetExceeded,
    ContractViolation,
    Frame,
    check_blocks,
    ensure_matrix,
    ensure_unit_norm,
    index_stacks,
    label_blocks,
    numeric_rank,
    stack_spectra,
    subset_ranks,
    within,
)
from .frames import gram_matrix
from .paving import (
    _ROUND_SLACK,
    _block_cost_cache,
    _block_costs,
    _block_mask,
    _rgs_walk,
    wkhb_partition,
)

__all__ = [
    "epsilon_riesz_partition", "feichtinger_partition",
    "restricted_isometry", "tp1_partition", "rado_horn_check", "mixed_norm",
    "Subspace", "is_large", "is_r_decomposable", "decomposition_vectors",
]


def _gram_block_bounds(g):
    """The stacked block cost of the Riesz and Feichtinger searches: the
    (lowest, highest) Gram eigenvalue of each row of a (B, k) index
    array, from one eigvalsh."""
    def spectra(idx):
        w = stack_spectra(g, idx)
        return list(zip(w[:, 0].tolist(), w[:, -1].tolist()))

    return spectra


def _greedy_blocks(m, r_max, ok, score):
    """Depth-first assignment with GREEDY_BACKTRACKS backtracks.

    ok(block_mask) says whether a block is still feasible; feasibility must
    be monotone under removal for the pruning to be sound.  score orders the
    candidate blocks for each index (lower is better).  Returns labels or
    None when the budget runs out.
    """
    labels = [-1] * m
    blocks = [0] * r_max
    tried = [set() for _ in range(m)]
    i = 0
    budget = GREEDY_BACKTRACKS
    while 0 <= i < m:
        cands = []
        used = max(labels[:i], default=-1) + 1
        for b in range(min(used + 1, r_max)):  # canonical: open at most one new block
            if b in tried[i]:
                continue
            cand = blocks[b] | 1 << i
            if ok(cand):
                cands.append((score(cand), b))
        if cands:
            cands.sort()
            b = cands[0][1]
            tried[i].add(b)
            labels[i] = b
            blocks[b] |= 1 << i
            i += 1
        else:
            if budget == 0:
                return None
            budget -= 1
            tried[i] = set()
            i -= 1
            if i < 0:
                return None
            blocks[labels[i]] ^= 1 << i
            labels[i] = -1
            # tried[i] keeps the failed choice so the retry moves on
    return labels


def _in_range(bounds, lo_target, hi_target):
    """Whether a block's (lowest, highest) Gram eigenvalue lies in the
    target range; hi_target None leaves it open above."""
    lo, hi = bounds
    return within(lo_target, lo) and (hi_target is None or
                                      within(hi, hi_target))


def _riesz_results(cost, blocks, target, mode, flags):
    """The results of the Riesz and Feichtinger searches on a partition's
    blocks, None when none was found: each block's (lowest, highest) Gram
    eigenvalue from the stacked cost, and the verdict that there is a block
    and every one lies in the target range."""
    per = _block_costs(cost, blocks) if blocks else []
    return {"verdict": bool(per) and all(_in_range(b, *target) for b in per),
            "partition": {"blocks": blocks} if blocks else None,
            "per_block": [list(b) for b in per], "target": list(target),
            "mode": mode, "flags": flags}


def _partition_by_block_predicate(fr, r_max, lo_target, hi_target):
    """Shared search for epsilon-Riesz and lower-bound partitions.

    The search is exact while its walk fits the placement budget: it walks
    the partitions into at most min(r_max, m) blocks (more blocks than
    vectors add nothing) in enumeration order, and each partition whose
    blocks all pass block_ok lowers the block cap of the rest of the walk
    to one below its own count, so the last one found is the first in
    enumeration order with the fewest blocks.  Block feasibility is downward
    closed (Cauchy interlacing), so a prefix whose newest block fails by
    more than rounding has no feasible completion.  Every block spectrum
    lies in [0, trace g], which bounds the rounding the slack must cover.
    Past the budget, or past EXHAUSTIVE_INDEX_MAX vectors, a greedy search
    with a small backtrack budget takes over.
    """
    g = gram_matrix(fr)
    bounds = _block_cost_cache(_gram_block_bounds(g))
    m = fr.M
    r_max = min(r_max, m)
    target = (lo_target, hi_target)
    slack = 1e-12 + _ROUND_SLACK * (1.0 + float(np.trace(g).real))
    found = None

    def block_ok(mask):
        return _in_range(bounds(mask), lo_target, hi_target)

    def held(idx):      # the found blocks, every one memoized on the way
        return [bounds(_block_mask(row)) for row in idx.tolist()]

    def admit(carry, spectrum):
        lo, hi = spectrum
        if lo < lo_target - slack or (hi_target is not None and
                                      hi > hi_target + slack):
            return None
        return carry

    def leaf(labels, masks, nblocks):
        nonlocal found
        if all(block_ok(masks[b]) for b in range(nblocks)):
            found = label_blocks(labels)
        return len(found) - 1 if found else r_max

    try:
        _rgs_walk(m, r_max, bounds, admit, leaf, True)
        return _riesz_results(held, found, target, "exhaustive", {})
    except BudgetExceeded:
        pass
    labels = _greedy_blocks(
        m, r_max, block_ok,
        score=lambda blk: -bounds(blk)[0] + (bounds(blk)[1]
                                             if hi_target is not None else 0.0))
    if labels is None:
        return _riesz_results(held, None, target, "greedy",
                              {"exhausted_backtracks": True})
    return _riesz_results(held, label_blocks(labels), target, "greedy", {})


def epsilon_riesz_partition(fr, epsilon, r_max):
    """Split unit-norm vectors into blocks whose Gram spectra all lie in
    [1 - epsilon, 1 + epsilon]."""
    ensure_unit_norm(fr)
    if not (0.0 < epsilon < 1.0):
        raise ContractViolation("epsilon must lie in (0, 1)")
    if r_max < 1:
        raise ContractViolation("need r_max >= 1")
    return _partition_by_block_predicate(
        fr, r_max, 1.0 - epsilon, 1.0 + epsilon)


def feichtinger_partition(fr, a_target, r_max):
    """Split into blocks whose lower Riesz bound is at least a_target."""
    if a_target <= 0.0:
        raise ContractViolation("a_target must be positive")
    if r_max < 1:
        raise ContractViolation("need r_max >= 1")
    with np.errstate(over="ignore", invalid="ignore"):  # inf for huge ones
        norms = np.linalg.norm(fr.synthesis, axis=0)
    if norms.min() <= CHECK_TOL:
        raise ContractViolation("zero vectors can never sit in a Riesz block")
    return _partition_by_block_predicate(fr, r_max, a_target, None)


def restricted_isometry(fr, s):
    """delta_s by brute force: worst Gram-spectrum deviation from one over
    all subsets of size at most s.  Returns (delta, worst_subset)."""
    ensure_unit_norm(fr)
    if s < 1:
        raise ContractViolation("need s >= 1")
    s = min(s, fr.M)
    total = sum(math.comb(fr.M, k) for k in range(1, s + 1))
    if total > SUBSET_BUDGET:
        raise BudgetExceeded(
            f"{total} subsets exceed the {SUBSET_BUDGET} budget")
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(fr.M), k) for k in range(1, s + 1))
    g, worst, worst_subset = gram_matrix(fr), -1.0, None
    for idx in index_stacks(subsets, lambda k: g.itemsize * k * k):
        w = stack_spectra(g, idx)
        dev = np.maximum(w[:, -1] - 1.0, 1.0 - w[:, 0])
        i = int(np.argmax(dev))        # first occurrence, as a scan finds
        if dev[i] > worst:
            worst, worst_subset = float(dev[i]), idx[i].tolist()
    return max(worst, 0.0), worst_subset


def tp1_partition(fr, s, delta, seed=0, r_max=64):
    """Split a unit-norm family into blocks of restricted isometry
    constant at most delta (for sparsity s).

    Row masses of the squared inner-product matrix are balanced with
    wkhb_partition at geometrically growing block counts until every
    in-block row mass drops below B / k, where B = max(top Gram
    eigenvalue, 1) and k = ceil(B s / delta^2); then sqrt(s * max_mass)
    <= sqrt(B s / k) <= delta bounds each block's deviation.  Every block
    is re-verified with the brute-force oracle, whose constants the
    results hold as per_block_delta.  The partition is None when none was
    found, and the verdict says there is a block and every one is within
    delta.
    """
    ensure_unit_norm(fr)
    if s < 1:
        raise ContractViolation("need s >= 1")
    g = gram_matrix(fr)
    if not (0.0 < delta < 1.0):
        raise ContractViolation("delta must lie in (0, 1)")
    bessel = float(max(stack_spectra(g, np.arange(fr.M)[None])[0, -1], 1.0))
    ratio = bessel * s / (delta * delta) if delta * delta else math.inf
    if not math.isfinite(ratio):
        raise ContractViolation(f"--delta {delta} puts B s / delta^2 out of "
                                "float range")
    k = max(1, math.ceil(ratio))
    h = np.abs(g) ** 2
    h = 0.5 * (h + h.T)   # BLAS products need not be bitwise Hermitian
    np.fill_diagonal(h, 0.0)
    r = 2
    flags = {"seed": int(seed), "escalations": []}
    blocks, per, r_used = None, [], 0
    while r <= r_max:
        res = wkhb_partition(h, r, seed=seed)
        max_mass = float(res["in_block_mass"].max()) if fr.M else 0.0
        flags["escalations"].append({"r": r, "max_mass": max_mass})
        if within(max_mass, bessel / k):
            found = label_blocks(res["labels"])
            deltas = [restricted_isometry(Frame(fr.synthesis[:, blk]),
                                          min(s, len(blk)))[0]
                      for blk in found]
            if all(within(d, delta) for d in deltas):
                blocks, per, r_used = found, deltas, r
                break
            flags["escalations"][-1]["verified"] = False
        r *= 2
    else:
        flags["exhausted"] = True
    return {"verdict": bool(per) and all(within(d, delta) for d in per),
            "partition": {"blocks": blocks} if blocks else None,
            "r_used": r_used, "k": k, "bessel": bessel,
            "delta_target": delta, "per_block_delta": per,
            "mass_bound": bessel / k, "flags": flags}


def _rado_horn_witness(fr, subset):
    """{subset, size, rank, ratio} of an index subset; the rank is the
    numeric_rank of its columns, and the ratio size / rank is None at rank
    0, so a report holds no infinity."""
    rank = numeric_rank(fr.synthesis[:, subset])
    size = len(subset)
    return {"subset": list(subset), "size": size, "rank": rank,
            "ratio": size / rank if rank else None}


def _price(fr, cache, sets):
    """Enter in cache, keyed by frozenset, whether each index set in sets
    is linearly independent: the sets it lacks, ascending and sorted by
    size, take one subset_ranks call, which gives each the rank a lone
    numeric_rank would."""
    new = sorted(map(sorted, {frozenset(s) for s in sets} - cache.keys()),
                 key=lambda s: (len(s), s))
    if new:
        for s, rank in zip(new, subset_ranks(fr.synthesis, new)):
            cache[frozenset(s)] = rank == len(s)


def _exchange_chains(fr, r):
    """Edmonds' matroid partition over the linear matroid of the columns.

    To place a vector, search breadth-first for a chain of single-element
    evictions ending at a block that accepts its last element outright.
    Returns (blocks, None) with the nonempty independent blocks, or
    (None, J) when some vector cannot be placed.  J is the set of elements
    the search reached.  Each block spans J, because every member of J
    outside a block closes a circuit in it whose members were all reached.
    So |J| = 1 + r * rank J, a violation of Rado-Horn.  Past M blocks, r
    adds nothing: at most M blocks are ever filled.  Each step of the
    search prices all its candidate sets, every block without x plus x and
    that block's swaps blk - y + x, by one _price call before it reads
    them in order, and so does the independence check of each placement.
    """
    if r < 1:
        raise ContractViolation("need r >= 1")
    blocks = [[] for _ in range(min(r, fr.M))]
    where = {}
    cache = {frozenset(): True}

    def indep(blk):
        return cache[frozenset(blk)]

    for e in range(fr.M):
        parent = {e: None}        # element -> (displacer, block it vacates)
        queue = [e]
        terminal = None
        while queue and terminal is None:
            x = queue.pop(0)
            grown = [blk + [x] for blk in blocks if x not in blk]
            _price(fr, cache, grown + [[z for z in blk if z != y]
                                       for blk in grown for y in blk[:-1]
                                       if y not in parent])
            for b, blk in enumerate(blocks):
                if x in blk:
                    continue
                if indep(blk + [x]):
                    terminal = (x, b)
                    break
                for y in blk:     # circuit members: removing y admits x
                    if y in parent:
                        continue
                    if indep([z for z in blk if z != y] + [x]):
                        parent[y] = (x, b)
                        queue.append(y)
        if terminal is None:
            return None, sorted(parent)
        x, b = terminal
        while x is not None:
            if x in where:
                blocks[where[x]].remove(x)
            blocks[b].append(x)
            where[x] = b
            link = parent[x]
            if link is None:
                x = None
            else:
                x, b = link[0], link[1]
        # the chain vacated exactly the slots it refilled; assert anyway
        _price(fr, cache, blocks)
        for blk in blocks:
            if not indep(blk):
                raise ContractViolation("exchange chain broke independence")
    return [blk for blk in blocks if blk], None


def rado_horn_check(fr, r):
    """Decide whether the indices split into at most r linearly independent
    blocks; by Rado-Horn, iff |J| <= r * dim span(J) for every subset J.

    Returns (True, blocks, None), each block ascending, or (False, None,
    witness).  The witness {subset, size, rank, ratio} is a subset J with
    |J| > r * rank J, its rank re-priced by numeric_rank; a J that fails
    that re-check raises rather than being reported.
    """
    blocks, reached = _exchange_chains(fr, r)
    if blocks is not None:
        return True, [sorted(b) for b in blocks], None
    witness = _rado_horn_witness(fr, reached)
    if witness["size"] <= r * witness["rank"]:
        raise ContractViolation(
            f"stalled exchange chain reached {reached}, which has "
            f"|J| <= {r} * rank J: no checkable verdict")
    return False, None, witness


def mixed_norm(x):
    """Euclidean norm plus sup norm of a vector."""
    a = np.asarray(x).reshape(-1)
    if a.size == 0:
        raise ContractViolation("mixed_norm needs a nonempty vector")
    if not np.all(np.isfinite(a)):
        raise ContractViolation("mixed_norm needs finite entries")
    return float(np.linalg.norm(a) + np.abs(a).max())


# ---------------------------------------------------------------------------
# subspaces of a coordinate space
# ---------------------------------------------------------------------------

@dataclass
class Subspace:
    """A subspace of C^M given by an M x n matrix with orthonormal columns."""

    basis: np.ndarray

    def __post_init__(self):
        self.basis = ensure_matrix(self.basis, "basis")
        m, n = self.basis.shape
        if n > m:
            raise ContractViolation("basis has more columns than ambient dim")
        with np.errstate(over="ignore", invalid="ignore"):  # a huge basis
            gram = self.basis.conj().T @ self.basis
        if np.abs(gram - np.eye(n)).max() > 1e-8:
            raise ContractViolation("basis columns must be orthonormal")

    @property
    def ambient(self):
        return self.basis.shape[0]

    @property
    def dim(self):
        return self.basis.shape[1]

    @classmethod
    def from_span(cls, vectors):
        """Orthonormalize a spanning set (columns) into a Subspace."""
        a = ensure_matrix(vectors, "spanning set")
        q, s, _ = np.linalg.svd(a, full_matrices=False)
        r = numeric_rank(a)
        if r == 0:
            raise ContractViolation("spanning set is numerically zero")
        return cls(q[:, :r])


def is_large(sub, a):
    """(ok, min_i ||P e_i||): every coordinate direction keeps length >= a
    under the projection onto the subspace."""
    if a <= 0.0:
        raise ContractViolation("largeness level must be positive")
    row_norms = np.linalg.norm(sub.basis, axis=1)  # ||P e_i|| = ||basis row i||
    mn = float(row_norms.min())
    return mn >= a - CHECK_TOL, mn


def is_r_decomposable(sub, blocks):
    """(ok, per-block ranks): each block of coordinates, which must cover
    the ambient ones, must be fully reachable, i.e. the block rows of the
    basis have full row rank."""
    blocks = check_blocks(blocks, sub.ambient)
    ranks = [numeric_rank(sub.basis[blk, :]) for blk in blocks]
    return ranks == list(map(len, blocks)), ranks


def decomposition_vectors(sub, blocks):
    """For each block E and each i in E, the minimum-norm h in the subspace
    with h(i) = 1 and h(l) = 0 for the other l in E.

    h - e_i is then supported off E.  The minimum-norm solution is the one
    in the range of the adjoint of the block coordinate map, where the
    coordinate map is injective; blocks of size dim(H) pin h down uniquely
    in all of H.  Returns one dict per block with the solved vectors as
    columns and the Bessel bound of the off-block parts {h - e_i}.
    """
    ok, ranks = is_r_decomposable(sub, blocks)
    if not ok:
        raise ContractViolation(f"subspace is not decomposable: ranks {ranks}")
    v = sub.basis
    out = []
    for blk in blocks:
        rows = v[blk, :]
        coeff = np.linalg.pinv(rows)          # n x |E|, min-norm coefficients
        resid = np.abs(rows @ coeff - np.eye(len(blk))).max()
        if resid > 1e-8:
            raise ContractViolation(f"block solve residual {resid:.3e}")
        vectors = v @ coeff                   # M x |E|, column i solves for blk[i]
        offblock = vectors.copy()
        for col, i in enumerate(blk):
            offblock[i, col] -= 1.0
        bessel = float(np.linalg.norm(offblock, 2) ** 2)
        out.append({"indices": list(blk), "vectors": vectors,
                    "offblock": offblock, "bessel": bessel})
    return out
