"""Splitting families into well-conditioned pieces, and subspace
decomposability.

A block of vectors is epsilon-Riesz when every unit coefficient vector maps
to a combination of squared norm within epsilon of one; equivalently the
block Gram spectrum sits inside [1 - eps, 1 + eps].  Both block feasibility
predicates here are monotone (enlarging a block only widens its Gram
spectrum), which is what makes pruning the partition walk sound.

Restricted isometry constants are exact over every small subset: each is
bounded by cheap norms, and only the subsets those bounds cannot rule out
are eigen-priced.  The partition algorithm that drives them down routes
squared inner-product row mass through wkhb_partition and then re-verifies
every block with restricted_isometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CHECK_TOL,
    EXHAUSTIVE_INDEX_MAX,
    SUBSET_BUDGET,
    VERDICT_SLACK,
    BudgetExceeded,
    ContractViolation,
    Frame,
    bound_first_scan,
    check_blocks,
    ensure_matrix,
    ensure_unit_norm,
    in_range,
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


def _riesz_results(cost, blocks, target, mode, flags):
    """The results of the Riesz and Feichtinger searches on a partition's
    blocks, None when none was found: each block's (lowest, highest) Gram
    eigenvalue from the stacked cost, and the verdict that there is a block
    and every one lies in the target range."""
    per = _block_costs(cost, blocks) if blocks else []
    return {"verdict": bool(per) and all(in_range(b, *target) for b in per),
            "partition": {"blocks": blocks} if blocks else None,
            "per_block": [list(b) for b in per], "target": list(target),
            "mode": mode, "flags": flags}


def _partition_by_block_predicate(fr, r_max, lo_target, hi_target):
    """Shared search for epsilon-Riesz and lower-bound partitions: one walk
    over the partitions into at most min(r_max, m) blocks (more blocks than
    vectors add nothing) in enumeration order.

    Block feasibility is downward closed (Cauchy interlacing), so a prefix
    whose newest block fails by more than rounding has no feasible
    completion; every block spectrum lies in [0, trace g], which bounds the
    rounding the slack must cover.  Up to EXHAUSTIVE_INDEX_MAX vectors each
    partition whose blocks all pass lowers the block cap of the rest of the
    walk to one below its own count, so a walk that ends gives the first
    partition in enumeration order with the fewest blocks, mode
    "exhaustive".  Past that the walk stops at its first feasible
    partition, mode "first-fit", as it does when the placement budget trips
    after a partition was found; a walk that ends without one proves that
    none exists.  A budget that trips before any is found raises
    BudgetExceeded.

    No walk runs when lo_target exceeds the slack and there are more than
    r_max * n vectors: a feasible block then has its lowest Gram eigenvalue
    above 0, so its vectors are independent and at most n of them fit, and
    the results are those of a walk that finds no partition.
    """
    g = gram_matrix(fr)
    bounds = _block_cost_cache(_gram_block_bounds(g))
    m = fr.M
    r_max = min(r_max, m)
    target = (lo_target, hi_target)
    # the leaf's own slack, within's, plus the rounding of a block spectrum
    slack = VERDICT_SLACK + _ROUND_SLACK * (1.0 + float(np.trace(g).real))
    found = None

    def held(idx):      # the found blocks, every one memoized on the way
        return [bounds(_block_mask(row)) for row in idx.tolist()]

    if lo_target > slack and m > r_max * fr.n:
        return _riesz_results(held, None, target, "exhaustive", {})

    def admit(carry, spectrum):
        lo, hi = spectrum
        if lo < lo_target - slack or (hi_target is not None and
                                      hi > hi_target + slack):
            return None
        return carry

    def leaf(labels, masks, nblocks):
        nonlocal found
        if all(in_range(bounds(masks[b]), *target) for b in range(nblocks)):
            found = label_blocks(labels)
        if found is None:
            return r_max
        return len(found) - 1 if m <= EXHAUSTIVE_INDEX_MAX else 0

    try:
        _rgs_walk(m, r_max, bounds, admit, leaf, True)
        first_fit = found is not None and m > EXHAUSTIVE_INDEX_MAX
    except BudgetExceeded:
        if found is None:
            raise
        first_fit = True
    return _riesz_results(held, found, target,
                          "first-fit" if first_fit else "exhaustive", {})


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
    """delta_s: the worst Gram-spectrum deviation from one over all subsets
    S of size at most s, max(lambda_max - 1, 1 - lambda_min) of G[S, S].
    Returns (delta, worst_subset), the first worst S in scan order.

    Every subset is bounded, and core.bound_first_scan eigen-prices only
    the subsets whose bounds leave them in play.  The deviation is the
    norm of G[S, S] - I, which lies between its largest column norm and
    the Gershgorin row sum or the Frobenius norm of |G[S, S] - I|,
    whichever is less.  Both bounds are widened by the rounding margin
    err (1 + s max|G|), err = 64 (n + M) eps, so delta and its subset are
    those of pricing every subset, bit for bit.  Where a settle of the scan
    shows the bounds ruling out little, the rest of that size is priced
    unbounded.
    """
    ensure_unit_norm(fr)
    if s < 1:
        raise ContractViolation("need s >= 1")
    s = min(s, fr.M)
    total = sum(math.comb(fr.M, k) for k in range(1, s + 1))
    if total > SUBSET_BUDGET:
        raise BudgetExceeded(
            f"{total} subsets exceed the {SUBSET_BUDGET} budget")
    g = gram_matrix(fr)
    spread = np.abs(g - np.eye(fr.M))
    err = 64 * (fr.n + fr.M) * np.finfo(float).eps * \
        (1.0 + s * np.abs(g).max())

    def bounds(idx):
        ix = np.ascontiguousarray(idx.T)        # (k, B): short axes first
        dev = spread[ix[:, None], ix[None]]     # |G[S, S] - I| as (k, k, B)
        square = dev * dev
        upper = np.minimum(dev.sum(axis=1).max(axis=0),
                           np.sqrt(square.sum(axis=(0, 1))))
        lower = np.sqrt(square.sum(axis=0).max(axis=0))
        return -err - upper, err - lower        # bounds on the price, -dev

    def price(idx):
        w = stack_spectra(g, idx)
        return np.minimum(1.0 - w[:, -1], w[:, 0] - 1.0)    # -dev

    least, worst_subset, _ = bound_first_scan(
        fr.M, range(1, s + 1), bounds, lambda k: 4 * g.itemsize * k * k,
        price, lambda k: g.itemsize * k * k)
    return max(0.0, -least), worst_subset       # +0.0 where least is 0


def tp1_partition(fr, s, delta, seed=0, r_max=64):
    """Split a unit-norm family into blocks of restricted isometry
    constant at most delta (for sparsity s).

    Row masses of the squared inner-product matrix are balanced with
    wkhb_partition at geometrically growing block counts until every
    in-block row mass drops below B / k, where B = max(top Gram
    eigenvalue, 1) and k = ceil(B s / delta^2); then sqrt(s * max_mass)
    <= sqrt(B s / k) <= delta bounds each block's deviation.  Every block
    is re-verified with restricted_isometry, whose constants the
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
        if np.abs(gram - np.eye(n)).max() > CHECK_TOL:
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
        if resid > CHECK_TOL:
            raise ContractViolation(f"block solve residual {resid:.3e}")
        vectors = v @ coeff                   # M x |E|, column i solves for blk[i]
        offblock = vectors.copy()
        for col, i in enumerate(blk):
            offblock[i, col] -= 1.0
        bessel = float(np.linalg.norm(offblock, 2) ** 2)
        out.append({"indices": list(blk), "vectors": vectors,
                    "offblock": offblock, "bessel": bessel})
    return out
