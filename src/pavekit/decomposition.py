"""Partitioning families into well-conditioned pieces, and subspace
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
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_TOL,
    RADO_HORN_INDEX_MAX,
    RIESZ_EXHAUSTIVE_MAX,
    SUBSET_BUDGET,
    BudgetExceeded,
    ContractViolation,
    Frame,
    Partition,
    ensure_matrix,
    numeric_rank,
    sym_eig,
)
from .frames import gram_matrix
from .paving import (
    _ROUND_SLACK,
    _block_cost_cache,
    _block_mask,
    _rgs_walk,
    wkhb_partition,
)

__all__ = [
    "riesz_bounds", "epsilon_riesz_partition", "feichtinger_partition",
    "restricted_isometry", "restricted_isometry_sampled", "tp1_partition",
    "rado_horn_check", "rado_horn_partition", "mixed_norm",
    "Subspace", "is_large", "is_r_decomposable", "decomposition_vectors",
]


def riesz_bounds(fr, tol=DEFAULT_TOL):
    """Extreme eigenvalues of the Gram matrix: the optimal constants in
    lower * sum|a|^2 <= ||sum a_i f_i||^2 <= upper * sum|a|^2."""
    g = gram_matrix(fr)
    w, _ = sym_eig(g, tol)
    return float(max(w[0], 0.0)), float(max(w[-1], 0.0))


def _unit_norm_guard(fr, tol):
    norms = np.linalg.norm(fr.synthesis, axis=0)
    if np.abs(norms - 1.0).max() > tol.check_tol:
        raise ContractViolation("operation needs unit-norm vectors")


def _gram_block_bounds(g):
    """(lowest, highest) Gram eigenvalue of each block, memoized by the
    block's bitmask."""
    def spectrum(idx):
        sub = g[np.ix_(idx, idx)]
        w = np.linalg.eigvalsh(0.5 * (sub + sub.conj().T))
        return float(w[0]), float(w[-1])

    return _block_cost_cache(spectrum)


def _greedy_blocks(m, r_max, ok, score, backtracks=3):
    """Depth-first assignment with a small backtrack budget.

    ok(block_mask) says whether a block is still feasible; feasibility must
    be monotone under removal for the pruning to be sound.  score orders the
    candidate blocks for each index (lower is better).  Returns labels or
    None when the budget runs out.
    """
    labels = [-1] * m
    blocks = [0] * r_max
    tried = [set() for _ in range(m)]
    i = 0
    budget = backtracks
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


@dataclass
class RieszReport:
    verdict: bool
    partition: Partition | None
    per_block: list            # (lower, upper) per block
    target: tuple
    mode: str
    flags: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "verdict": bool(self.verdict),
            "partition": self.partition.to_json() if self.partition else None,
            "per_block": [list(b) for b in self.per_block],
            "target": list(self.target), "mode": self.mode,
            "flags": dict(self.flags),
        }


def _partition_by_block_predicate(fr, r_max, lo_target, hi_target, tol):
    """Shared search for epsilon-Riesz and lower-bound partitions.

    Up to RIESZ_EXHAUSTIVE_MAX vectors the search is exact: for rr = 1..r_max
    it walks the partitions into at most rr blocks in enumeration order and
    returns the first whose blocks all pass block_ok.  Block feasibility is
    downward closed (Cauchy interlacing), so a prefix whose newest block
    fails by more than rounding has no feasible completion.  Every block
    spectrum lies in [0, trace g], which bounds the rounding the slack must
    cover.
    """
    g = gram_matrix(fr)
    bounds = _gram_block_bounds(g)
    m = fr.M

    def block_ok(mask):
        lo, hi = bounds(mask)
        return lo >= lo_target - 1e-12 and (hi_target is None or
                                            hi <= hi_target + 1e-12)

    if m <= RIESZ_EXHAUSTIVE_MAX:
        slack = 1e-12 + _ROUND_SLACK * (1.0 + float(np.trace(g).real))

        def admit(carry, spectrum):
            lo, hi = spectrum
            if lo < lo_target - slack or (hi_target is not None and
                                          hi > hi_target + slack):
                return None
            return carry

        def leaf(labels, masks, nblocks):
            return all(block_ok(masks[b]) for b in range(nblocks))

        for rr in range(1, r_max + 1):
            labels = _rgs_walk(m, rr, bounds, admit, leaf, True)
            if labels is not None:
                p = Partition(labels, max(labels) + 1)
                per = [bounds(_block_mask(b)) for b in p.blocks()]
                return RieszReport(True, p, per,
                                   (lo_target, hi_target), "exhaustive")
        return RieszReport(False, None, [], (lo_target, hi_target),
                           "exhaustive")
    labels = _greedy_blocks(
        m, r_max, block_ok,
        score=lambda blk: -bounds(blk)[0] + (bounds(blk)[1]
                                             if hi_target is not None else 0.0))
    if labels is None:
        return RieszReport(False, None, [], (lo_target, hi_target), "greedy",
                           flags={"exhausted_backtracks": True})
    p = Partition(tuple(labels), max(labels) + 1)
    per = [bounds(_block_mask(b)) for b in p.blocks()]
    return RieszReport(True, p, per, (lo_target, hi_target), "greedy")


def epsilon_riesz_partition(fr, epsilon, r_max, tol=DEFAULT_TOL):
    """Partition unit-norm vectors so every block Gram spectrum lies in
    [1 - epsilon, 1 + epsilon]."""
    _unit_norm_guard(fr, tol)
    if not (0.0 < epsilon < 1.0):
        raise ContractViolation("epsilon must lie in (0, 1)")
    if r_max < 1:
        raise ContractViolation("need r_max >= 1")
    return _partition_by_block_predicate(
        fr, r_max, 1.0 - epsilon, 1.0 + epsilon, tol)


def feichtinger_partition(fr, a_target, r_max, tol=DEFAULT_TOL):
    """Partition into blocks whose lower Riesz bound is at least a_target."""
    if a_target <= 0.0:
        raise ContractViolation("a_target must be positive")
    if r_max < 1:
        raise ContractViolation("need r_max >= 1")
    norms = np.linalg.norm(fr.synthesis, axis=0)
    if norms.min() <= tol.check_tol:
        raise ContractViolation("zero vectors can never sit in a Riesz block")
    return _partition_by_block_predicate(fr, r_max, a_target, None, tol)


def restricted_isometry(fr, s, tol=DEFAULT_TOL):
    """delta_s by brute force: worst Gram-spectrum deviation from one over
    all subsets of size at most s.  Returns (delta, worst_subset)."""
    _unit_norm_guard(fr, tol)
    if s < 1:
        raise ContractViolation("need s >= 1")
    s = min(s, fr.M)
    total = sum(math.comb(fr.M, k) for k in range(1, s + 1))
    if total > SUBSET_BUDGET:
        raise BudgetExceeded(
            f"{total} subsets exceed the {SUBSET_BUDGET} budget; "
            "use restricted_isometry_sampled for a flagged lower bound")
    g = gram_matrix(fr)
    worst, worst_subset = -1.0, None
    for k in range(1, s + 1):
        for subset in itertools.combinations(range(fr.M), k):
            sub = g[np.ix_(subset, subset)]
            w = np.linalg.eigvalsh(0.5 * (sub + sub.conj().T))
            dev = max(float(w[-1] - 1.0), float(1.0 - w[0]))
            if dev > worst:
                worst, worst_subset = dev, subset
    return max(worst, 0.0), list(worst_subset)


def restricted_isometry_sampled(fr, s, samples=1000, seed=0, tol=DEFAULT_TOL):
    """Sampled lower bound on delta_s, flagged as such: (value, subset, flag)."""
    _unit_norm_guard(fr, tol)
    if s < 1:
        raise ContractViolation("need s >= 1")
    s = min(s, fr.M)
    rng = np.random.default_rng(seed)
    g = gram_matrix(fr)
    worst, worst_subset = -1.0, None
    for _ in range(samples):
        k = int(rng.integers(1, s + 1))
        subset = tuple(sorted(rng.choice(fr.M, size=k, replace=False)))
        sub = g[np.ix_(subset, subset)]
        w = np.linalg.eigvalsh(0.5 * (sub + sub.conj().T))
        dev = max(float(w[-1] - 1.0), float(1.0 - w[0]))
        if dev > worst:
            worst, worst_subset = dev, subset
    return max(worst, 0.0), list(worst_subset), {"lower_bound_only": True,
                                                 "samples": samples,
                                                 "seed": int(seed)}


@dataclass
class Tp1Report:
    verdict: bool
    partition: Partition | None
    r_used: int
    k: int
    bessel: float
    delta_target: float
    per_block_delta: list
    mass_bound: float
    flags: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "verdict": bool(self.verdict),
            "partition": self.partition.to_json() if self.partition else None,
            "r_used": self.r_used, "k": self.k, "bessel": self.bessel,
            "delta_target": self.delta_target,
            "per_block_delta": list(self.per_block_delta),
            "mass_bound": self.mass_bound, "flags": dict(self.flags),
        }


def tp1_partition(fr, s, delta, seed=0, r_max=64, tol=DEFAULT_TOL):
    """Partition a unit-norm family into blocks of restricted isometry
    constant at most delta (for sparsity s).

    Row masses of the squared inner-product matrix are balanced with
    wkhb_partition at geometrically growing block counts until every
    in-block row mass drops below B / k, where k = ceil(B s / delta^2);
    then sqrt(s * max_mass) <= sqrt(B s / k) <= delta bounds each block's
    deviation.  Every block is re-verified with the brute-force oracle.
    """
    _unit_norm_guard(fr, tol)
    if not (0.0 < delta < 1.0):
        raise ContractViolation("delta must lie in (0, 1)")
    if s < 1:
        raise ContractViolation("need s >= 1")
    g = gram_matrix(fr)
    gw = np.linalg.eigvalsh(0.5 * (g + g.conj().T))
    bessel = float(max(gw[-1], 1.0))
    k = max(1, math.ceil(bessel * s / (delta * delta)))
    mass_bound = bessel / k
    h = np.abs(g) ** 2
    h = 0.5 * (h + h.T)   # BLAS products need not be bitwise Hermitian
    np.fill_diagonal(h, 0.0)
    r = 2
    flags = {"seed": int(seed), "escalations": []}
    while r <= r_max:
        res = wkhb_partition(h, r, seed=seed)
        max_mass = float(res["in_block_mass"].max()) if fr.M else 0.0
        flags["escalations"].append({"r": r, "max_mass": max_mass})
        if max_mass <= mass_bound + 1e-12:
            part = res["partition"].canonical()
            per = []
            ok = True
            for blk in part.blocks():
                sub = Frame(fr.synthesis[:, blk])
                d, _ = restricted_isometry(sub, min(s, len(blk)), tol)
                per.append(d)
                ok = ok and d <= delta + 1e-9
            if ok:
                return Tp1Report(True, part, r, k, bessel, delta, per,
                                 mass_bound, flags)
            flags["escalations"][-1]["verified"] = False
        r *= 2
    return Tp1Report(False, None, 0, k, bessel, delta, [], mass_bound,
                     dict(flags, exhausted=True))


def rado_horn_check(fr, r, tol=DEFAULT_TOL):
    """Test |J| <= r * dim span(J) for every nonempty index subset.

    Returns (ok, worst) with the subset maximizing |J| / rank as witness.
    """
    if r < 1:
        raise ContractViolation("need r >= 1")
    m = fr.M
    if m > RADO_HORN_INDEX_MAX:
        raise BudgetExceeded(
            f"rado_horn_check is capped at {RADO_HORN_INDEX_MAX} indices")
    worst = None
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(m), size):
            rank = numeric_rank(fr.synthesis[:, subset], tol)
            ratio = math.inf if rank == 0 else size / rank
            if worst is None or ratio > worst["ratio"]:
                worst = {"subset": list(subset), "size": size, "rank": rank,
                         "ratio": ratio}
    ok = worst["ratio"] <= r + 1e-12
    return ok, worst


def _independent(fr, cache, blk, tol):
    key = frozenset(blk)
    if key not in cache:
        if not key:
            cache[key] = True
        else:
            cols = sorted(key)
            cache[key] = numeric_rank(fr.synthesis[:, cols], tol) == len(cols)
    return cache[key]


def rado_horn_partition(fr, r, tol=DEFAULT_TOL):
    """Partition indices into at most r linearly independent blocks.

    Augmenting exchange chains over the linear matroid of the columns:
    to place a vector, search breadth-first for a chain of single-element
    evictions ending at a block that accepts its last element outright.
    Infeasible inputs raise with a violating subset (the set of elements
    reachable in the exchange search).
    """
    if r < 1:
        raise ContractViolation("need r >= 1")
    m = fr.M
    blocks = [[] for _ in range(r)]
    where = {}
    cache = {}

    def indep(blk):
        return _independent(fr, cache, blk, tol)

    for e in range(m):
        parent = {e: None}        # element -> (displacer, block it vacates)
        queue = [e]
        terminal = None
        while queue and terminal is None:
            x = queue.pop(0)
            for b in range(r):
                blk = blocks[b]
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
            raise ContractViolation(
                f"no partition into {r} independent blocks; "
                f"violating subset {sorted(parent)}")
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
        for blk in blocks:
            if not indep(blk):
                raise ContractViolation("exchange chain broke independence")
    used = [blk for blk in blocks if blk]
    return Partition.from_blocks(used, M=m)


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
        if np.abs(self.basis.conj().T @ self.basis - np.eye(n)).max() > 1e-8:
            raise ContractViolation("basis columns must be orthonormal")

    @property
    def ambient(self):
        return self.basis.shape[0]

    @property
    def dim(self):
        return self.basis.shape[1]

    def projector(self):
        return self.basis @ self.basis.conj().T

    @classmethod
    def from_span(cls, vectors, tol=DEFAULT_TOL):
        """Orthonormalize a spanning set (columns) into a Subspace."""
        a = ensure_matrix(vectors, "spanning set")
        q, s, _ = np.linalg.svd(a, full_matrices=False)
        r = numeric_rank(a, tol)
        if r == 0:
            raise ContractViolation("spanning set is numerically zero")
        return cls(q[:, :r])


def is_large(sub, a, tol=DEFAULT_TOL):
    """(ok, min_i ||P e_i||): every coordinate direction keeps length >= a
    under the projection onto the subspace."""
    if a <= 0.0:
        raise ContractViolation("largeness level must be positive")
    row_norms = np.linalg.norm(sub.basis, axis=1)  # ||P e_i|| = ||basis row i||
    mn = float(row_norms.min())
    return mn >= a - tol.check_tol, mn


def is_r_decomposable(sub, p, tol=DEFAULT_TOL):
    """(ok, per-block ranks): each block of coordinates must be fully
    reachable, i.e. the block rows of the basis have full row rank."""
    if p.M != sub.ambient:
        raise ContractViolation("partition must cover the ambient coordinates")
    ranks = []
    ok = True
    for blk in p.blocks():
        rk = numeric_rank(sub.basis[blk, :], tol) if blk else 0
        ranks.append(rk)
        ok = ok and rk == len(blk)
    return ok, ranks


def decomposition_vectors(sub, p, tol=DEFAULT_TOL):
    """For each block E and each i in E, the minimum-norm h in the subspace
    with h(i) = 1 and h(l) = 0 for the other l in E.

    h - e_i is then supported off E.  The minimum-norm solution is the one
    in the range of the adjoint of the block coordinate map, where the
    coordinate map is injective; blocks of size dim(H) pin h down uniquely
    in all of H.  Returns one dict per block with the solved vectors as
    columns and the Bessel bound of the off-block parts {h - e_i}.
    """
    ok, ranks = is_r_decomposable(sub, p, tol)
    if not ok:
        raise ContractViolation(f"subspace is not decomposable: ranks {ranks}")
    v = sub.basis
    out = []
    for blk in p.blocks():
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
