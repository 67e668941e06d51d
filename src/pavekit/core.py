"""Numeric substrate shared by every other module.

Vectors are columns of plain numpy arrays.  A "synthesis matrix" is the
n x M array whose column i is the i-th vector of a family; everything
downstream (frame operators, Gram matrices, block compressions) is an
ordinary matrix product away.  This module owns the boundary checks
(finite entries, Hermitian symmetry, shape sanity), the eigen/rank
primitives (every subset scan cuts its stacks with index_stacks and prices
them with stack_spectra, stack_norms or subset_ranks, where cheap bounds
cannot decide: bound_first_scan, spanning, hyperplane_flats; or proves a
threshold on every basis by Cholesky: every_basis_clears), partitions as
block lists, their enumeration in restricted-growth order, the seeded
generators, and the JSON wire formats: values as base64 of
little-endian float64, every bit kept, or as the [re, im] pairs still read.
"""

from __future__ import annotations

import base64
import itertools
import math
from dataclasses import dataclass

import numpy as np

# Hard combinatorial budgets, in units of work: past one, a search raises
# BudgetExceeded rather than run on without bound.
EXHAUSTIVE_INDEX_MAX = 14          # most indices a walk takes (2^M memo)
PARTITION_BUDGET = 10**7           # most placements of one partition search
SUBSET_BUDGET = 10**6              # most subsets any exhaustive scan may visit
LOCAL_MOVE_BUDGET = 2000           # most accepted moves of one local search
WKHB_MOVE_BUDGET = 10**6           # most moves of one wkhb_partition
ENTRY_BUDGET = 2**22               # most entries of a built matrix or grid

# Absolute slack of every "achieved <= target" verdict.  Producers and
# verify() share it through within(), so a report always passes its own
# re-check when the recomputed value matches the stored one bit for bit.
VERDICT_SLACK = 1e-12


class ContractViolation(ValueError):
    """Input falls outside an operation's stated contract."""


class BudgetExceeded(RuntimeError):
    """The requested search would exceed its combinatorial budget."""


# Numeric slack: constants, so every report re-verifies against the slack
# that made it.
EIG_TOL = 1e-9      # eigen-residuals, relative to the matrix norm
RANK_TOL = 1e-10    # numeric-rank cutoff, relative to the top singular value
CHECK_TOL = 1e-8    # yes/no predicates: Parseval, tight, equal- and unit-norm,
                    # Hermitian, projection, orthonormal basis, block solve


def check_entries(count, what):
    """Raise BudgetExceeded when count entries exceed ENTRY_BUDGET: called
    before a generator or a product allocates count entries."""
    if count > ENTRY_BUDGET:
        raise BudgetExceeded(f"{what} of {count} entries exceeds the "
                             f"{ENTRY_BUDGET} entry budget")


def within(achieved, target):
    """The verdict comparator: achieved <= target up to VERDICT_SLACK."""
    return achieved <= target + VERDICT_SLACK


def in_range(bounds, lo_target, hi_target):
    """The two-sided verdict comparator: whether bounds (lo, hi) lie in
    [lo_target, hi_target] up to within's slack; hi_target None leaves the
    range open above."""
    lo, hi = bounds
    return within(lo_target, lo) and (hi_target is None or
                                      within(hi, hi_target))


# ---------------------------------------------------------------------------
# matrix boundary checks and primitives
# ---------------------------------------------------------------------------

def ensure_matrix(m, name="matrix"):
    """Coerce to a 2-d float64/complex128 array with finite entries."""
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ContractViolation(f"{name} must be 2-d and nonempty, got shape {a.shape}")
    if np.iscomplexobj(a):
        a = a.astype(np.complex128, copy=False)
    else:
        a = a.astype(np.float64, copy=False)
    if not np.all(np.isfinite(a)):
        raise ContractViolation(f"{name} has non-finite entries")
    return a


def is_hermitian(m):
    m = ensure_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    scale = 1.0 + np.abs(m).max()
    return np.abs(m - m.conj().T).max() <= CHECK_TOL * scale


def ensure_projection(p):
    """p if it is an orthogonal projection, up to CHECK_TOL * (1 + max|p|)."""
    p = ensure_matrix(p, "projection")
    slack = CHECK_TOL * (1.0 + np.abs(p).max())
    with np.errstate(over="ignore", invalid="ignore"):  # p @ p of a huge p
        if p.shape[0] != p.shape[1] or np.abs(p @ p - p).max() > slack or \
                np.abs(p - p.conj().T).max() > slack:
            raise ContractViolation("matrix is not an orthogonal projection")
    return p


def ensure_unit_norm(fr):
    """Raise unless every vector of fr has norm one up to CHECK_TOL."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf for huge ones
        norms = np.linalg.norm(fr.synthesis, axis=0)
    if np.abs(norms - 1.0).max() > CHECK_TOL:
        raise ContractViolation("the family needs unit-norm vectors")


def sym_eig(m):
    """Full eigendecomposition of a Hermitian matrix.

    Returns (w, V) with w ascending and columns of V orthonormal, and
    guarantees the reconstruction residual ||M v - w v|| <= EIG_TOL * ||M||
    for every pair.  Backed by LAPACK through numpy.linalg.eigh; the
    residual guarantee is asserted, not assumed.
    """
    m = ensure_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ContractViolation("sym_eig needs a square matrix")
    if not is_hermitian(m):
        raise ContractViolation("sym_eig needs a Hermitian matrix")
    h = 0.5 * (m + m.conj().T)  # symmetrize away roundoff before factoring
    w, v = np.linalg.eigh(h)
    scale = max(1.0, float(np.abs(w).max()) if w.size else 1.0)
    resid = np.abs(h @ v - v * w).max()
    if resid > EIG_TOL * scale:
        raise ContractViolation(f"eigen residual {resid:.3e} exceeds tolerance")
    return w, v


# Most bytes stacked for one batched eigvalsh or svd call, a constant so a
# scan's memory stays flat however many subsets it visits.
BLOCK_STACK_BYTES = 256 * 1024


def index_stacks(subsets, row_bytes):
    """subsets, read lazily, as (B, k) intp index arrays in input order:
    each run of same-size subsets cut into stacks of at most
    BLOCK_STACK_BYTES // row_bytes(k) rows (at least 1).  Every subset scan
    cuts its LAPACK stacks here, with its own bytes per row.  A (B, k)
    array is one run, cut by slicing."""
    if isinstance(subsets, np.ndarray):
        k = subsets.shape[1]
        rows = max(1, BLOCK_STACK_BYTES // max(row_bytes(k), 1))
        for a in range(0, len(subsets), rows):
            yield subsets[a:a + rows]
        return
    for k, run in itertools.groupby(subsets, len):
        rows = max(1, BLOCK_STACK_BYTES // max(row_bytes(k), 1))
        while chunk := list(itertools.islice(run, rows)):
            yield np.array(chunk, dtype=np.intp).reshape(len(chunk), k)


def stack_spectra(a, idx, frame=False):
    """Ascending eigenvalues of the block of a at each row S of the (B, k)
    index array idx: the symmetrized principal block a[S, S], or with
    frame=True the partial frame operator a[:, S] a[:, S]*, not
    symmetrized.  One eigvalsh gives each block the bits a lone eigvalsh
    would; the caller cuts idx with index_stacks."""
    if frame:
        t = a[:, idx].transpose(1, 0, 2)
        return np.linalg.eigvalsh(t @ t.conj().transpose(0, 2, 1))
    sub = a[idx[..., :, None], idx[..., None, :]]
    return np.linalg.eigvalsh(0.5 * (sub + np.swapaxes(sub.conj(), -1, -2)))


def bound_first_scan(m, sizes, bounds, bound_bytes, price, price_bytes,
                     top=False):
    """(least, first, greatest) of price over the subsets of range(m) of
    each size in sizes, in itertools.combinations order, as a full scan
    finds them: the least price, the first subset (a list) with that
    price, and with top the greatest price (else None).

    price(idx) prices the rows of a (B, k) index array, each with the bits
    it would get alone, and bounds(idx) gives each row bounds (lo, hi) on
    that computed price, the caller's rounding margin folded in; a bound
    that is not finite counts as none, so its row is priced.  Both read
    stacks cut by index_stacks, with bound_bytes(k) and price_bytes(k)
    bytes per row.

    Each stack is bounded as it is read, and a row stays live only while
    it may still change the answer: for the least, lo at most the least hi
    seen (a row above it prices more than the row with that hi) and at
    most the least price known, equal only at an earlier row; with top, hi
    at least the greatest lo seen and above the greatest price known.
    When the stacks held before the newest still take more bytes than the
    largest bound stack once their dead rows are dropped, and at the end,
    the held rows are settled: the live row of least lo (with top, also
    that of greatest hi) is priced first, as the likeliest to decide the
    rest, then every row still live.  A row never priced cannot be the
    first least nor, with top, raise the greatest, so the answer is the
    full scan's, bit for bit, ties included.  Held stacks keep their size
    and flag their dead rows: arrays cut down to the live rows would take
    sizes that vary with the input's values, and such small allocations
    fragment the heap.

    The bounds pay only where they rule out most rows: where values tie or
    the bounds are loose, they add their own cost to a full scan's.  So a
    settle that has to price more than half of the rows bounded since the
    last ends the bounding of their size, and the rest of that size is
    priced as the full scan prices it.  A scan that fits in one settle,
    about BLOCK_STACK_BYTES / (25 + 8 k) subsets of size k, pays the
    bounds whatever they rule out.
    """
    least, first, at, greatest = math.inf, None, -1, -math.inf
    cap, floor, room, held, start = math.inf, -math.inf, 0, [], 0
    bounded, plain = 0, set()

    def take(pos, subsets):
        nonlocal least, first, at, greatest
        for rows in index_stacks(subsets, price_bytes):
            val, here, pos = price(rows), pos[:len(rows)], pos[len(rows):]
            i = int(np.argmin(val))     # first occurrence, as a scan finds
            if val[i] < least or val[i] == least and here[i] < at:
                least, first, at = float(val[i]), rows[i].tolist(), here[i]
            greatest = max(greatest, float(val.max()))

    def prune(piece):
        """Clear, in place, the live flag of each row of a held stack that
        can no longer change the answer; whether any row is left."""
        pos, _, lo, hi, live = piece
        wanted = (lo <= cap) & ((lo < least) | (lo == least) & (pos < at))
        if top:
            wanted |= (hi >= floor) & (hi > greatest)
        live &= wanted
        return live.any()

    def end(col, fill, pick):
        """(position, subset) of the live held row whose bound in column
        col pick, np.argmin or np.argmax, selects."""
        vals = [np.where(p[4], p[col], fill) for p in held]
        j = int(pick([v[pick(v)] for v in vals]))
        i = int(pick(vals[j]))
        return int(held[j][0][i]), held[j][1][i].tolist()

    def settle():
        """Price the live held rows, the ends first; how many were priced."""
        held[:] = [piece for piece in held if prune(piece)]
        if not held:
            return 0
        ends = dict([end(2, np.inf, np.argmin)] +
                    ([end(3, -np.inf, np.argmax)] if top else []))
        done = sorted(ends)
        take(np.array(done), [ends[i] for i in done])
        rest = [(p[0][keep], p[1][keep]) for p in held if prune(p)
                for keep in [p[4] & (p[0][:, None] != done).all(axis=1)]]
        for _, run in itertools.groupby(rest, lambda q: q[1].shape[1]):
            pos, rows = zip(*run)
            take(np.concatenate(pos), np.concatenate(rows))
        held.clear()
        return len(done) + sum(len(q[0]) for q in rest)

    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(m), k) for k in sizes)
    for idx in index_stacks(subsets, bound_bytes):
        k, pos = idx.shape[1], start + np.arange(len(idx))
        start += len(idx)
        if k in plain:
            take(pos, idx)
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            lo, hi = bounds(idx)
        lo = np.where(np.isfinite(lo), lo, -np.inf)
        hi = np.where(np.isfinite(hi), hi, np.inf)
        cap, floor = min(cap, hi.min()), max(floor, lo.max())
        room = max(room, len(idx) * bound_bytes(k))
        bounded += len(idx)
        new = (pos, idx, lo, hi, np.ones(len(idx), dtype=bool))
        if prune(new):
            held.append(new)
        if sum(a.nbytes for piece in held[:-1] for a in piece) > room:
            held[:] = [piece for piece in held if prune(piece)]
            if sum(a.nbytes for piece in held[:-1] for a in piece) > room:
                if 2 * settle() > bounded:
                    plain.add(k)
                bounded = 0
    settle()
    return least, first, greatest if top else None


def stack_norms(a, idx):
    """operator_norm of each block a[S, S] for the rows S of the (B, k)
    index array idx, bit for bit, from one unchecked svd."""
    sub = a[idx[:, :, None], idx[:, None, :]]
    return np.linalg.svd(sub, compute_uv=False)[:, 0]


def operator_norm(m):
    """Largest singular value."""
    m = ensure_matrix(m)
    return float(np.linalg.norm(m, 2))


def numeric_rank(m):
    """subset_ranks of all of m's columns."""
    m = ensure_matrix(m)
    return int(subset_ranks(m, [range(m.shape[1])])[0])


def scaled_norm(t, axis=None):
    """np.linalg.norm(t, axis=axis) of t divided first by its largest
    |entry| (along axis), so that no square underflows or overflows; inf
    only where the norm itself passes float64's range."""
    a = np.abs(t).max(axis=axis, keepdims=True, initial=0.0)
    a = np.where(a > 0.0, a, 1.0)
    with np.errstate(over="ignore"):
        return (a * np.linalg.norm(t / a, axis=axis, keepdims=True)
                ).squeeze(axis)


def subset_ranks(t, subsets):
    """Numeric rank of each t[:, S] (0 for an empty S), as one int array:
    the count of singular values above RANK_TOL * sigma_max * max(rows,
    cols).  One svd per index_stacks stack; each matrix still gets the
    bits a lone svd would."""
    n, ranks = t.shape[0], [np.zeros(0, dtype=np.intp)]
    for idx in index_stacks(subsets, lambda k: t.itemsize * n * k):
        s = np.linalg.svd(t[:, idx].transpose(1, 0, 2), compute_uv=False)
        ranks.append(np.sum(s > RANK_TOL * s[:, :1] * max(n, idx.shape[1]), 1))
    return np.concatenate(ranks)


def basis_cut(t):
    """The sigma_n that an n-column basis of the n x M array t must clear
    to certify every superset as spanning under subset_ranks' cutoff:
    2 (RANK_TOL max(n, M) (1 + err) + 2 err) ||t||_F plus the least normal
    float, err = 64 n eps (see spanning); inf near float64's top."""
    n, m = t.shape
    err, tiny = 64 * n * np.finfo(t.dtype).eps, np.finfo(t.dtype).tiny
    with np.errstate(over="ignore"):
        return 2.0 * (RANK_TOL * max(n, m) * (1.0 + err) + 2.0 * err) * \
            scaled_norm(t) + tiny


def spanning(t, subsets):
    """Whether subset_ranks gives each t[:, S] the full rank n of the n x M
    array t, as one bool array, most of it from a basis certificate.

    S of n or more members spans where the computed sigma_n of its first n
    members clears 2 (RANK_TOL max(n, M) (1 + err) + 2 err) ||t||_F plus
    the least normal float, err = 64 n eps.  Adding columns never lowers
    sigma_n, ||t||_F bounds every sigma_1, and LAPACK's sigmas err by at
    most err sigma_1 while they stay normal, so then S's computed sigma_n
    clears subset_ranks' cutoff RANK_TOL sigma_1 max(n, |S|).  ||t||_F is
    taken by scaled_norm, since the squares of a tiny t underflow to a
    norm and a cut of 0.  One svd per index_stacks stack prices the
    distinct heads, and each S they leave undecided goes to subset_ranks
    itself, so every answer is the one it would give.
    """
    n, subsets, cut = t.shape[0], [tuple(s) for s in subsets], basis_cut(t)
    heads = dict.fromkeys(s[:n] for s in subsets if len(s) >= n)
    for idx in index_stacks(list(heads), lambda k: t.itemsize * n * k):
        sig = np.linalg.svd(t[:, idx].transpose(1, 0, 2), compute_uv=False)
        heads.update(zip(map(tuple, idx.tolist()), sig[:, -1] > cut))
    out = np.array([len(s) >= n and bool(heads[s[:n]]) for s in subsets],
                   dtype=bool)
    rest = [i for i, s in enumerate(subsets) if len(s) >= n and not out[i]]
    if rest:
        out[rest] = subset_ranks(t, [subsets[i] for i in rest]) == n
    return out


def every_basis_clears(t, cut):
    """Whether sigma_n(t[:, A]) > cut for every n-subset A of the columns
    of the real n x M array t, proved by one Cholesky factorization per
    index_stacks stack of shifted Gram blocks G_A - s I; False, which
    proves nothing, at the first stack that does not factor.

    t is scaled by the power of two 2^-e that brings its largest |entry|
    into [1/2, 1), so no product overflows, and the cut with it: c =
    cut 2^-e is exact, as it stays normal.  The scaling moves an entry of
    T only where it falls below the normal range, by under tiny eps, tiny
    the least normal float, so sigma_n(T_A) >= c + n tiny proves the
    claim.  With u = eps / 2, gamma_k = k u / (1 - k u), g_k = gamma_k /
    (1 - gamma_k), G~ the computed Gram matrix T^T T, whose entries are
    dot products of n terms, and W = n max_i G~_ii >= tr G~_A:
    - ||G~_A - G_A|| <= gamma_n || |T_A|^T |T_A| || <= gamma_n tr G_A,
      so at most g_n W + 2 n^2 tiny with underflow;
    - H = G~_A - s I rounds each diagonal entry by at most u (W + s);
    - where the Cholesky factorization of H runs to completion, its
      backward error is at most gamma_(n+1) |R^T| |R| (Demmel), whose norm
      Rump (Verification of positive definiteness, BIT 2006) bounds by
      g_(n+1) tr H <= g_(n+1) W, plus an underflow term below
      4 n (2 (n + 1) + W) tiny; so lambda_min(H) is above minus that.
    Hence lambda_min(G_A) > s (1 - u) - (g_n + g_(n+1) + u) W
    - 16 n (n + 1 + W) tiny, and s makes that (c + n tiny)^2, with a
    factor 1 + 16 eps over the rounding of s's own sum.
    """
    n, m = t.shape
    eps, tiny = np.finfo(t.dtype).eps, np.finfo(t.dtype).tiny
    top = float(np.abs(t).max())
    if not (top > 0.0 and np.isfinite(cut)):
        return False
    e = math.frexp(top)[1]
    ts = np.ldexp(t, -e)
    gram = ts.T @ ts
    w = n * float(np.diagonal(gram).max())

    def g(k):
        gamma = k * eps / 2 / (1 - k * eps / 2)
        return gamma / (1 - gamma)

    shift = ((math.ldexp(float(cut), -e) + n * tiny) ** 2 +
             g(n) * w +               # the Gram products
             g(n + 1) * w +           # Rump's term for the Cholesky
             eps / 2 * w +            # the shift's own subtraction
             16 * n * (n + 1 + w) * tiny) * (1 + 16 * eps)
    diag = np.arange(n)
    for idx in index_stacks(itertools.combinations(range(m), n),
                            lambda k: 2 * t.itemsize * k * k):
        blocks = gram[idx[:, :, None], idx[:, None, :]]
        blocks[:, diag, diag] -= shift
        try:
            np.linalg.cholesky(blocks)
        except np.linalg.LinAlgError:
            return False
    return True


def hyperplane_flats(t, subsets):
    """(good, rows) for the (n - 1)-subsets S of the n x M array t: good
    says which S subset_ranks gives rank n - 1, and rows holds, for those
    S in order, the (G, M) rows "subset_ranks gives [S, f_i] rank n - 1".

    One svd with U per call decides both.  S has rank n - 1 where its
    sigma_(n-1) clears the cutoff RANK_TOL * n * sigma_max by a factor of 2
    after LAPACK's rounding (err * sigma_max), and rank below n - 1 where
    it lies under half the cutoff; U's last column is the unit normal nu of
    each span S of rank n - 1, and one product nu @ t its distance
    |nu . f_i| to each vector.  For A = [S, f_i], sigma_n(A) <= |nu . f_i|
    and, from |det A| = |nu . f_i| prod sigma(S), sigma_n(A) >=
    |nu . f_i| prod sigma(S) / sigma_max(A)^(n - 1), while sigma_(n-1)(A)
    >= sigma_(n-1)(S) by interlacing.  A flat test is decided from these
    bounds only where they clear subset_ranks' cutoff RANK_TOL * n *
    sigma_max(A) by a factor of 2 after rounding and the error of the
    computed normal (err * |f_i| sigma_max(S) / sigma_(n-1)(S)).  Each
    rounding term also carries the least normal float, since sigmas that
    are subnormal lose more than err of their value, and |f_i| is taken
    by scaled_norm, since the squares of tiny columns underflow.  Either
    band between goes to subset_ranks itself, so every answer is the one it
    would give.  With n = 1, S is empty, of rank 0, and U is 1 x 1, so the
    bounds read |f_i| alone.
    """
    n, m = t.shape
    err, tol = 64 * n * np.finfo(t.dtype).eps, RANK_TOL * n
    tiny = np.finfo(t.dtype).tiny
    idx = np.array(subsets, dtype=np.intp).reshape(len(subsets), n - 1)
    u, s, _ = np.linalg.svd(t[:, idx].transpose(1, 0, 2))
    smax = s.max(axis=1, initial=0.0)
    smin = s.min(axis=1, initial=np.inf)             # inf when n = 1
    good = smin - err * smax - tiny > 2.0 * tol * smax * (1.0 + err)
    band = ~good & ~(2.0 * (smin + err * smax + tiny) <=
                     tol * smax * (1.0 - err))
    if band.any():
        good[band] = subset_ranks(t, idx[band]) == n - 1
    idx, u, s = idx[good], u[good], s[good]
    smax, smin = smax[good, None], smin[good, None]  # (G, 1)
    es = err * smax + tiny
    # values near float64's top are inf and make NaN bounds: those go to
    # the band
    with np.errstate(over="ignore", invalid="ignore"):
        norms = scaled_norm(t, axis=0)               # (M,)
        dist = np.abs(u[:, :, -1] @ t)               # (G, M)
        dist_err = err * norms * (1.0 + smax / (smin - es))
        amax_hi = np.hypot(smax, norms) * (1.0 + err)  # >= sigma_max(A)
        ea = err * amax_hi + tiny
        cut_lo = tol * (np.maximum(smax, norms) - 2.0 * ea)
        cut_hi = tol * (amax_hi + ea)
        shrink = np.prod(np.maximum(s - es, 0.0)[:, None, :] /
                         amax_hi[..., None], axis=2)
        low = np.maximum(dist - dist_err, 0.0) * shrink - ea
        inside = (2.0 * (dist + dist_err + ea) <= cut_lo) & \
            (smin - es - ea >= 2.0 * cut_hi)
        band = np.argwhere(~(inside | (low > 2.0 * cut_hi)))
    if band.size:
        inside[band[:, 0], band[:, 1]] = subset_ranks(
            t, np.column_stack((idx[band[:, 0]], band[:, 1]))) == n - 1
    return good, inside


# ---------------------------------------------------------------------------
# partitions as block lists
# ---------------------------------------------------------------------------

# A partition of {0..M-1} is the list of blocks a report stores: nonempty
# ascending index lists, which the searches give in order of first index.

def label_blocks(labels):
    """The nonempty blocks of a labelling, index i in the block labelled
    labels[i], in order of first appearance."""
    blocks = {}
    for i, b in enumerate(labels):
        blocks.setdefault(b, []).append(i)
    return list(blocks.values())


def check_blocks(blocks, m):
    """A partition from outside, each block sorted and the block order
    kept: blocks must be a list of nonempty lists of integer indices, not
    bools, that cover 0..m-1 exactly once."""
    if type(blocks) is not list or \
            not all(type(blk) is list and blk for blk in blocks):
        raise ContractViolation("a partition must be a list of nonempty "
                                "index lists")
    for i in itertools.chain.from_iterable(blocks):
        if type(i) is bool or not isinstance(i, (int, np.integer)):
            raise ContractViolation(f"index {i!r} is not an integer")
    blocks = [sorted(map(int, blk)) for blk in blocks]
    if sorted(itertools.chain.from_iterable(blocks)) != list(range(m)):
        raise ContractViolation(f"blocks must cover 0..{m - 1} exactly once")
    return blocks


def enumerate_partitions(M, r):
    """Yield the blocks of each partition of {0..M-1} into at most r blocks
    exactly once.

    Canonical restricted-growth strings: label[0] = 0 and each later label
    is at most one past the running maximum, capped at r - 1.
    """
    if M < 1 or r < 1:
        raise ContractViolation("enumerate_partitions needs M >= 1, r >= 1")
    labels = [0] * M

    def rec(i, top):
        if i == M:
            yield label_blocks(labels)
            return
        for b in range(min(top + 1, r - 1) + 1):
            labels[i] = b
            yield from rec(i + 1, max(top, b))

    yield from rec(1, 0)


# ---------------------------------------------------------------------------
# frames as synthesis matrices
# ---------------------------------------------------------------------------

@dataclass
class Frame:
    """A finite vector family: column i of synthesis is the i-th vector."""

    synthesis: np.ndarray

    def __post_init__(self):
        self.synthesis = ensure_matrix(self.synthesis, "synthesis")

    @property
    def n(self):
        return self.synthesis.shape[0]

    @property
    def M(self):
        return self.synthesis.shape[1]


def gen_random_unit_frame(n, M, seed, field="real"):
    """Seeded Gaussian columns normalized to unit length.

    M < n is permitted: the family then spans a proper subspace.
    """
    if n < 1 or M < 1:
        raise ContractViolation("gen_random_unit_frame needs n >= 1, M >= 1")
    if field not in ("real", "complex"):
        raise ContractViolation("field must be 'real' or 'complex'")
    check_entries(n * M, f"a {n}x{M} frame")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, M))
    if field == "complex":
        a = a + 1j * rng.standard_normal((n, M))
    norms = np.linalg.norm(a, axis=0)
    # a zero column has probability zero; regenerate defensively if seen
    while np.any(norms == 0.0):
        bad = norms == 0.0
        a[:, bad] = rng.standard_normal((n, int(bad.sum())))
        norms = np.linalg.norm(a, axis=0)
    return Frame(a / norms)


def gen_harmonic_frame(n, M):
    """Character columns f_i(k) = exp(2 pi i * i * k / M) / sqrt(n).

    Unit-norm and tight with frame bound M / n; row orthogonality of the
    character table gives the frame operator (M / n) * identity exactly.
    """
    if not (1 <= n <= M):
        raise ContractViolation("gen_harmonic_frame needs 1 <= n <= M")
    check_entries(n * M, f"a {n}x{M} frame")
    k = np.arange(n)[:, None]
    i = np.arange(M)[None, :]
    a = np.exp(2j * np.pi * (k * i) / M) / math.sqrt(n)
    return Frame(a)


def gen_random_projection(M, n, seed):
    """Rank-n orthogonal projection on C^M from a seeded Gaussian QR."""
    if not (1 <= n <= M):
        raise ContractViolation("gen_random_projection needs 1 <= n <= M")
    check_entries(M * M, f"a {M}x{M} projection")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((M, n)) + 1j * rng.standard_normal((M, n))
    q, _ = np.linalg.qr(a)
    return q @ q.conj().T


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------

def _to_base64(v, dtype):
    """The values of v in C order as base64 of little-endian float64, a
    complex value as its re, im pair."""
    data = np.asarray(v, dtype=np.dtype(dtype).newbyteorder("<")).tobytes()
    return base64.b64encode(data).decode("ascii")


def _wire_values(d, pairs, n, real, what):
    """The n values of the wire dict d, held under exactly one of the keys
    pairs, as [re, im] pairs, and "base64", as _to_base64 writes n float64
    values when real, else 2n interleaved re, im.  base64 is read strictly:
    a non-string, a character outside the alphabet (whitespace included),
    bad padding or other than 8 bytes a float64 value is malformed."""
    keys = [k for k in (pairs, "base64") if k in d]
    if len(keys) != 1:
        raise ContractViolation(
            f"{what} JSON needs exactly one of {pairs!r} and 'base64'")
    if keys[0] == pairs:
        return _pairs_to_complex(d[pairs], n, what)
    if type(d["base64"]) is not str:
        raise ContractViolation(f"{what} JSON base64 must be a string")
    try:
        data = base64.b64decode(d["base64"], validate=True)
    except ValueError as exc:       # binascii.Error, or non-ASCII text
        raise ContractViolation(f"malformed {what} base64: {exc}") from None
    count = n if real else 2 * n
    if len(data) != 8 * count:
        raise ContractViolation(f"{what} base64 holds {len(data)} bytes, "
                                f"not the {8 * count} of {count} float64s")
    v = np.frombuffer(data, "<f8").astype(np.float64)
    return v if real else v.view(np.complex128)


def _pairs_to_complex(entries, n, what):
    """Exactly n [re, im] pairs of JSON numbers as a complex128 vector.

    The (n, 2) float64 array is viewed, not recombined as re + 1j * im,
    so every bit survives, signed zeros included.  Booleans, strings,
    bare numbers and pairs of any other length are malformed.
    """
    if type(entries) is not list or len(entries) != n:
        raise ContractViolation(f"{what} JSON needs a list of {n} entries")
    if set(map(type, entries)) <= {list} and set(map(len, entries)) <= {2}:
        numbers = list(itertools.chain.from_iterable(entries))
        if set(map(type, numbers)) <= {int, float}:
            try:
                pairs = np.array(numbers, dtype=np.float64).reshape(n, 2)
            except OverflowError as exc:
                raise ContractViolation(f"malformed {what} entry: {exc}")
            return pairs.view(np.complex128).reshape(n)
    raise ContractViolation(
        f"malformed {what} entry: each must be [re, im] with two numbers")


def matrix_to_json(m):
    """Shape, field and the column-major values as _to_base64 gives them."""
    m = ensure_matrix(m)
    rows, cols = m.shape
    return {"rows": rows, "cols": cols,
            "field": "complex" if np.iscomplexobj(m) else "real",
            "base64": _to_base64(m.T, m.dtype)}


def matrix_from_json(d):
    """The matrix of a wire dict, its column-major values in either wire
    form (_wire_values)."""
    try:
        rows, cols = d["rows"], d["cols"]
        fieldname = d["field"]
    except (KeyError, TypeError) as exc:
        raise ContractViolation(f"malformed matrix JSON: {exc}")
    if type(rows) is not int or type(cols) is not int:
        raise ContractViolation(
            f"malformed matrix JSON: rows {rows!r} and cols {cols!r} must be "
            "integers")
    if fieldname not in ("real", "complex"):
        raise ContractViolation(f"unknown field {fieldname!r}")
    if rows < 1 or cols < 1:
        raise ContractViolation("matrix JSON shape mismatch")
    z = _wire_values(d, "entries", rows * cols, fieldname == "real", "matrix")
    out = np.ascontiguousarray(z.reshape(cols, rows).T)
    if fieldname == "real" and np.iscomplexobj(out):   # the pair form
        if np.abs(out.imag).max() > 0.0:
            raise ContractViolation("real matrix JSON carries imaginary parts")
        out = out.real
    return ensure_matrix(out)


def frame_to_json(fr):
    return matrix_to_json(fr.synthesis)


def frame_from_json(d):
    return Frame(matrix_from_json(d))
