"""Numeric substrate shared by every other module.

Vectors are columns of plain numpy arrays.  A "synthesis matrix" is the
n x M array whose column i is the i-th vector of a family; everything
downstream (frame operators, Gram matrices, block compressions) is an
ordinary matrix product away.  This module owns the boundary checks
(finite entries, Hermitian symmetry, shape sanity), the eigen/rank
primitives (every subset scan cuts its stacks with index_stacks and prices
them with stack_spectra, stack_norms or subset_ranks, where cheap bounds
cannot decide: spanning, hyperplane_flats; the scans of erasure, ric and
phase take their subsets from combination_table and prove thresholds on
whole stacks with stack_clears' Cholesky certificate), partitions as
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


# Most bytes stacked for one batched eigvalsh, svd or stack_clears call, a
# constant so a scan's memory stays flat however many subsets it visits.
BLOCK_STACK_BYTES = 256 * 1024

# Rows a threshold descent prices first, per end, before stack_clears runs.
FEW_PRICED = 4


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


def combination_table(m, k):
    """The k-subsets of range(m) as a (C(m, k), k) intp array, in
    itertools.combinations order.  Built by recurrence on k: the j-subsets
    with first member a are a followed by the (j - 1)-subsets of
    range(a + 1, m), which are the last C(m - a - 1, j - 1) rows of the
    (j - 1)-table, in order."""
    table, binom = np.zeros((1, 0), dtype=np.intp), np.ones(m, dtype=np.intp)
    for j in range(1, k + 1):
        counts = binom[::-1]                # C(m - a - 1, j - 1) by a
        ends = np.cumsum(counts)
        first = np.repeat(np.arange(m), counts)
        out = np.empty((len(first), j), dtype=np.intp)
        out[:, 0] = first
        out[:, 1:] = table[np.arange(len(out)) + (len(table) - ends)[first]]
        table, binom = out, np.cumsum(binom) - binom    # C(x, j)
    return table


def combination_ranks(idx, m):
    """The row of each row of the (B, k) index array idx, ascending rows,
    in combination_table(m, k): C(m, k) - 1 - sum_i C(m - 1 - c_i, k - i)
    for the row c_0 < ... < c_(k-1)."""
    k = idx.shape[1]
    binom = np.zeros((m, k + 1), dtype=np.intp)
    binom[:, 0] = 1
    for j in range(1, k + 1):
        binom[:, j] = np.cumsum(binom[:, j - 1]) - binom[:, j - 1]
    return math.comb(m, k) - 1 - \
        binom[m - 1 - idx, np.arange(k, 0, -1)].sum(axis=1)


def stack_clears(blocks, theta):
    """Whether lambda_min(B) > theta for each B of the (n, n, R) stack
    blocks, rows last, theta a scalar or one per row: the certified
    threshold kernel of the subset scans.  It overwrites blocks and reads
    only their lower triangles, each B the Hermitian matrix of its own,
    diagonal read as real; lambda_max(B) < theta is -B cleared at -theta.

    A row clears where the Cholesky factorization of K = B - t I, n
    column steps over the whole stack, meets only finite positive pivots
    (a non-finite entry makes a later pivot non-finite).  With u = eps / 2,
    gamma_k = k u / (1 - k u), g_k = gamma_k / (1 - gamma_k) and tiny the
    least normal float:
    - t is theta + s rounded, then one float up, so t > theta + s;
    - each fl(b_jj - t) errs by at most u, so K = B - t I + E with ||E||
      <= 2 u tr K, as a positive pivot needs a positive K_jj;
    - a factorization that runs to completion has backward error at most
      gamma_(n+1) |R*| |R| (Demmel; gamma_(n+3) for complex rows, a
      complex product erring by at most sqrt(2) gamma_2 < gamma_3), whose
      norm Rump (Verification of positive definiteness, BIT 2006) bounds
      by g_(n+1) tr K plus an underflow term below 4 n (2 (n + 1) +
      tr K) tiny.
    So lambda_min(B) > theta + s - (g_(n+1) + 2 u) tr K - 16 n (n + 1 +
    tr K) tiny, where tr K <= w = (1 + g_(n+2)) sum_j max(b_jj - theta,
    0), the sum as computed.  s is that bound's rest, per row, times
    1 + 16 eps for its own rounding, so a row that clears has lambda_min(B)
    above theta.
    """
    n = blocks.shape[0]
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny

    def g(k):
        gamma = k * eps / 2 / (1 - k * eps / 2)
        return gamma / (1 - gamma)

    diag = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w = (1 + g(n + 2)) * np.maximum(blocks[diag, diag].real - theta,
                                        0.0).sum(axis=0)
        shift = ((g(n + 3 if np.iscomplexobj(blocks) else n + 1) + eps) * w
                 + 16 * n * (n + 1 + w) * tiny) * (1 + 16 * eps)
        blocks[diag, diag] -= np.nextafter(theta + shift, np.inf)
        for j in range(n - 1):
            col = blocks[j + 1:, j] / np.sqrt(blocks[j, j].real)
            blocks[j + 1:, j + 1:] -= col[:, None] * col.conj()[None, :]
        pivots = blocks[diag, diag].real
        return ((pivots > 0.0) & (pivots < np.inf)).all(axis=0)


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
    of the real n x M array t, by stack_clears on each stack of Gram
    blocks; False, which proves nothing, at the first that fails a row.

    t is scaled by the power of two 2^-e that brings its largest |entry|
    into [1/2, 1), so no product overflows, and the cut with it: c =
    cut 2^-e is exact, as it stays normal.  The scaling moves an entry of
    T only below the normal range, by under tiny eps, tiny the least
    normal float, so sigma_n(T_A) >= c + n tiny proves the claim.  Each
    entry of the computed Gram matrix G~ = T^T T is a dot product of n
    terms, so with u = eps / 2, gamma_n = n u / (1 - n u) and W = n
    max_i G~_ii >= tr G~_A, ||G~_A - G_A|| <= gamma_n tr G_A <= W gamma_n /
    (1 - gamma_n), plus 2 n^2 tiny with underflow.  So lambda_min(G~_A)
    above (c + n tiny)^2 plus those terms, times 1 + 16 eps for the
    rounding of their sum, proves the claim.
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
    gamma = n * eps / 2 / (1 - n * eps / 2)
    theta = ((math.ldexp(float(cut), -e) + n * tiny) ** 2 +
             gamma / (1 - gamma) * w +      # the Gram products
             2 * n * n * tiny) * (1 + 16 * eps)
    for idx in index_stacks(combination_table(m, n),
                            lambda k: t.itemsize * k * k):
        if not stack_clears(gram[idx.T[:, None], idx.T[None, :]],
                            theta).all():
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
