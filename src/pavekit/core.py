"""Numeric substrate shared by every other module.

Vectors are columns of plain numpy arrays.  A "synthesis matrix" is the
n x M array whose column i is the i-th vector of a family; everything
downstream (frame operators, Gram matrices, block compressions) is an
ordinary matrix product away.  This module owns the boundary checks
(finite entries, Hermitian symmetry, shape sanity), the eigen/rank
primitives, partition enumeration in canonical restricted-growth form,
the seeded generators, and the JSON wire formats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

# Hard combinatorial budgets.  Searches check these up front and refuse to
# start work that cannot finish, rather than timing out halfway through.
EXHAUSTIVE_INDEX_MAX = 14          # largest index set for exhaustive paving
PARTITION_BUDGET = 10**7           # most partitions any exhaustive scan may visit
SUBSET_BUDGET = 10**6              # most subsets any exhaustive scan may visit
BIPARTITION_INDEX_MAX = 22         # largest index set for bipartition scans
RIESZ_EXHAUSTIVE_MAX = 12          # exhaustive block-Riesz search cutoff
RADO_HORN_INDEX_MAX = 20

# Absolute slack of every "achieved <= target" verdict.  Producers and
# verify() share it through within(), so a report always passes its own
# re-check when the recomputed value matches the stored one bit for bit.
VERDICT_SLACK = 1e-12


class ContractViolation(ValueError):
    """Input falls outside an operation's stated contract."""


class BudgetExceeded(RuntimeError):
    """The requested search would exceed its combinatorial budget."""


@dataclass(frozen=True)
class Tolerances:
    """Numeric slack used by predicates and decompositions.

    eig_tol bounds accepted eigen-residuals relative to the matrix norm,
    rank_tol is the relative singular-value cutoff for numeric ranks, and
    check_tol is the generic slack for yes/no predicates (Parseval, tight,
    equal-norm, Hermitian, projection).
    """

    eig_tol: float = 1e-9
    rank_tol: float = 1e-10
    check_tol: float = 1e-8

    def __post_init__(self):
        if not (self.eig_tol > 0 and self.rank_tol > 0 and self.check_tol > 0):
            raise ContractViolation("tolerances must be strictly positive")


DEFAULT_TOL = Tolerances()


def within(achieved, target):
    """The verdict comparator: achieved <= target up to VERDICT_SLACK."""
    return achieved <= target + VERDICT_SLACK


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


def is_hermitian(m, tol=DEFAULT_TOL):
    m = ensure_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    scale = 1.0 + np.abs(m).max()
    return np.abs(m - m.conj().T).max() <= tol.check_tol * scale


def sym_eig(m, tol=DEFAULT_TOL):
    """Full eigendecomposition of a Hermitian matrix.

    Returns (w, V) with w ascending and columns of V orthonormal, and
    guarantees the reconstruction residual ||M v - w v|| <= eig_tol * ||M||
    for every pair.  Backed by LAPACK through numpy.linalg.eigh; the
    residual guarantee is asserted, not assumed.
    """
    m = ensure_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ContractViolation("sym_eig needs a square matrix")
    if not is_hermitian(m, tol):
        raise ContractViolation("sym_eig needs a Hermitian matrix")
    h = 0.5 * (m + m.conj().T)  # symmetrize away roundoff before factoring
    w, v = np.linalg.eigh(h)
    scale = max(1.0, float(np.abs(w).max()) if w.size else 1.0)
    resid = np.abs(h @ v - v * w).max()
    if resid > tol.eig_tol * scale:
        raise ContractViolation(f"eigen residual {resid:.3e} exceeds tolerance")
    return w, v


def operator_norm(m):
    """Largest singular value."""
    m = ensure_matrix(m)
    return float(np.linalg.norm(m, 2))


def numeric_rank(m, tol=DEFAULT_TOL):
    """Count singular values above rank_tol * sigma_max * max(rows, cols)."""
    m = ensure_matrix(m)
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol.rank_tol * s[0] * max(m.shape)))


# ---------------------------------------------------------------------------
# partitions in canonical restricted-growth form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    """A partition of indices {0..M-1} into blocks labelled 0..r-1.

    block_of[i] is the block label of index i.  Labels must use a prefix
    0..r-1; blocks are nonempty unless allow_empty is set (local searches
    may park a label on zero indices while they move mass around).
    """

    block_of: tuple
    r: int
    allow_empty: bool = False

    def __post_init__(self):
        labels = tuple(int(b) for b in self.block_of)
        object.__setattr__(self, "block_of", labels)
        if len(labels) == 0:
            raise ContractViolation("partition of an empty index set")
        if self.r < 1:
            raise ContractViolation("partition needs r >= 1")
        if any(b < 0 or b >= self.r for b in labels):
            raise ContractViolation("block label out of range")
        if not self.allow_empty:
            used = set(labels)
            if used != set(range(self.r)):
                raise ContractViolation("blocks 0..r-1 must all be nonempty")

    @property
    def M(self):
        return len(self.block_of)

    @classmethod
    def from_blocks(cls, blocks, M=None, allow_empty=False):
        idx = {}
        for b, blk in enumerate(blocks):
            for i in blk:
                if i in idx:
                    raise ContractViolation(f"index {i} appears in two blocks")
                idx[int(i)] = b
        if M is None:
            M = len(idx)
        if sorted(idx) != list(range(M)):
            raise ContractViolation("blocks must cover 0..M-1 exactly once")
        return cls(tuple(idx[i] for i in range(M)), len(blocks), allow_empty)

    def blocks(self):
        out = [[] for _ in range(self.r)]
        for i, b in enumerate(self.block_of):
            out[b].append(i)
        return out

    def canonical(self):
        """Relabel blocks in order of first appearance and drop empty ones."""
        remap, nxt = {}, 0
        lab = []
        for b in self.block_of:
            if b not in remap:
                remap[b] = nxt
                nxt += 1
            lab.append(remap[b])
        return Partition(tuple(lab), nxt)

    def to_json(self):
        return {"blocks": self.blocks()}

    @classmethod
    def from_json(cls, d):
        return cls.from_blocks(d["blocks"])


def count_partitions(M, r):
    """Number of partitions of an M-set into at most r nonempty blocks."""
    if M < 1 or r < 1:
        raise ContractViolation("count_partitions needs M >= 1, r >= 1")
    # Stirling numbers of the second kind, S[m][j]
    S = [[0] * (r + 1) for _ in range(M + 1)]
    S[0][0] = 1
    for m in range(1, M + 1):
        for j in range(1, r + 1):
            S[m][j] = j * S[m - 1][j] + S[m - 1][j - 1]
    return sum(S[M][j] for j in range(1, r + 1))


def enumerate_partitions(M, r):
    """Yield each partition of {0..M-1} into at most r blocks exactly once.

    Canonical restricted-growth strings: label[0] = 0 and each later label
    is at most one past the running maximum, capped at r - 1.
    """
    if M < 1 or r < 1:
        raise ContractViolation("enumerate_partitions needs M >= 1, r >= 1")
    labels = [0] * M

    def rec(i, top):
        if i == M:
            yield Partition(tuple(labels), top + 1)
            return
        for b in range(min(top + 1, r - 1) + 1):
            labels[i] = b
            yield from rec(i + 1, max(top, b))

    yield from rec(1, 0)


def refine_partition(p, subdivide):
    """Split blocks of p according to subdivide: {block: list of sub-blocks}."""
    blocks = []
    for b, blk in enumerate(p.blocks()):
        if b in subdivide:
            parts = subdivide[b]
            if sorted(itertools.chain.from_iterable(parts)) != sorted(blk):
                raise ContractViolation("subdivision must repartition the block")
            blocks.extend(list(q) for q in parts if q)
        else:
            blocks.append(blk)
    return Partition.from_blocks(blocks)


# ---------------------------------------------------------------------------
# frames as labelled synthesis matrices
# ---------------------------------------------------------------------------

@dataclass
class Frame:
    """A finite vector family: column i of synthesis is the i-th vector."""

    synthesis: np.ndarray
    label: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.synthesis = ensure_matrix(self.synthesis, "synthesis")

    @property
    def n(self):
        return self.synthesis.shape[0]

    @property
    def M(self):
        return self.synthesis.shape[1]

    def vector(self, i):
        return self.synthesis[:, i]


def gen_random_unit_frame(n, M, seed, field="real"):
    """Seeded Gaussian columns normalized to unit length.

    M < n is permitted (the family then spans a proper subspace) and is
    flagged in the metadata rather than rejected.
    """
    if n < 1 or M < 1:
        raise ContractViolation("gen_random_unit_frame needs n >= 1, M >= 1")
    if field not in ("real", "complex"):
        raise ContractViolation("field must be 'real' or 'complex'")
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
    fr = Frame(a / norms, label=f"random-unit-{n}x{M}",
               meta={"seed": int(seed), "field": field, "kind": "random-unit"})
    if M < n:
        fr.meta["spans"] = False
    return fr


def gen_harmonic_frame(n, M):
    """Character columns f_i(k) = exp(2 pi i * i * k / M) / sqrt(n).

    Unit-norm and tight with frame bound M / n; row orthogonality of the
    character table gives the frame operator (M / n) * identity exactly.
    """
    if not (1 <= n <= M):
        raise ContractViolation("gen_harmonic_frame needs 1 <= n <= M")
    k = np.arange(n)[:, None]
    i = np.arange(M)[None, :]
    a = np.exp(2j * np.pi * (k * i) / M) / math.sqrt(n)
    return Frame(a, label=f"harmonic-{n}x{M}", meta={"kind": "harmonic"})


def gen_random_projection(M, n, seed):
    """Rank-n orthogonal projection on C^M from a seeded Gaussian QR."""
    if not (1 <= n <= M):
        raise ContractViolation("gen_random_projection needs 1 <= n <= M")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((M, n)) + 1j * rng.standard_normal((M, n))
    q, _ = np.linalg.qr(a)
    return q @ q.conj().T


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------

def matrix_to_json(m):
    """Column-major [[re, im], ...] pairs with explicit shape and field."""
    m = ensure_matrix(m)
    rows, cols = m.shape
    complex_field = np.iscomplexobj(m)
    entries = []
    for j in range(cols):
        for i in range(rows):
            z = m[i, j]
            entries.append([float(np.real(z)), float(np.imag(z))])
    return {"rows": rows, "cols": cols,
            "field": "complex" if complex_field else "real",
            "entries": entries}


def matrix_from_json(d):
    try:
        rows, cols = int(d["rows"]), int(d["cols"])
        fieldname = d["field"]
        entries = d["entries"]
    except (KeyError, TypeError) as exc:
        raise ContractViolation(f"malformed matrix JSON: {exc}")
    if fieldname not in ("real", "complex"):
        raise ContractViolation(f"unknown field {fieldname!r}")
    if rows < 1 or cols < 1 or len(entries) != rows * cols:
        raise ContractViolation("matrix JSON shape mismatch")
    out = np.empty((rows, cols), dtype=np.complex128)
    try:
        for j in range(cols):
            for i in range(rows):
                e = entries[j * rows + i]
                if isinstance(e, (int, float)):
                    out[i, j] = float(e)
                else:
                    out[i, j] = complex(float(e[0]), float(e[1]))
    except (IndexError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ContractViolation(
            f"malformed matrix entry at row {i}, column {j}: {exc}")
    if fieldname == "real":
        if np.abs(out.imag).max() > 0.0:
            raise ContractViolation("real matrix JSON carries imaginary parts")
        return ensure_matrix(out.real)
    return ensure_matrix(out)


def frame_to_json(fr):
    d = matrix_to_json(fr.synthesis)
    if fr.label:
        d["label"] = fr.label
    if fr.meta:
        d["meta"] = dict(fr.meta)
    return d


def frame_from_json(d):
    return Frame(matrix_from_json(d), label=d.get("label", ""),
                 meta=dict(d.get("meta", {})))
