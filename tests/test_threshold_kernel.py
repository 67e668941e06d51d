"""core.combination_table, the subset tables of the threshold scans, and
core.stack_clears, the certified threshold kernel that decides erasure,
ric and phase: its certificates are checked in exact rational arithmetic,
its shift against the rounding its proof covers, and the scans built on it
against tests/oracles.py's full scans, bit for bit."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    erasure_by_full_scan,
    phase_by_side_ranks,
    restricted_isometry_by_full_scan,
)
from pavekit import core
from pavekit.core import (
    Frame,
    combination_ranks,
    combination_table,
    gen_harmonic_frame,
    gen_random_unit_frame,
    stack_clears,
)
from pavekit.decomposition import restricted_isometry
from pavekit.erasures import erasure_robustness, phase_retrieval_check
from pavekit.frames import parseval_normalize

EPS, TINY = np.finfo(float).eps, np.finfo(float).tiny


def test_combination_table_matches_itertools():
    for m in range(21):
        for k in range(m + 1):
            want = list(itertools.combinations(range(m), k))
            got = combination_table(m, k)
            assert got.dtype == np.intp and got.shape == (len(want), k)
            assert np.array_equal(got, np.array(want, dtype=np.intp)
                                  .reshape(len(want), k)), (m, k)
            if m:
                assert np.array_equal(combination_ranks(got, m),
                                      np.arange(len(want)))
    assert combination_table(3, 5).shape == (0, 5)


def _stack(rng, n, rows, field):
    """(n, n, rows) Hermitian stack, rows last, of Gaussian entries."""
    a = rng.standard_normal((rows, n, n))
    if field == "complex":
        a = a + 1j * rng.standard_normal((rows, n, n))
    return np.ascontiguousarray((a + a.conj().transpose(0, 2, 1))
                                .transpose(1, 2, 0))


def _exceeds_exactly(b, theta):
    """Whether lambda_min of the Hermitian matrix of b's lower triangle,
    diagonal read as real, exceeds theta, in exact rational arithmetic:
    Sylvester's criterion on the real form [[Re, -Im], [Im, Re]], whose
    spectrum is b's, each eigenvalue twice."""
    low = np.tril(b) + np.tril(b, -1).conj().T
    low[np.diag_indices(len(b))] = np.diagonal(b).real
    real = np.block([[low.real, -low.imag], [low.imag, low.real]])
    a = [[Fraction(float(x)) for x in row] for row in real]
    for i in range(len(a)):
        a[i][i] -= Fraction(float(theta))
    for j in range(len(a)):
        if a[j][j] <= 0:
            return False
        for i in range(j + 1, len(a)):
            f = a[i][j] / a[j][j]
            for col in range(j + 1, len(a)):
                a[i][col] -= f * a[j][col]
    return True


@pytest.mark.parametrize("field", ["real", "complex"])
def test_stack_clears_proves_only_what_exact_arithmetic_confirms(field):
    """Rows whose threshold is their own computed lambda_min, or a few
    ulps either side of it, at scales 1, 2^+-500 and 2^-560: every row
    the kernel clears has, in exact arithmetic, lambda_min above its
    threshold.  eigvalsh itself is no referee here: it errs by a few
    u ||B||, and on a 2 x 2 complex row of seed 0 it read 1.7e-15 below
    the exact lambda_min that the kernel, rightly, proved above it.  A
    threshold 1e-9 ||B|| below lambda_min is cleared on every row."""
    rng = np.random.default_rng(36)
    cleared = 0
    for n in (1, 2, 3, 5):
        base = _stack(rng, n, 40, field)
        for scale in (1.0, 2.0 ** 500, 2.0 ** -500, 2.0 ** -560):
            b = base * scale
            lam = np.linalg.eigvalsh(b.transpose(2, 0, 1))[:, 0]
            for ulps in (-64, -16, -4, -1, 0, 1):
                theta = lam + ulps * np.spacing(np.abs(lam))
                ok = stack_clears(b.copy(), theta)
                cleared += ok.sum()
                for r in np.flatnonzero(ok):
                    assert _exceeds_exactly(b[:, :, r], theta[r]), \
                        (n, scale, ulps, r)
            norm = np.abs(b).max(axis=(0, 1)) * n
            assert stack_clears(b.copy(), lam - 1e-9 * norm).all()
            assert not stack_clears(b.copy(), lam + 1e-9 * norm).any()
    assert cleared > 0      # the boundary is met, not only avoided


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_stack_clears_covers_the_rounding_of_its_proof(n, field):
    """Exact diagonal rows diag(1, ..., 1, L) at theta = 0, which a
    Cholesky factorization shifted by s decides exactly by L > s: the
    kernel refuses L at 0.95 of the rounding its proof covers, (g_c + 2 u)
    times the trace n - 1, c = n + 1 for real rows (Rump's term for the
    factorization) and n + 3 for complex ones, 2 u for the diagonal
    subtraction, and takes L at 1.05 of it.  Rows diag(x, ..., x), which
    only the underflow term 16 n (n + 1 + w) tiny stops, are refused at
    x = 8 n (n + 1) tiny and taken at 32 n (n + 1) tiny."""
    u = EPS / 2
    c = n + 3 if field == "complex" else n + 1
    gamma = c * u / (1 - c * u)
    rounding = (gamma / (1 - gamma) + 2 * u) * (n - 1)
    dtype = complex if field == "complex" else float
    for share, want in ((0.95, False), (1.05, True)):
        b = np.eye(n, dtype=dtype)[:, :, None].copy()
        b[-1, -1, 0] = share * rounding
        assert stack_clears(b, 0.0).tolist() == [want], share
    for share, want in ((8, False), (32, True)):
        b = share * n * (n + 1) * TINY * np.eye(n, dtype=dtype)[:, :, None]
        assert stack_clears(b, 0.0).tolist() == [want], share


def test_stack_clears_reads_only_the_lower_triangle():
    """An upper triangle of NaN changes nothing; one NaN or inf below the
    diagonal refuses its row only."""
    rng = np.random.default_rng(3)
    b = _stack(rng, 4, 6, "real")
    lam = np.linalg.eigvalsh(b.transpose(2, 0, 1))[:, 0]
    theta = lam - 1e-6
    want = stack_clears(b.copy(), theta)
    assert want.all()
    upper = b.copy()
    upper[np.triu_indices(4, 1)] = np.nan
    assert stack_clears(upper, theta).tolist() == want.tolist()
    bad = b.copy()
    bad[2, 1, 0], bad[3, 0, 1] = np.nan, np.inf
    assert stack_clears(bad, theta).tolist() == [False, False] + [True] * 4


def _wide_frames():
    """Frames where the threshold descent clears most rows: Parseval,
    random unit real and complex, harmonic (exact ties) and its Parseval
    rescaling, and one with repeated columns; M = 10 and 12."""
    rng = np.random.default_rng(36)
    for n, m in ((3, 10), (5, 12)):
        q, _ = np.linalg.qr(rng.standard_normal((m, n)))
        unit = gen_random_unit_frame(n, m, m).synthesis
        yield Frame(q.T.copy())
        yield Frame(unit)
        yield gen_random_unit_frame(n, m, m + 1, "complex")
        yield gen_harmonic_frame(n, m)
        yield parseval_normalize(gen_harmonic_frame(n, m))
        yield Frame(unit[:, rng.integers(m // 2, size=m)])


def _bits(res):
    return {key: np.float64(val).tobytes() if isinstance(val, float) else val
            for key, val in res.items()}


@pytest.mark.parametrize("cap", [None, 600, 4096])
def test_threshold_scans_match_the_full_scans(monkeypatch, cap):
    """erasure at k = 1..4, ric at s = 1..4 and phase, at three stack
    caps, give tests/oracles.py's full scans' results, bit for bit."""
    if cap is not None:
        monkeypatch.setattr(core, "BLOCK_STACK_BYTES", cap)
    for fr in _wide_frames():
        for k in range(1, 5):
            assert _bits(erasure_robustness(fr, k)) == \
                _bits(erasure_by_full_scan(fr, k)), (fr.n, fr.M, k)
        if np.allclose(np.linalg.norm(fr.synthesis, axis=0), 1.0):
            for s in range(1, 5):
                delta, subset = restricted_isometry(fr, s)
                want, want_subset = restricted_isometry_by_full_scan(fr, s)
                assert (np.float64(delta).tobytes(), subset) == \
                    (np.float64(want).tobytes(), want_subset), s
        real = Frame(np.real(fr.synthesis))
        assert phase_retrieval_check(real) == phase_by_side_ranks(real)


def test_ric_prices_no_block_smaller_than_s(monkeypatch):
    """On random unit 6 x 20 and 5 x 21 frames at s = 3, every priced
    block is 3 x 3: each smaller subset lies in some cleared 3-subset."""
    sizes = []

    def spectra(a, idx, frame=False):
        sizes.append(idx.shape[1])
        return core.stack_spectra(a, idx, frame)

    monkeypatch.setattr("pavekit.decomposition.stack_spectra", spectra)
    for n, m, seed in ((6, 20, 0), (5, 21, 1), (6, 20, 2)):
        fr = gen_random_unit_frame(n, m, seed)
        assert restricted_isometry(fr, 3) == \
            restricted_isometry_by_full_scan(fr, 3)
    assert set(sizes) == {3}


def test_ric_prices_a_smaller_subset_that_ties_first():
    """[e1, e1, e2] at s = 3 and [e1, e1, e2, e2] at s = 3: the pair
    {0, 1} deviates by 1, as much as every 3-subset holding it, and comes
    first in scan order, so it is the worst subset, as the full scan
    finds; a scan that skipped the sizes below s would name a 3-subset."""
    for cols in ([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                 [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]]):
        fr = Frame(np.array(cols))
        got = restricted_isometry(fr, 3)
        assert got == restricted_isometry_by_full_scan(fr, 3) == (1.0, [0, 1])


def test_ric_ties_within_rounding_keep_the_full_scans_subset():
    """Unit frames whose Gram matrix is I + e(J - I) up to rounding, so
    every s-subset deviates by (s - 1) e in exact arithmetic and the
    computed deviations differ only by rounding.  Near d the kernel's own
    shift is far below eigvalsh's error, so only ric's err keeps a subset
    that computes to the worst from being cleared."""
    for m in (6, 8, 10, 12):
        for e in (1e-3, 1e-7, 1e-11):
            g = np.eye(m) + e * (np.ones((m, m)) - np.eye(m))
            w, v = np.linalg.eigh(g)
            t = (v * np.sqrt(w)) @ v.T
            fr = Frame(t / np.linalg.norm(t, axis=0))
            for s in (2, 3, 4):
                assert restricted_isometry(fr, s) == \
                    restricted_isometry_by_full_scan(fr, s), (m, e, s)
