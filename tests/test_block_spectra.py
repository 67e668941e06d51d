"""The one stacking path into LAPACK, index_stacks, the stacked block
spectra and norms it feeds, and the subset scans built on them.

stack_spectra on index_stacks' stacks must give every block the bits a
lone eigvalsh of that block gives, however the blocks are stacked, and so
must a one-row stack, which prices one block; stack_norms, which prices the
stacks of a partition walk, must give the bits of a lone operator_norm of
each block.  The oracles below are the per-subset loops the scans ran
before they were stacked; the scans must match them bit for bit: values,
worst subset, tie order and counts.
"""

import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from frame_cases import oracle_frames
from oracles import (
    erasure_by_full_scan,
    exchange_chains_by_sets,
    phase_by_side_ranks,
    restricted_isometry_by_full_scan,
)
import pavekit
from pavekit import core, erasures
from pavekit.core import (
    RANK_TOL,
    Frame,
    gen_harmonic_frame,
    gen_random_projection,
    gen_random_unit_frame,
    index_stacks,
    numeric_rank,
    operator_norm,
    stack_norms,
    stack_spectra,
    subset_ranks,
)
from pavekit.decomposition import rado_horn_check, restricted_isometry
from pavekit.erasures import erasure_robustness, phase_retrieval_check
from pavekit.frames import gram_matrix, parseval_normalize


def _bits(x):
    """Bytes of a float or array, so -0.0 and 0.0 differ."""
    return np.asarray(x, dtype=np.float64).tobytes()


def block_spectra(a, subsets, frame=False):
    """(idx, w) per stack of index_stacks: the (B, k) subsets and their
    stack_spectra, with a frame block's a.itemsize * n * max(n, k) bytes
    per row, or a principal block's a.itemsize * k * k."""
    n = a.shape[0]
    for idx in index_stacks(subsets, lambda k: a.itemsize * (
            n * max(n, k) if frame else k * k)):
        yield idx, stack_spectra(a, idx, frame)


def block_spectrum(a, subset, frame=False):
    """The spectrum of one block, from a one-row stack."""
    return stack_spectra(a, np.array([subset], dtype=np.intp), frame)[0]


def _lone(a, subset, frame):
    subset = list(subset)
    if frame:
        t = a[:, subset]
        return np.linalg.eigvalsh(t @ t.conj().T)
    sub = a[np.ix_(subset, subset)]
    return np.linalg.eigvalsh(0.5 * (sub + sub.conj().T))


def _matrices():
    rng = np.random.default_rng(3)
    for field in ("real", "complex"):
        t = gen_random_unit_frame(3, 7, 1, field).synthesis
        yield t, True
        yield gram_matrix(Frame(t)), False
    t = gen_harmonic_frame(3, 7).synthesis
    yield t, True
    yield gram_matrix(Frame(t)), False
    # the real view of a complex array, the layout JSON decoding gives
    z = rng.standard_normal((4, 6)) + 0j
    yield z.real, True
    yield gram_matrix(Frame(z.real)), False


# A cap of 200 bytes splits every run of subsets into many stacks.
CAPS = [None, 200]


def _cap(monkeypatch, cap):
    if cap is not None:
        monkeypatch.setattr(core, "BLOCK_STACK_BYTES", cap)


@pytest.mark.parametrize("cap", CAPS)
def test_block_spectra_matches_lone_eigvalsh(monkeypatch, cap):
    _cap(monkeypatch, cap)
    for a, frame in _matrices():
        m = a.shape[1]
        subsets = [s for k in range(1, 5)
                   for s in itertools.combinations(range(m), k)]
        got = [(idx, w) for idx, w in block_spectra(a, iter(subsets), frame)]
        assert [tuple(i) for idx, _ in got for i in idx.tolist()] == subsets
        rows = [row for _, w in got for row in w]
        for subset, row in zip(subsets, rows):
            assert _bits(row) == _bits(_lone(a, subset, frame))
        if cap is not None:     # runs split at the cap, not only by size
            assert len(got) > 4
            for idx, _ in got:
                k = idx.shape[1]
                width = a.shape[0] * max(k, a.shape[0]) if frame else k * k
                assert len(idx) == 1 or \
                    len(idx) * width * a.itemsize <= cap


@pytest.mark.parametrize("cap", CAPS)
def test_stack_spectra_match_block_spectra(monkeypatch, cap):
    """One stack of every k-subset, frame and principal blocks, gives the
    bits of block_spectra's stacks, split at the cap or not."""
    _cap(monkeypatch, cap)
    for a, frame in _matrices():
        for k in range(1, 5):
            subsets = list(itertools.combinations(range(a.shape[1]), k))
            want = np.concatenate([w for _, w in
                                   block_spectra(a, subsets, frame)])
            got = stack_spectra(a, np.array(subsets), frame)
            assert _bits(got) == _bits(want)


def test_block_spectra_keeps_mixed_order():
    g = gram_matrix(gen_random_unit_frame(3, 6, 2))
    subsets = [[0, 1], [2], [3, 4], [1, 3, 5], [5], [0, 2, 4]]
    got = [w for _, ws in block_spectra(g, subsets) for w in ws]
    for subset, w in zip(subsets, got):
        assert _bits(w) == _bits(_lone(g, subset, False))
    assert _bits(block_spectrum(g, [1, 3, 5])) == _bits(got[3])


def test_index_stacks_reads_an_endless_stream_lazily():
    first = next(index_stacks(((i, i + 1) for i in itertools.count()),
                              lambda k: 1024 * k))
    assert first.dtype == np.intp
    assert first.tolist() == [[i, i + 1] for i in range(128)]


def test_index_stacks_splits_runs_at_the_cap(monkeypatch):
    monkeypatch.setattr(core, "BLOCK_STACK_BYTES", 100)
    subsets = [(i,) for i in range(25)] + [(i, i + 1, i + 2)
                                           for i in range(7)]
    got = list(index_stacks(iter(subsets), lambda k: 10 * k))
    assert [idx.shape for idx in got] == \
        [(10, 1), (10, 1), (5, 1), (3, 3), (3, 3), (1, 3)]
    assert [tuple(row) for idx in got for row in idx.tolist()] == subsets
    # a row wider than the cap is a stack of its own; empty rows stack
    assert [idx.shape for idx in index_stacks([(0, 1), (2, 3)],
                                              lambda k: 1000)] == \
        [(1, 2), (1, 2)]
    assert [idx.shape for idx in index_stacks([(), ()], lambda k: 0)] == \
        [(2, 0)]


def test_index_stacks_cuts_an_array_as_its_rows(monkeypatch):
    """A (B, k) array is cut where the same rows, read as tuples, are."""
    monkeypatch.setattr(core, "BLOCK_STACK_BYTES", 100)
    for shape in ((25, 3), (7, 1), (2, 0), (0, 2)):
        idx = np.arange(shape[0] * shape[1], dtype=np.intp).reshape(shape)
        rows = [tuple(row) for row in idx.tolist()]
        got = list(index_stacks(idx, lambda k: 10 * k))
        want = list(index_stacks(rows, lambda k: 10 * k))
        assert [a.tolist() for a in got] == [a.tolist() for a in want]
        assert all(a.dtype == np.intp for a in got)


def test_index_stacks_keeps_order_across_sizes():
    subsets = [(0, 1), (2,), (3, 4), (5, 6), (1, 3, 5), (7,), (8,), (0, 2)]
    got = list(index_stacks(subsets, lambda k: k))
    assert [idx.shape for idx in got] == \
        [(1, 2), (1, 1), (2, 2), (1, 3), (2, 1), (1, 2)]
    assert [tuple(row) for idx in got for row in idx.tolist()] == subsets


def test_index_stacks_of_nothing_is_nothing():
    assert list(index_stacks(iter([]), lambda k: 8)) == []


def _one_block_cases():
    """(matrix, subsets): every subset of a real and a complex 10 x 10
    Hermitian matrix and of a rank-4 projection, and 300 random blocks of
    each kind of matrix at M = 14."""
    rng = np.random.default_rng(12)
    for m, subsets in ((10, None), (14, 300)):
        a = rng.standard_normal((m, m))
        z = a + 1j * rng.standard_normal((m, m))
        if subsets is None:
            subsets = [s for k in range(1, m + 1)
                       for s in itertools.combinations(range(m), k)]
        else:
            subsets = [sorted(rng.choice(m, int(rng.integers(1, m + 1)),
                                         replace=False).tolist())
                       for _ in range(subsets)]
        # Hermitian up to roundoff, as computed Gram matrices and
        # projections are, so that the symmetrization shows in the bits
        noise = 1e-15 * rng.standard_normal((m, m))
        for h in (a + a.T + noise, z + z.conj().T + noise,
                  gen_random_projection(m, 4, m)):
            yield h, subsets


def test_one_block_kernels_match_stacked_and_checked_routes():
    for a, subsets in _one_block_cases():
        stacked = [w for _, ws in block_spectra(a, subsets) for w in ws]
        assert len(stacked) == len(subsets)
        for subset, w in zip(subsets, stacked):
            assert _bits(block_spectrum(a, subset)) == _bits(w)
        for k in {len(subset) for subset in subsets}:
            run = [subset for subset in subsets if len(subset) == k]
            norms = stack_norms(a, np.array(run, dtype=np.intp))
            assert _bits(norms) == _bits(
                [operator_norm(a[np.ix_(s, s)]) for s in run])


def test_no_hand_copied_eigensolves():
    """Block eigensolves go through core's block kernels; only harmonic's
    Toeplitz sections and Kadec Gram, which are not blocks of a stored
    matrix, call eigvalsh themselves.  In core, eigvalsh is called only by
    stack_spectra and BLOCK_STACK_BYTES read only by index_stacks, and
    the routes they replaced are gone.  No module calls LAPACK's cholesky:
    thresholds are proved by core.stack_clears, whose shift its own
    proof derives."""
    allowed = {"core.py", "harmonic.py"}
    found = []
    for path in sorted(Path(pavekit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [node.attr] if isinstance(node, ast.Attribute) else \
                [a.name for a in node.names] \
                if isinstance(node, ast.ImportFrom) else []
            if "eigvalsh" in names and path.name not in allowed or \
                    "cholesky" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
    sites = {"eigvalsh": set(), "cholesky": set(),
             "BLOCK_STACK_BYTES": set()}
    for stmt in ast.parse(Path(core.__file__).read_text()).body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            for name in ("eigvalsh", "cholesky"):
                if isinstance(node, ast.Attribute) and node.attr == name \
                        or isinstance(node, ast.Name) and node.id == name:
                    sites[name].add(owner)
            if isinstance(node, ast.Name) and \
                    node.id == "BLOCK_STACK_BYTES" and \
                    isinstance(node.ctx, ast.Load):
                sites["BLOCK_STACK_BYTES"].add(owner)
    assert sites == {"eigvalsh": {"stack_spectra"}, "cholesky": set(),
                     "BLOCK_STACK_BYTES": {"index_stacks"}}
    for name in ("stacks", "block_spectra", "block_spectrum", "_principal",
                 "bound_first_scan"):
        assert not hasattr(core, name), name


# ---------------------------------------------------------------------------
# the per-subset scans the stacked ones replaced, kept as oracles
# ---------------------------------------------------------------------------

def _surviving_lower_oracle(fr, erased):
    keep = [i for i in range(fr.M) if i not in erased]
    if not keep:
        return 0.0
    t = fr.synthesis[:, keep]
    w = np.linalg.eigvalsh(t @ t.conj().T)
    return float(max(w[0], 0.0))


def _erasure_oracle(fr, k, parseval):
    g = gram_matrix(fr) if parseval else None
    worst, worst_subset = math.inf, []
    vmin, vmax = math.inf, -math.inf
    scanned = 0
    for subset in itertools.combinations(range(fr.M), k):
        scanned += 1
        val = _surviving_lower_oracle(fr, set(subset))
        if parseval and k > 0:
            sub = g[np.ix_(subset, subset)]
            w = np.linalg.eigvalsh(0.5 * (sub + sub.conj().T))
            assert abs(1.0 - float(w[-1]) - val) <= 1e-9
        vmin, vmax = min(vmin, val), max(vmax, val)
        if val < worst:
            worst, worst_subset = val, list(subset)
    return worst, worst_subset, scanned, vmin, vmax


def _ric_oracle(fr, s):
    s = min(s, fr.M)
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


def _unit_frames():
    """Random, repeated-column and harmonic unit-norm families."""
    rng = np.random.default_rng(11)
    for seed, (n, m) in enumerate([(2, 6), (3, 7), (4, 8)]):
        fr = gen_random_unit_frame(n, m, seed)
        yield fr
        yield Frame(fr.synthesis[:, rng.integers(max(1, m // 3), size=m)])
    yield gen_random_unit_frame(3, 7, 5, "complex")
    yield gen_harmonic_frame(3, 7)
    yield gen_harmonic_frame(2, 8)


def _parseval_frames():
    rng = np.random.default_rng(12)
    for n, m in ((2, 6), (3, 7), (5, 20)):   # 5 x 20: the benchmark's shape
        q, _ = np.linalg.qr(rng.standard_normal((m, n)))
        yield Frame(q.T.copy())
    yield parseval_normalize(gen_harmonic_frame(3, 7))
    yield parseval_normalize(gen_harmonic_frame(2, 8))
    # repeated columns, rescaled to a Parseval family
    yield parseval_normalize(Frame(np.tile(np.eye(2), 3)))


@pytest.mark.parametrize("cap", CAPS)
def test_erasure_matches_per_subset_oracle(monkeypatch, cap):
    _cap(monkeypatch, cap)
    checked = set()
    for fr in itertools.chain(_unit_frames(), _parseval_frames()):
        for k in range(0, min(fr.M, 4)):
            rep = erasure_robustness(fr, k)
            worst, subset, scanned, vmin, vmax = _erasure_oracle(
                fr, k, rep["is_parseval"])
            assert _bits(rep["worst_value"]) == _bits(worst)
            assert rep["worst_subset"] == subset
            assert rep["subsets_scanned"] == scanned
            assert _bits([rep["value_min"], rep["value_max"]]) == \
                _bits([vmin, vmax])
            checked.add(rep["is_parseval"])
    assert checked == {True, False}


def test_parseval_survivors_match_the_gram_complement():
    """On a Parseval family, the survivors of erasing E have lower bound
    1 - lambda_max(G[E, E]): the second route erasure once ran beside
    the stacked one."""
    for fr in _parseval_frames():
        g = gram_matrix(fr)
        for k in range(1, min(fr.M, 4)):
            erased = list(itertools.combinations(range(fr.M), k))
            got = erasures._surviving_lower(fr, np.array(erased))
            want = [1.0 - _lone(g, e, False)[-1] for e in erased]
            assert np.abs(got - want).max() <= 1e-9, (fr.synthesis, k)


@pytest.mark.parametrize("cap", CAPS)
def test_erasure_prices_a_near_parseval_frame_by_its_survivors(monkeypatch,
                                                               cap):
    # S = I + diag(5e-9, -5e-9) passes the Parseval check (1e-8), yet
    # 1 - lambda_max(G[E, E]) misses the survivors' bound by about 5e-9
    _cap(monkeypatch, cap)
    fr = parseval_normalize(gen_harmonic_frame(2, 6))
    bent = Frame(np.sqrt([[1.0 + 5e-9], [1.0 - 5e-9]]) * fr.synthesis)
    g = gram_matrix(bent)
    assert any(abs(1.0 - _lone(g, subset, False)[-1] -
                   _surviving_lower_oracle(bent, set(subset))) > 1e-9
               for subset in itertools.combinations(range(6), 2))
    rep = erasure_robustness(bent, 2)
    worst, subset, scanned, vmin, vmax = _erasure_oracle(bent, 2, False)
    assert rep["is_parseval"]
    assert _bits(rep["worst_value"]) == _bits(worst)
    assert rep["worst_subset"] == subset
    assert rep["subsets_scanned"] == scanned
    assert _bits([rep["value_min"], rep["value_max"]]) == _bits([vmin, vmax])


@pytest.mark.parametrize("cap", CAPS)
def test_restricted_isometry_matches_per_subset_oracle(monkeypatch, cap):
    _cap(monkeypatch, cap)
    for fr in _unit_frames():
        for s in (1, 2, 3):
            delta, subset = restricted_isometry(fr, s)
            want, want_subset = _ric_oracle(fr, s)
            assert _bits(delta) == _bits(want)
            assert subset == want_subset


# ---------------------------------------------------------------------------
# stacked numeric ranks
# ---------------------------------------------------------------------------

def _rank_matrices():
    """Random, rank-deficient, all-zero, near-cutoff, complex and n = 1
    families."""
    rng = np.random.default_rng(5)
    yield rng.standard_normal((4, 7))
    yield rng.standard_normal((3, 2)) @ rng.standard_normal((2, 7))
    yield np.zeros((3, 6))
    # orthogonal columns of length 1, 1 and RANK_TOL * 3 * (1 -+ 1e-3):
    # columns 0-2 sit just under and just over the cutoff
    # RANK_TOL * sigma_max * max(3, 3)
    base = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    for off in (1 - 1e-3, 1 + 1e-3):
        yield np.column_stack([base[:, 0], base[:, 1],
                               RANK_TOL * 3 * off * base[:, 2], base[:, 1]])
    # singular values sqrt(2), 1 and RANK_TOL * sqrt(2) * 3.5: the last
    # counts for 3 columns and not for all 4, whose cutoff has max(3, 4)
    yield np.column_stack([base[:, 0], base[:, 1], base[:, 1],
                           RANK_TOL * np.sqrt(2) * 3.5 * base[:, 2]])
    yield gen_random_unit_frame(3, 6, 2, "complex").synthesis
    yield rng.standard_normal((1, 5)) * (rng.random(5) < 0.5)


@pytest.mark.parametrize("cap", CAPS)
def test_subset_ranks_match_numeric_rank(monkeypatch, cap):
    _cap(monkeypatch, cap)
    ranks_seen = set()
    for t in _rank_matrices():
        m = t.shape[1]
        # mixed sizes, repeated columns and empty index lists, in one stream
        subsets = [s for k in range(0, min(m, 5) + 1)
                   for s in itertools.combinations(range(m), k)]
        subsets += [(0, 0), (1, 1, 2), (), (m - 1, 0, m - 1)]
        got = subset_ranks(t, iter(subsets))
        want = [numeric_rank(t[:, list(s)]) if s else 0 for s in subsets]
        assert got.tolist() == want
        ranks_seen.update(want)
    assert ranks_seen == {0, 1, 2, 3, 4}
    assert subset_ranks(np.eye(2), []).tolist() == []


def test_subset_ranks_sees_the_cutoff():
    under, over, wide = list(_rank_matrices())[3:6]
    assert [subset_ranks(t, [(0, 1, 2)])[0] for t in (under, over)] == [2, 3]
    assert subset_ranks(wide, [(1, 2, 3), (0, 1, 3), (0, 1, 2, 3)]).tolist() \
        == [2, 3, 2]


def test_no_hand_copied_rank_scans():
    """erasures and reports call no svd of their own: their rank scans
    go through core.subset_ranks."""
    found = []
    for name in ("erasures.py", "reports.py"):
        path = Path(pavekit.__file__).parent / name
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "svd":
                found.append(f"{name}:{node.lineno}")
    assert found == []


# 200 bytes puts every stacked S and flat test in its own few-item stack;
# 600 splits the runs unevenly
@pytest.mark.parametrize("cap", [200, 600])
def test_phase_payloads_do_not_depend_on_stacking(monkeypatch, cap):
    frames = list(oracle_frames(1, 40)) + [gen_random_unit_frame(4, 13, 5)]
    want = [phase_retrieval_check(fr) for fr in frames]
    _cap(monkeypatch, cap)
    got = [phase_retrieval_check(fr) for fr in frames]
    assert got == want
    assert {rep["verdict"] for rep in got} == {True, False}


def _rado_horn_oracle(fr, r):
    """rado_horn_check's answer from the per-set exchange search, its
    witness rank from numeric_rank."""
    blocks, reached = exchange_chains_by_sets(fr, r)
    if blocks is not None:
        return True, [sorted(b) for b in blocks], None
    rank = numeric_rank(fr.synthesis[:, reached])
    return False, None, {"subset": reached, "size": len(reached),
                         "rank": rank,
                         "ratio": len(reached) / rank if rank else None}


@pytest.mark.parametrize("cap", CAPS)
def test_rado_horn_matches_the_per_set_search(monkeypatch, cap):
    _cap(monkeypatch, cap)
    cases = [(fr, r) for fr in oracle_frames(0, 45) for r in range(1, 6)]
    cases += [(Frame(np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])), 2),
              (Frame(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])), 2)]
    wide = gen_random_unit_frame(2, 21, 0)
    cases += [(wide, 10), (wide, 11)]
    verdicts = set()
    for fr, r in cases:
        got = rado_horn_check(fr, r)
        assert got == _rado_horn_oracle(fr, r), (fr.synthesis, r)
        verdicts.add(got[0])
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# threshold scans against the full scans they replaced
# ---------------------------------------------------------------------------

def _scan_frames():
    """Seeded families for the threshold scans: Parseval, unit real and
    complex, harmonic (exact ties), repeated and antipodal columns, and
    rank-deficient; M from 3 to 9, so s runs past M."""
    rng = np.random.default_rng(32)
    for n, m in ((2, 3), (2, 6), (3, 4), (3, 7), (4, 9)):
        q, _ = np.linalg.qr(rng.standard_normal((m, n)))
        unit = gen_random_unit_frame(n, m, m).synthesis
        low = rng.standard_normal((n, n - 1)) @ \
            rng.standard_normal((n - 1, m))
        yield Frame(q.T.copy())
        yield Frame(unit)
        yield gen_random_unit_frame(n, m, m, "complex")
        yield gen_harmonic_frame(n, m)
        yield Frame(unit[:, rng.integers(max(1, m // 3), size=m)])
        yield Frame(np.column_stack([unit[:, :m - 2], -unit[:, :2]]))
        yield Frame(low / np.linalg.norm(low, axis=0))


def _results_bits(res):
    """A results dict with every float as its bytes, so -0.0 and 0.0
    differ."""
    return {key: _bits(val) if isinstance(val, float) else val
            for key, val in res.items()}


def _assert_scans_match(fr, scales):
    """erasure at k = 0..3 and phase at each scale, and ric at s = 1..5 on
    a unit-norm family, match the full scans: values by their bits,
    subsets, tie order and counts."""
    for scale in scales:
        scaled = Frame(scale * fr.synthesis)
        for k in range(min(4, fr.M)):
            assert _results_bits(erasure_robustness(scaled, k)) == \
                _results_bits(erasure_by_full_scan(scaled, k)), (scale, k)
        real = Frame(np.real(scaled.synthesis))
        assert phase_retrieval_check(real) == phase_by_side_ranks(real)
    if np.allclose(np.linalg.norm(fr.synthesis, axis=0), 1.0):
        for s in range(1, 6):
            delta, subset = restricted_isometry(fr, s)
            want, want_subset = restricted_isometry_by_full_scan(fr, s)
            assert (_bits(delta), subset) == (_bits(want), want_subset), s


@pytest.mark.parametrize("cap", [None, 200, 600])
def test_bound_first_scans_match_the_full_scans(monkeypatch, cap):
    _cap(monkeypatch, cap)
    for fr in _scan_frames():
        _assert_scans_match(fr, (1.0, 2.0 ** 60, 2.0 ** -60))


def test_bound_first_scans_warn_of_nothing_at_extreme_scales():
    """Scaled by 2^500, 2^-500 or 2^-560, the bounds' squares and sums
    overflow or underflow; the scans warn of nothing (pytest makes
    RuntimeWarnings errors) and still match the full scans.  ric needs unit
    vectors, so it runs on families with one coordinate shrunk by 2^-500.
    A 3 x 5 frame whose third vector is the sum of the first two plus
    1e-13 of another has a near-degenerate basis that the phase scan's
    certificate must not take for spanning at 2^-560."""
    rng = np.random.default_rng(560)
    near = rng.standard_normal((3, 5))
    near[:, 2] = near[:, 0] + near[:, 1] + 1e-13 * rng.standard_normal(3)
    _assert_scans_match(Frame(near), (2.0 ** -560,))
    assert not phase_retrieval_check(Frame(near * 2.0 ** -560))["verdict"]
    for fr in itertools.islice(_scan_frames(), 7, 21):
        _assert_scans_match(fr, (2.0 ** 500, 2.0 ** -500, 2.0 ** -560))
        a = fr.synthesis * np.array([[1.0]] + [[2.0 ** -500]] * (fr.n - 1))
        if np.linalg.norm(a, axis=0).min() > 0.0:
            _assert_scans_match(Frame(a / np.linalg.norm(a, axis=0)), ())


def test_subset_scans_take_one_stack_per_step(monkeypatch):
    """LAPACK calls, and the blocks or matrices they price, of each scan
    on the benchmark's input shapes.  erasure (5 x 20 Parseval, k = 3):
    the 4 erasures of least and the 4 of greatest bound, then 35 of the
    1,140 that may raise value_max or that core.stack_clears does not
    clear, where all 1,140 took 3 stacks.  ric (6 x 20 unit, s = 3): the
    4 Gram blocks of most off-diagonal mass, and every other one of the
    1,350 blocks of sizes 1 to 3 is cleared, where all took 3 stacks.
    radohorn (4 x 13, r = 4): the first block with room takes each vector,
    so no swap is priced, each step prices only the grown blocks the cache
    lacks, and a grown block of 5 vectors needs no svd.  phase (4 x 13):
    stack_clears certifies all 715 bases with no LAPACK call, where the
    scan took 7 svd calls over 324 matrices."""
    calls = {"eigvalsh": [], "svd": [], "cholesky": []}
    for name in calls:
        def counted(x, *args, _lapack=getattr(np.linalg, name), _name=name,
                    **kwargs):
            calls[_name].append(len(x) if np.ndim(x) == 3 else 1)
            return _lapack(x, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)

    def count(run):
        for made in calls.values():
            made.clear()
        run()
        return {name: (len(made), sum(made))
                for name, made in calls.items() if made}

    q, _ = np.linalg.qr(np.random.default_rng(12).standard_normal((20, 5)))
    parseval = Frame(q.T.copy())
    unit6, unit4 = gen_random_unit_frame(6, 20, 0), \
        gen_random_unit_frame(4, 13, 5)
    assert count(lambda: erasure_robustness(parseval, 3)) == \
        {"eigvalsh": (2, 43)}
    assert count(lambda: restricted_isometry(unit6, 3)) == \
        {"eigvalsh": (1, 4)}
    assert count(lambda: rado_horn_check(unit4, 4)) == {"svd": (22, 22)}
    assert count(lambda: phase_retrieval_check(unit4)) == {}
    assert _results_bits(erasure_robustness(parseval, 3)) == \
        _results_bits(erasure_by_full_scan(parseval, 3))
    assert restricted_isometry(unit6, 3) == \
        restricted_isometry_by_full_scan(unit6, 3)
    assert phase_retrieval_check(unit4) == phase_by_side_ranks(unit4)
