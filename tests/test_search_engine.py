"""Parity of the branch-and-bound partition engine with a full scan, and
the placement budget the walk counts itself.

The oracles below enumerate every canonical partition and price each one
from scratch, the way the searches worked before pruning: the engine must
return the same partition, not just the same value, on random inputs and
on tie-heavy ones where many partitions share the optimum.
"""

import json
import sys

import numpy as np
import pytest

from oracles import count_partitions
from pavekit import decomposition, paving
from pavekit.cli import main
from pavekit.core import (
    EXHAUSTIVE_INDEX_MAX,
    PARTITION_BUDGET,
    Frame,
    enumerate_partitions,
    gen_harmonic_frame,
    gen_random_projection,
    gen_random_unit_frame,
    matrix_to_json,
    operator_norm,
)
from pavekit.decomposition import epsilon_riesz_partition, feichtinger_partition
from pavekit.frames import gram_matrix
from pavekit.paving import (
    _rgs_walk,
    pave_matrix_check,
    pave_projection_check,
    weaver_check,
)
from pavekit.reports import canonical_json, load_report, verify


def _scan(m, r_max, cost):
    """First partition in enumeration order with the least max block cost."""
    cache = {}
    best = None
    for p in enumerate_partitions(m, r_max):
        per = []
        for blk in p:
            key = tuple(blk)
            if key not in cache:
                cache[key] = cost(blk)
            per.append(cache[key])
        if best is None or max(per) < best[0]:
            best = (max(per), p)
    return best


def _blockdiag(*blocks):
    out = np.zeros((sum(b.shape[0] for b in blocks),
                    sum(b.shape[1] for b in blocks)), dtype=complex)
    i = j = 0
    for b in blocks:
        out[i:i + b.shape[0], j:j + b.shape[1]] = b
        i, j = i + b.shape[0], j + b.shape[1]
    return out


def _sym(rng, m):
    a = rng.standard_normal((m, m))
    return a + a.T


def _parseval_harmonic(n, m):
    return Frame(gen_harmonic_frame(n, m).synthesis * np.sqrt(n / m))


def _check(rep_partition, achieved, evaluated, m, r, oracle):
    want_val, want_part = oracle
    assert rep_partition == {"blocks": want_part}
    assert achieved == want_val
    assert 1 <= evaluated <= count_partitions(m, r)


R_VALUES = (1, 2, 3, 4)


def _matrices():
    rng = np.random.default_rng(11)
    yield _sym(rng, 7)
    yield _sym(rng, 9)
    yield np.zeros((8, 8))
    yield _blockdiag(_sym(rng, 4), _sym(rng, 4)).real
    yield np.kron(np.eye(3), np.ones((3, 3)))              # equal blocks
    yield gram_matrix(gen_harmonic_frame(3, 8))
    yield np.ones((8, 8)) - np.eye(8)                      # J - I: all ties
    # the greedy bound's slack at both ends of its 1 + value scale
    tiny = _sym(rng, 7)
    yield tiny * 2.0**-60
    yield tiny * 2.0**60


@pytest.mark.parametrize("r", R_VALUES)
def test_matrix_paving_matches_scan(r):
    for t in _matrices():
        rep = pave_matrix_check(t, r, 0.5, mode="exhaustive")
        t0 = t - np.diag(np.diag(t))
        oracle = _scan(t.shape[0], r,
                       lambda blk: operator_norm(t0[np.ix_(blk, blk)]))
        _check(rep["partition"], rep["achieved"], rep["evaluated"],
               t.shape[0], r, oracle)


def _projections():
    yield gen_random_projection(8, 3, 0)
    yield gen_random_projection(9, 5, 1)
    yield np.diag([1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0])
    yield gram_matrix(_parseval_harmonic(3, 8))
    q = gen_random_projection(4, 2, 2)
    yield _blockdiag(q, q)


@pytest.mark.parametrize("r", R_VALUES)
def test_projection_paving_matches_scan(r):
    for p in _projections():
        rep = pave_projection_check(p, r, 0.3)
        assert rep["mode"] == "exhaustive"
        oracle = _scan(p.shape[0], r,
                       lambda blk: operator_norm(p[np.ix_(blk, blk)]))
        _check(rep["partition"], rep["achieved"], rep["evaluated"],
               p.shape[0], r, oracle)


def _unit_frames():
    yield gen_random_unit_frame(3, 8, 4)
    yield gen_random_unit_frame(4, 9, 5)
    yield gen_harmonic_frame(3, 8)
    yield gen_harmonic_frame(2, 9)
    a, b = gen_random_unit_frame(2, 4, 6), gen_random_unit_frame(2, 4, 7)
    yield Frame(_blockdiag(a.synthesis, b.synthesis))


@pytest.mark.parametrize("r", R_VALUES)
def test_weaver_matches_scan(r):
    for fr in _unit_frames():
        rep = weaver_check(fr, fr.M, 0.5, r)
        g = gram_matrix(fr)

        def cost(blk):
            sub = g[np.ix_(blk, blk)]
            w = np.linalg.eigvalsh(0.5 * (sub + sub.conj().T))
            return float(max(w[-1], 0.0))

        _check(rep["partition"], rep["achieved"], rep["evaluated"], fr.M,
               r, _scan(fr.M, r, cost))


def _parseval_frames():
    rng = np.random.default_rng(8)
    for n, m in ((3, 8), (4, 9)):
        q, _ = np.linalg.qr(rng.standard_normal((m, n)))
        yield Frame(q.T.copy())
    yield _parseval_harmonic(3, 8)
    yield _parseval_harmonic(2, 9)
    q, _ = np.linalg.qr(rng.standard_normal((4, 2)))
    yield Frame(_blockdiag(q.T, q.T))


@pytest.mark.parametrize("r", R_VALUES)
def test_ccc_matches_scan(r):
    for fr in _parseval_frames():
        g = gram_matrix(fr)
        part, achieved, evaluated = paving._exhaustive_search(
            fr.M, r, paving._gram_block_top(g))

        def cost(blk):
            sub = g[np.ix_(blk, blk)]
            w = np.linalg.eigvalsh(0.5 * (sub + sub.conj().T))
            return float(max(w[-1], 0.0))

        _check({"blocks": part}, achieved, evaluated, fr.M, r,
               _scan(fr.M, r, cost))


def _old_pricing(monkeypatch, calls):
    """The block costs before the stacked kernels, counted in calls: each
    block of a stack priced alone, by operator_norm of an np.ix_ copy or
    by a lone eigvalsh of the symmetrized block."""
    def norms(a, idx):
        calls.append("norm")
        return np.array([operator_norm(a[np.ix_(row, row)]) for row in idx])

    def spectra(a, idx, frame=False):
        calls.append("spectrum")
        assert not frame
        subs = [a[np.ix_(row, row)] for row in idx]
        return np.array([np.linalg.eigvalsh(0.5 * (sub + sub.conj().T))
                         for sub in subs])

    monkeypatch.setattr(paving, "stack_norms", norms)
    monkeypatch.setattr(paving, "stack_spectra", spectra)
    monkeypatch.setattr(decomposition, "stack_spectra", spectra)


def _searches_at_10():
    """{form: search at r blocks} on 10 indices, each form as the CLI runs
    it; riesz with a target no partition into fewer than 4 blocks meets, and
    with one that 3 blocks meet."""
    rng = np.random.default_rng(23)
    t, p = _sym(rng, 10), gen_random_projection(10, 4, 5)
    fr = gen_random_unit_frame(4, 10, 6, "complex")
    return {
        "matrix": lambda r: pave_matrix_check(t, r, 0.5, mode="exhaustive"),
        "projection": lambda r: pave_projection_check(p, r, 0.3,
                                                      mode="exhaustive"),
        "weaver": lambda r: weaver_check(fr, fr.M, 0.5, r),
        "riesz": lambda r: epsilon_riesz_partition(fr, 0.6, r),
        "riesz-wide": lambda r: epsilon_riesz_partition(fr, 0.8, r),
    }


def _fingerprint(rep):
    """A report's partition, mode, verdict and evaluated, with the bits of
    achieved and per_block."""
    return (rep["partition"] and rep["partition"]["blocks"], rep["mode"],
            rep["verdict"], rep.get("evaluated"),
            np.float64(rep.get("achieved", np.nan)).tobytes(),
            np.array(rep["per_block"], dtype=np.float64).tobytes())


@pytest.mark.parametrize("r", (2, 3, 4))
def test_one_block_pricing_matches_the_old_costs(monkeypatch, r):
    for form, search in _searches_at_10().items():
        rep = search(r)
        calls = []
        with monkeypatch.context() as patched:
            _old_pricing(patched, calls)
            old = search(r)
        # at r = 2 the riesz searches price nothing: a block holds at most
        # 4 of the 10 vectors in C^4, so a count decides them
        assert bool(calls) == (r > 2 or not form.startswith("riesz")), form
        assert rep["mode"] == "exhaustive", form
        assert _fingerprint(rep) == _fingerprint(old), form


# (form, r) -> (LAPACK calls when each memo miss priced one block, calls
# now, evaluated, partition): svd for matrix and projection, eigvalsh for
# the rest, the greedy dive and the pricing of the found partition
# included (one call per block before, one per block size now)
_WALK_STACKS = {
    ("matrix", 3): (254, 44, 16, [[0, 9], [1, 4, 5, 6], [2, 3, 7, 8]]),
    ("projection", 3): (347, 36, 3, [[0, 4, 5], [1, 3], [2, 6, 7, 8, 9]]),
    ("weaver", 3): (308, 39, 5, [[0, 2, 8], [1, 4, 5], [3, 6, 7, 9]]),
    ("riesz", 3): (43, 5, None, None),
    ("riesz-wide", 3): (136, 25, None, [[0, 5, 8, 9], [1, 3, 6],
                                        [2, 4, 7]]),
    ("matrix", 4): (241, 15, 4, [[0, 1, 2], [3, 7], [4, 5, 6], [8, 9]]),
    ("projection", 4): (363, 21, 4, [[0, 2, 7, 8], [1], [3, 9],
                                     [4, 5, 6]]),
    ("weaver", 4): (304, 7, 3, [[0, 5, 9], [1, 3], [2, 4, 8], [6, 7]]),
    ("riesz", 4): (64, 7, None, [[0, 2, 6], [1, 3], [4, 7, 8], [5, 9]]),
    ("riesz-wide", 4): (143, 25, None, [[0, 5, 8, 9], [1, 3, 6],
                                        [2, 4, 7]]),
}


@pytest.mark.parametrize("r", (3, 4))
def test_partition_walks_price_blocks_in_stacks(monkeypatch, r):
    """A memo miss prices the missed block with its unpriced siblings, or
    with every block of its size when it holds at most three indices, in
    stacks of blocks of one size, and the searches still return the same
    partitions."""
    shapes = []
    for name in ("svd", "eigvalsh"):
        def counted(x, *args, _lapack=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(x))
            return _lapack(x, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    for form, search in _searches_at_10().items():
        shapes.clear()
        rep = search(r)
        before, after, evaluated, blocks = _WALK_STACKS[form, r]
        assert len(shapes) == after < before, form
        assert all(len(shape) == 3 and shape[-1] == shape[-2]
                   for shape in shapes), form
        assert rep.get("evaluated") == evaluated, form
        assert (rep["partition"] and rep["partition"]["blocks"]) == blocks


def _predicate_scan(fr, r_max, lo_target, hi_target, first_fit=False):
    """First partition, by block count and then enumeration order, whose
    every block Gram spectrum passes the targets, as results store it; with
    first_fit, the first one in enumeration order into at most r_max
    blocks.  None when none does."""
    g = gram_matrix(fr)
    cache = {}

    def ok(blk):
        key = tuple(blk)
        if key not in cache:
            sub = g[np.ix_(blk, blk)]
            w = np.linalg.eigvalsh(0.5 * (sub + sub.conj().T))
            cache[key] = w[0] >= lo_target - 1e-12 and (
                hi_target is None or w[-1] <= hi_target + 1e-12)
        return cache[key]

    for rr in [r_max] if first_fit else range(1, r_max + 1):
        for p in enumerate_partitions(fr.M, rr):
            if all(ok(b) for b in p):
                return {"blocks": p}
    return None


def _match_predicate_scan(first_fit):
    """Riesz and Feichtinger searches against _predicate_scan: exhaustive
    ones against the fewest blocks, first-fit ones against the first
    feasible partition; a search that finds none is exhaustive."""
    verdicts = set()
    frames = [gen_random_unit_frame(3, 8, s) for s in range(2)]
    frames += [gen_harmonic_frame(3, 8), gen_harmonic_frame(2, 9)]
    for fr in frames:
        # at r = M the block cap can fall below the blocks an open prefix uses
        for r in R_VALUES + (fr.M,):
            runs = [(epsilon_riesz_partition(fr, eps, r),
                     (fr, 1.0 - eps, 1.0 + eps)) for eps in (0.3, 0.9)]
            scaled = Frame(fr.synthesis * np.linspace(0.5, 2.0, fr.M))
            runs += [(feichtinger_partition(scaled, a_target, r),
                      (scaled, a_target, None)) for a_target in (0.05, 0.8)]
            for rep, (frame, lo, hi) in runs:
                want = _predicate_scan(frame, r, lo, hi, first_fit)
                assert rep["partition"] == want
                assert rep["mode"] == ("first-fit" if first_fit and want
                                       else "exhaustive")
                verdicts.add(rep["verdict"])
    assert verdicts == {True, False}


def test_riesz_and_feichtinger_match_scan():
    _match_predicate_scan(first_fit=False)


def test_riesz_and_feichtinger_first_fit_match_scan(monkeypatch):
    # past EXHAUSTIVE_INDEX_MAX vectors the walk stops at its first fit
    monkeypatch.setattr(decomposition, "EXHAUSTIVE_INDEX_MAX", 0)
    _match_predicate_scan(first_fit=True)


def test_predicate_walk_checks_leaves_exactly():
    # index 2 fails the lower bound by 2e-12, inside the rounding slack the
    # walk allows before pruning, so only the exact check at a leaf rejects
    fr = Frame(np.diag(np.sqrt([2.0, 2.0, 1.0])))
    for a_target, feasible in ((1.0 + 3e-12, False), (1.0 + 5e-13, True)):
        rep = feichtinger_partition(fr, a_target, 3)
        assert rep["verdict"] == feasible
        assert rep["partition"] == _predicate_scan(fr, 3, a_target, None)


# ---------------------------------------------------------------------------
# the placement budget
# ---------------------------------------------------------------------------

def _full_tree(m, r):
    """Placements of a walk that prunes nothing: one per prefix of every
    partition of {0..m-1} into at most r blocks."""
    return sum(count_partitions(i, r) for i in range(1, m + 1))


def test_walk_counts_one_placement_per_prefix():
    # the last walk is deeper than Python's recursion limit
    for m, r in ((1, 1), (5, 2), (6, 3), (7, 7),
                 (sys.getrecursionlimit() + 1, 1)):
        placed = []

        def get(mask, m=0):
            placed.append(mask)
            return 0.0

        _rgs_walk(m, r, get, lambda carry, price: carry,
                  lambda labels, masks, nblocks: r, 0)
        assert len(placed) == _full_tree(m, r)


def test_walk_prices_siblings_only_up_to_the_index_cap(monkeypatch):
    # past EXHAUSTIVE_INDEX_MAX indices a memo miss prices its block alone:
    # most siblings are never read there (they filled over 3 GB on a
    # 16 x 1500 frame at the default --r-max)
    stacks = []
    bounds = decomposition._gram_block_bounds

    def recorded(g):
        cost = bounds(g)
        return lambda idx: stacks.append(len(idx)) or cost(idx)

    monkeypatch.setattr(decomposition, "_gram_block_bounds", recorded)
    for m in (EXHAUSTIVE_INDEX_MAX, EXHAUSTIVE_INDEX_MAX + 1):
        stacks.clear()
        epsilon_riesz_partition(gen_random_unit_frame(3, m, 0), 0.9, m)
        assert (max(stacks) > 1) == (m <= EXHAUSTIVE_INDEX_MAX)


def test_admitted_trees_fit_the_placement_budget():
    # every (m, r) whose partitions the old Stirling pre-count admitted
    # walks a full tree within the budget, so it still finishes exhaustive
    trees = [_full_tree(m, r) for m in range(1, EXHAUSTIVE_INDEX_MAX + 1)
             for r in range(1, m + 1) if count_partitions(m, r) <= 10**7]
    assert max(trees) == _full_tree(12, 12) == 5_034_584
    assert max(trees) <= PARTITION_BUDGET


def _write_matrix(tmp_path, a):
    path = tmp_path / "matrix.json"
    path.write_text(canonical_json(matrix_to_json(a)))
    return str(path)


@pytest.fixture
def small_budget(monkeypatch):
    monkeypatch.setattr(paving, "PARTITION_BUDGET", 100)


def test_auto_falls_back_to_local_past_the_budget(tmp_path, small_budget):
    t = _write_matrix(tmp_path, _sym(np.random.default_rng(3), 8))
    rep = tmp_path / "pave.json"
    assert main(["pave", "--input", t, "--r-max", "3", "--epsilon", "0.5",
                 "--seed", "4", "--report", str(rep)]) == 0
    res = load_report(str(rep))["payload"]["results"]
    assert res["mode"] == "local" and res["flags"] == {"seed": 4}
    assert verify(str(rep)) == (True, [])


def test_local_search_prices_each_move_round_in_one_stack_per_size(
        monkeypatch):
    """pave --mode local on a 16 x 16 random symmetric matrix at r 4, seed
    0: each move round prices the blocks its moves reach that the memo
    lacks, one stack per block size, so 215 blocks take 25 svd calls where
    a call per missed block took 214.  The partition, the bits of achieved
    and evaluated are those of pricing every block alone."""
    rng = np.random.default_rng(14)
    a = rng.standard_normal((16, 16))
    shapes = []

    def counted(x, *args, _lapack=np.linalg.svd, **kwargs):
        shapes.append(np.shape(x))
        return _lapack(x, *args, **kwargs)

    def search():
        return pave_matrix_check(a + a.T, 4, 0.5, mode="local", seed=0)

    with monkeypatch.context() as patched:
        patched.setattr(np.linalg, "svd", counted)
        rep = search()
    assert (len(shapes), sum(shape[0] for shape in shapes)) == (25, 215)
    with monkeypatch.context() as patched:
        _old_pricing(patched, [])
        old = search()
    assert rep["mode"] == "local"
    assert _fingerprint(rep) == _fingerprint(old)


def test_exhaustive_past_the_budget_exits_3(tmp_path, small_budget, capsys):
    t = _write_matrix(tmp_path, _sym(np.random.default_rng(3), 8))
    assert main(["pave", "--input", t, "--mode", "exhaustive", "--r-max",
                 "3", "--epsilon", "0.5"]) == 3
    err = capsys.readouterr().err
    assert "reached 101 placements, over the 100 allowed" in err
    assert "Traceback" not in err


def test_riesz_is_first_fit_past_the_budget(tmp_path, monkeypatch):
    fr = gen_random_unit_frame(3, 9, 2)
    assert epsilon_riesz_partition(fr, 0.9, 4)["mode"] == "exhaustive"
    monkeypatch.setattr(paving, "PARTITION_BUDGET", 100)
    rep = tmp_path / "riesz.json"
    assert main(["decompose", "--input", _write_matrix(tmp_path, fr.synthesis),
                 "--criterion", "riesz", "--epsilon", "0.9", "--r-max", "4",
                 "--report", str(rep)]) == 0
    res = load_report(str(rep))["payload"]["results"]
    assert res["mode"] == "first-fit" and res["verdict"] is True
    assert verify(str(rep)) == (True, [])


def test_riesz_past_the_budget_with_no_partition_exits_3(
        tmp_path, small_budget, capsys):
    # 3 blocks suffice, but the walk spends its 100 placements before its
    # first fit, so it has neither a partition nor a proof that none exists
    frame = _write_matrix(tmp_path, gen_random_unit_frame(3, 9, 2).synthesis)
    rep = tmp_path / "riesz.json"
    assert main(["decompose", "--input", frame, "--criterion", "riesz",
                 "--epsilon", "0.9", "--r-max", "3",
                 "--report", str(rep)]) == 3
    err = capsys.readouterr().err
    assert "reached 101 placements, over the 100 allowed" in err
    assert "Traceback" not in err
    assert not rep.exists()


def test_a_cap_no_partition_meets_is_decided_by_a_count(
        tmp_path, small_budget):
    # at epsilon 0.5 a block's vectors are independent, so 300 vectors in
    # R^3 need more than the default --r-max of 64 blocks: False at once,
    # where a walk would spend its placement budget and exit 3
    frame = tmp_path / "frame.json"
    assert main(["gen", "--kind", "random-unit", "--n", "3", "--M", "300",
                 "--seed", "0", "--out", str(frame)]) == 0
    rep = tmp_path / "riesz.json"
    assert main(["decompose", "--input", str(frame), "--criterion", "riesz",
                 "--epsilon", "0.5", "--report", str(rep)]) == 0
    res = load_report(str(rep))["payload"]["results"]
    assert res["verdict"] is False and res["partition"] is None
    assert res["mode"] == "exhaustive"
    assert verify(str(rep)) == (True, [])


def test_a_target_inside_the_slack_still_walks():
    # a dependent block passes a target this small, so five vectors in R^2
    # fit one block although 5 > 1 * 2
    fr = gen_random_unit_frame(2, 5, 0)
    rep = feichtinger_partition(fr, 1e-13, 1)
    assert rep["verdict"] is True and rep["mode"] == "exhaustive"
    assert rep["partition"] == _predicate_scan(fr, 1, 1e-13, None) == {
        "blocks": [[0, 1, 2, 3, 4]]}


def test_riesz_search_is_one_walk_with_r_clipped_to_m(monkeypatch):
    walks = []
    walk = decomposition._rgs_walk

    def recorded(m, r, get, admit, leaf, carry):
        walks.append(r)
        return walk(m, r, get, admit, leaf, carry)

    monkeypatch.setattr(decomposition, "_rgs_walk", recorded)
    # the last vector's norm is below the target, so no partition passes,
    # and the walk tries the partitions of the other six into up to 7 blocks
    fr = gen_random_unit_frame(3, 7, 3)
    fr = Frame(fr.synthesis * np.linspace(2.0, 0.5, 7))
    rep = feichtinger_partition(fr, 0.3, 64)
    assert not rep["verdict"] and rep["mode"] == "exhaustive"
    assert walks == [7]


def _hermitian(rng, m):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    h = a + a.conj().T
    np.fill_diagonal(h, 0.0)
    return h


@pytest.mark.parametrize("m, r", [(14, 4), (13, 5)])
def test_walk_finishes_past_the_old_stirling_cap(tmp_path, monkeypatch, m, r):
    # the walk that starts from the greedy bound makes 10,121 and 20,590
    # placements here; one that starts unbounded made 28,112 and 64,727
    assert count_partitions(m, r) > 10**7
    monkeypatch.setattr(paving, "PARTITION_BUDGET", 25_000)
    h = _hermitian(np.random.default_rng(m), m)
    rep = tmp_path / "pave.json"
    assert main(["pave", "--input", _write_matrix(tmp_path, h), "--r-max",
                 str(r), "--epsilon", "0.5", "--report", str(rep)]) == 0
    res = load_report(str(rep))["payload"]["results"]
    assert res["mode"] == "exhaustive" and res["flags"] == {}
    assert verify(str(rep)) == (True, [])
    for seed in range(5):
        local = pave_matrix_check(h, r, 0.5, mode="local", seed=seed)
        assert res["achieved"] <= local["achieved"]


def test_a_zero_leaf_ends_the_walk(tmp_path):
    # every block cost is >= 0, so the first partition of value 0.0 is
    # optimal; the tie-heavy zero matrix no longer walks the whole budget
    rep = tmp_path / "pave.json"
    assert main(["pave", "--input", _write_matrix(tmp_path, np.zeros((14, 14))),
                 "--mode", "exhaustive", "--r-max", "4", "--epsilon", "0.5",
                 "--report", str(rep)]) == 0
    res = load_report(str(rep))["payload"]["results"]
    assert res["mode"] == "exhaustive" and res["evaluated"] == 1
    assert res["achieved"] == 0.0 and res["verdict"] is True
    assert verify(str(rep)) == (True, [])
