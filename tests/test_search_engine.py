"""Parity of the branch-and-bound partition engine with a full scan.

The oracles below enumerate every canonical partition and price each one
from scratch, the way the searches worked before pruning: the engine must
return the same partition, not just the same value, on random inputs and
on tie-heavy ones where many partitions share the optimum.
"""

import numpy as np
import pytest

from pavekit.core import (
    Frame,
    count_partitions,
    enumerate_partitions,
    gen_harmonic_frame,
    gen_random_projection,
    gen_random_unit_frame,
    operator_norm,
    sym_eig,
)
from pavekit.decomposition import epsilon_riesz_partition, feichtinger_partition
from pavekit.erasures import ccc_partition_search
from pavekit.frames import gram_matrix
from pavekit.paving import pave_exhaustive, pave_projection_check, weaver_check


def _scan(m, r_max, cost):
    """First partition in enumeration order with the least max block cost."""
    cache = {}
    best = None
    for p in enumerate_partitions(m, r_max):
        per = []
        for blk in p.blocks():
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
    assert rep_partition == want_part
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


@pytest.mark.parametrize("r", R_VALUES)
def test_matrix_paving_matches_scan(r):
    for t in _matrices():
        rep = pave_exhaustive(t, r, 0.5)
        t0 = t - np.diag(np.diag(t))
        oracle = _scan(t.shape[0], r,
                       lambda blk: operator_norm(t0[np.ix_(blk, blk)]))
        _check(rep.partition, rep.achieved, rep.evaluated, t.shape[0], r,
               oracle)


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
        assert rep.mode == "exhaustive"
        oracle = _scan(p.shape[0], r,
                       lambda blk: operator_norm(p[np.ix_(blk, blk)]))
        _check(rep.partition, rep.achieved, rep.evaluated, p.shape[0], r,
               oracle)


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
            w, _ = sym_eig(g[np.ix_(blk, blk)])
            return float(max(w[-1], 0.0))

        _check(rep.partition, rep.achieved, rep.evaluated, fr.M, r,
               _scan(fr.M, r, cost))


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
        res = ccc_partition_search(fr, r, 0.4)
        assert res["mode"] == "exhaustive"
        g = gram_matrix(fr)

        def cost(blk):
            sub = g[np.ix_(blk, blk)]
            w = np.linalg.eigvalsh(0.5 * (sub + sub.conj().T))
            return float(max(w[-1], 0.0))

        _check(res["partition"], res["achieved"], res["scanned"], fr.M, r,
               _scan(fr.M, r, cost))


def _predicate_scan(fr, r_max, lo_target, hi_target):
    """First partition, by block count and then enumeration order, whose
    every block Gram spectrum passes the targets; None when none does."""
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

    for rr in range(1, r_max + 1):
        for p in enumerate_partitions(fr.M, rr):
            if all(ok(b) for b in p.blocks()):
                return p
    return None


def test_riesz_and_feichtinger_match_scan():
    verdicts = set()
    frames = [gen_random_unit_frame(3, 8, s) for s in range(2)]
    frames += [gen_harmonic_frame(3, 8), gen_harmonic_frame(2, 9)]
    for fr in frames:
        for r in R_VALUES:
            for eps in (0.3, 0.9):
                rep = epsilon_riesz_partition(fr, eps, r)
                want = _predicate_scan(fr, r, 1.0 - eps, 1.0 + eps)
                assert rep.mode == "exhaustive"
                assert rep.partition == want
                verdicts.add(rep.verdict)
            for a_target in (0.05, 0.8):
                scaled = Frame(fr.synthesis * np.linspace(0.5, 2.0, fr.M))
                rep = feichtinger_partition(scaled, a_target, r)
                want = _predicate_scan(scaled, r, a_target, None)
                assert rep.partition == want
                verdicts.add(rep.verdict)
    assert verdicts == {True, False}


def test_predicate_walk_checks_leaves_exactly():
    # index 2 fails the lower bound by 2e-12, inside the rounding slack the
    # walk allows before pruning, so only the exact check at a leaf rejects
    fr = Frame(np.diag(np.sqrt([2.0, 2.0, 1.0])))
    for a_target, feasible in ((1.0 + 3e-12, False), (1.0 + 5e-13, True)):
        rep = feichtinger_partition(fr, a_target, 3)
        assert rep.verdict == feasible
        assert rep.partition == _predicate_scan(fr, 3, a_target, None)
