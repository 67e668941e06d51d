import itertools
import math

import numpy as np
import pytest

from frame_cases import oracle_frames
from pavekit.core import (
    ContractViolation,
    Frame,
    check_blocks,
    gen_harmonic_frame,
    gen_random_unit_frame,
    numeric_rank,
    within,
)
from pavekit.decomposition import (
    Subspace,
    decomposition_vectors,
    epsilon_riesz_partition,
    feichtinger_partition,
    is_large,
    is_r_decomposable,
    mixed_norm,
    rado_horn_check,
    restricted_isometry,
    tp1_partition,
)
from pavekit.frames import parseval_normalize, spectral_summary


def test_riesz_bounds_match_gram():
    fr = gen_random_unit_frame(3, 3, 0)
    summ = spectral_summary(fr)
    lo, hi = summ["riesz_lower"], summ["riesz_upper"]
    g = fr.synthesis.conj().T @ fr.synthesis
    w = np.linalg.eigvalsh(0.5 * (g + g.conj().T))
    assert abs(lo - w[0]) < 1e-10 and abs(hi - w[-1]) < 1e-10
    # dependent family: no Riesz bounds
    dep = Frame(np.array([[1.0, 2.0], [0.0, 0.0]]))
    assert spectral_summary(dep)["riesz_lower"] is None


def test_riesz_partition_orthonormal_single_block():
    rep = epsilon_riesz_partition(Frame(np.eye(4)), 0.5, 4)
    assert rep["verdict"] and len(rep["partition"]["blocks"]) == 1


def test_riesz_partition_certificates():
    for seed in range(5):
        fr = gen_random_unit_frame(3, 8, seed)
        rep = epsilon_riesz_partition(fr, 0.95, 5)
        assert rep["verdict"]
        for blk, (lo, hi) in zip(rep["partition"]["blocks"],
                                 rep["per_block"]):
            sub = fr.synthesis[:, blk]
            g = sub.conj().T @ sub
            w = np.linalg.eigvalsh(0.5 * (g + g.conj().T))
            assert abs(w[0] - lo) < 1e-10 and abs(w[-1] - hi) < 1e-10
            assert lo >= 0.05 - 1e-9 and hi <= 1.95 + 1e-9


def test_riesz_partition_rejects_bad_epsilon():
    fr = gen_random_unit_frame(2, 3, 0)
    for eps in (0.0, 1.0, -0.5):
        with pytest.raises(ContractViolation):
            epsilon_riesz_partition(fr, eps, 2)


def test_feichtinger_partition():
    for seed in range(5):
        fr = gen_random_unit_frame(3, 9, seed)
        rep = feichtinger_partition(fr, 0.05, 5)
        assert rep["verdict"]
        for blk, (lo, _) in zip(rep["partition"]["blocks"],
                                rep["per_block"]):
            sub = fr.synthesis[:, blk]
            w = np.linalg.eigvalsh(sub.conj().T @ sub)
            assert w[0] >= 0.05 - 1e-9 and abs(w[0] - lo) < 1e-10
    with pytest.raises(ContractViolation):
        feichtinger_partition(Frame(np.zeros((2, 2))), 0.1, 2)


def test_restricted_isometry_small_cases():
    fr = Frame(np.eye(3))
    d1, _ = restricted_isometry(fr, 1)
    assert d1 == 0.0                       # unit vectors: delta_1 vanishes
    d3, _ = restricted_isometry(fr, 3)
    assert d3 == 0.0                       # orthonormal: all deltas vanish
    # two copies of one vector: delta_2 = 1 via the pair
    rep = Frame(np.array([[1.0, 1.0], [0.0, 0.0]]))
    d2, worst = restricted_isometry(rep, 2)
    assert abs(d2 - 1.0) < 1e-12 and sorted(worst) == [0, 1]


def test_restricted_isometry_monotone_and_exact():
    fr = gen_random_unit_frame(4, 8, 1)
    deltas = [restricted_isometry(fr, s)[0] for s in (1, 2, 3)]
    assert deltas[0] <= deltas[1] + 1e-12 <= deltas[2] + 2e-12
    # oracle: recompute delta_2 by hand
    best = 0.0
    for pair in itertools.combinations(range(8), 2):
        sub = fr.synthesis[:, pair]
        w = np.linalg.eigvalsh(sub.T @ sub)
        best = max(best, w[-1] - 1.0, 1.0 - w[0])
    assert abs(best - deltas[1]) < 1e-12


def test_tp1_partition_end_to_end():
    for seed in range(3):
        fr = gen_random_unit_frame(6, 12, seed)
        rep = tp1_partition(fr, 2, 0.8, seed=seed)
        assert rep["verdict"]
        for blk, d in zip(rep["partition"]["blocks"],
                          rep["per_block_delta"]):
            sub = Frame(fr.synthesis[:, blk])
            oracle, _ = restricted_isometry(sub, min(2, len(blk)))
            assert abs(oracle - d) < 1e-12
            assert oracle <= 0.8 + 1e-9
        assert rep["flags"]["escalations"]


def test_tp1_rejects_non_unit():
    with pytest.raises(ContractViolation):
        tp1_partition(Frame(np.eye(2) * 2.0), 1, 0.5)


def _max_ratio_oracle(fr):
    """max |J| / rank J over every nonempty index subset, by enumeration."""
    best = 0.0
    for size in range(1, fr.M + 1):
        for sub in itertools.combinations(range(fr.M), size):
            rank = numeric_rank(fr.synthesis[:, sub])
            best = max(best, math.inf if rank == 0 else size / rank)
    return best


def test_rado_horn_check():
    # three copies of e1 cannot split into two independent blocks
    bad = Frame(np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]))
    assert rado_horn_check(bad, 2) == (
        False, None, {"subset": [0, 1, 2], "size": 3, "rank": 1, "ratio": 3.0})
    verdicts = set()
    for fr in oracle_frames(0, 45):
        worst = _max_ratio_oracle(fr)
        for r in range(1, 5):
            ok, part, witness = rado_horn_check(fr, r)
            assert ok == within(worst, r), (fr.synthesis, r)
            verdicts.add(ok)
            if ok:
                assert witness is None and len(part) <= r
                assert check_blocks(part, fr.M) == part
                for blk in part:
                    assert numeric_rank(fr.synthesis[:, blk]) == len(blk)
            else:
                sub = witness["subset"]
                assert part is None and witness["size"] == len(sub)
                assert witness["rank"] == numeric_rank(fr.synthesis[:, sub])
                assert witness["size"] > r * witness["rank"]
    assert verdicts == {True, False}


def test_rado_horn_partition_blocks_independent():
    for n, k in [(2, 2), (3, 2)]:
        fr = parseval_normalize(gen_harmonic_frame(n, k * n))
        ok, part, witness = rado_horn_check(fr, k)
        assert ok and witness is None and len(part) == k
        for blk in part:
            assert len(blk) == n
            assert numeric_rank(fr.synthesis[:, blk]) == n


def test_rado_horn_partition_infeasible_witness():
    # a zero column is a witness of rank 0, whose ratio is null, not infinite
    bad = Frame(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    assert rado_horn_check(bad, 2) == (
        False, None, {"subset": [1], "size": 1, "rank": 0, "ratio": None})


def test_rado_horn_has_no_index_cap():
    fr = gen_random_unit_frame(2, 21, 0)
    assert rado_horn_check(fr, 11)[0]
    ok, _, witness = rado_horn_check(fr, 10)
    assert not ok and witness["size"] == 21 and witness["rank"] == 2


def test_mixed_norm_basics():
    assert mixed_norm(np.array([0.0, 1.0, 0.0])) == 2.0
    assert mixed_norm(np.zeros(4)) == 0.0
    with pytest.raises(ContractViolation):
        mixed_norm(np.array([]))


def _flat_average_vector(n):
    """x = (1/sqrt(n)) * sum of n disjoint two-spike vectors, each normalized
    to mixed norm one."""
    x = np.zeros(2 * n)
    for i in range(n):
        f = np.zeros(2 * n)
        f[2 * i] = f[2 * i + 1] = 1.0 / (math.sqrt(2.0) + 1.0)
        x += f / math.sqrt(n)
    return x


def test_mixed_norm_flat_average_value():
    for n in (4, 16, 64):
        want = (math.sqrt(2.0) + 1.0 / math.sqrt(n)) / (math.sqrt(2.0) + 1.0)
        got = mixed_norm(_flat_average_vector(n))
        assert abs(got - want) < 1e-12
        # averaging n mixed-norm-one vectors loses a fixed fraction of norm:
        # the reciprocal stays above 5/4 however large n grows
        assert 1.0 / got > 1.25


def test_mixed_norm_frozen_values():
    frozen = {4: 0.7928932188134525, 16: 0.6893398282201788,
              64: 0.6375631329235419}
    for n, val in frozen.items():
        assert abs(mixed_norm(_flat_average_vector(n)) - val) < 1e-15


def test_subspace_construction():
    with pytest.raises(ContractViolation):
        Subspace(np.ones((3, 2)))         # not orthonormal
    sub = Subspace.from_span(np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]))
    assert sub.dim == 1 and sub.ambient == 3
    p = sub.basis @ sub.basis.conj().T
    assert np.abs(p @ p - p).max() < 1e-12


def test_is_large():
    sub = Subspace(np.array([[1.0], [0.0]]))
    ok, mn = is_large(sub, 0.1)
    assert not ok and mn == 0.0
    full = Subspace(np.eye(3))
    ok, mn = is_large(full, 1.0)
    assert ok and abs(mn - 1.0) < 1e-12


def test_full_space_singleton_blocks_give_basis_vectors():
    full = Subspace(np.eye(4))
    p = [[i] for i in range(4)]
    ok, ranks = is_r_decomposable(full, p)
    assert ok and ranks == [1, 1, 1, 1]
    for entry in decomposition_vectors(full, p):
        i = entry["indices"][0]
        e = np.zeros(4)
        e[i] = 1.0
        assert np.abs(entry["vectors"][:, 0] - e).max() < 1e-12
        assert entry["bessel"] < 1e-20


def test_decomposition_vectors_stay_in_subspace():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 2)))
    sub = Subspace(q)
    p = [[0], [1, 2]]
    ok, _ = is_r_decomposable(sub, p)
    if not ok:
        pytest.skip("random subspace degenerate for this seed")
    proj = sub.basis @ sub.basis.conj().T
    for entry in decomposition_vectors(sub, p):
        v = entry["vectors"]
        assert np.abs(proj @ v - v).max() < 1e-9   # lies in the subspace
        blk = entry["indices"]
        assert np.abs(v[blk, :] - np.eye(len(blk))).max() < 1e-9
        assert entry["bessel"] >= -1e-15


def test_non_decomposable_raises():
    sub = Subspace(np.array([[1.0], [0.0], [0.0]]))
    p = [[0, 1], [2]]
    with pytest.raises(ContractViolation):
        decomposition_vectors(sub, p)
