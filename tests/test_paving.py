import itertools

import numpy as np
import pytest

from pavekit.core import (
    BudgetExceeded,
    ContractViolation,
    Frame,
    check_blocks,
    gen_harmonic_frame,
    gen_random_projection,
    gen_random_unit_frame,
    within,
)
from pavekit.paving import (
    delta_diag,
    pave_matrix_check,
    pave_projection_check,
    weaver_check,
    wkhb_partition,
)


def _sym(rng, m, zero_diag=True):
    a = rng.standard_normal((m, m))
    a = a + a.T
    if zero_diag:
        np.fill_diagonal(a, 0.0)
    return a


def _brute_min_paving(t0, r):
    """Independent oracle: minimum over all labelings, deduplicated by the
    induced block family."""
    m = t0.shape[0]
    best = np.inf
    seen = set()
    for labels in itertools.product(range(r), repeat=m):
        key = frozenset(
            frozenset(i for i in range(m) if labels[i] == b) for b in range(r)
        ) - {frozenset()}
        if key in seen:
            continue
        seen.add(key)
        val = max(
            np.linalg.norm(t0[np.ix_(sorted(blk), sorted(blk))], 2)
            for blk in key
        )
        best = min(best, val)
    return best


def paving_norm(t, blocks):
    """(max, per-block) operator norms of the diagonal compressions of
    T - D(T) onto blocks."""
    t0 = t - np.diag(np.diag(t))
    per = [np.linalg.norm(t0[np.ix_(blk, blk)], 2) for blk in blocks]
    return max(per), per


def test_paving_norm_matches_compression_oracle():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((6, 6))
    p = [[0, 2, 4], [1, 3], [5]]
    mx, per = paving_norm(t, p)
    t0 = t - np.diag(np.diag(t))
    for blk, val in zip(p, per):
        q = np.diag(np.isin(np.arange(6), blk).astype(float))
        assert abs(np.linalg.norm(q @ t0 @ q, 2) - val) < 1e-10
    assert mx == max(per)


def test_antidiagonal_paves_to_zero():
    t = np.array([[0.0, 1.0], [1.0, 0.0]])
    rep = pave_matrix_check(t, 2, 0.5, mode="exhaustive")
    assert rep["achieved"] == 0.0
    assert rep["verdict"]
    assert sorted(map(tuple, rep["partition"]["blocks"])) == [(0,), (1,)]


def test_exhaustive_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(8):
        t = _sym(rng, 6)
        rep = pave_matrix_check(t, 3, 0.5, mode="exhaustive")
        assert rep["achieved"] == _brute_min_paving(t, 3)


def test_local_never_beats_exhaustive():
    rng = np.random.default_rng(2)
    for seed in range(6):
        t = _sym(rng, 8)
        ex = pave_matrix_check(t, 3, 0.5, mode="exhaustive")
        lo = pave_matrix_check(t, 3, 0.5, mode="local", seed=seed)
        assert lo["achieved"] >= ex["achieved"] - 1e-12
        # the local partition's claimed value is honest
        mx, _ = paving_norm(t, check_blocks(lo["partition"]["blocks"], 8))
        assert abs(mx - lo["achieved"]) < 1e-12


def test_refinement_never_hurts():
    rng = np.random.default_rng(3)
    t = _sym(rng, 8)
    p = [[0, 1, 2, 3], [4, 5, 6, 7]]
    q = [[0, 1], [2, 3], [4, 5, 6, 7]]
    assert paving_norm(t, q)[0] <= paving_norm(t, p)[0] + 1e-12


def test_diagonal_is_always_removed():
    rng = np.random.default_rng(4)
    t = _sym(rng, 6, zero_diag=False)
    shifted = t + np.diag(rng.standard_normal(6))
    p = [[0, 1, 2], [3, 4, 5]]
    assert abs(paving_norm(t, p)[0] - paving_norm(shifted, p)[0]) < 1e-12


def test_exhaustive_budget():
    with pytest.raises(BudgetExceeded):
        pave_matrix_check(np.zeros((15, 15)), 3, 0.5, mode="exhaustive")


def test_projection_paving():
    p = gen_random_projection(8, 3, 0)
    rep = pave_projection_check(p, 3, 0.3)
    assert rep["form"] == "projection"
    for blk, val in zip(rep["partition"]["blocks"], rep["per_block"]):
        sub = p[np.ix_(blk, blk)]
        assert abs(np.linalg.norm(sub, 2) - val) < 1e-10
    assert rep["verdict"] == within(rep["achieved"], 1.0 - 0.3)
    # diagonal precondition: rank-3 projection on 8 indices has some
    # diagonal entry >= 3/8, so a tiny delta must trip the flag
    rep2 = pave_projection_check(p, 3, 0.3, delta=0.01)
    assert rep2["flags"].get("precondition_violated")
    assert rep2["flags"]["diag_delta"] == delta_diag(p)
    with pytest.raises(ContractViolation):
        pave_projection_check(np.eye(3) * 0.5, 2, 0.5)


def test_weaver_on_harmonic():
    fr = gen_harmonic_frame(2, 6)      # tight, bessel exactly 3
    rep = weaver_check(fr, 3.0, 1.0, 2)
    assert abs(rep["flags"]["bessel_actual"] - 3.0) < 1e-9
    assert "precondition_violated" not in rep["flags"]
    assert rep["target"] == 2.0
    for blk, val in zip(rep["partition"]["blocks"], rep["per_block"]):
        sub = fr.synthesis[:, blk]
        w = np.linalg.eigvalsh(sub @ sub.conj().T)
        assert abs(val - w[-1]) < 1e-9
    rep2 = weaver_check(fr, 2.0, 0.5, 2)   # claimed bessel below actual
    assert rep2["flags"].get("precondition_violated")
    with pytest.raises(ContractViolation):
        weaver_check(Frame(np.eye(2) * 2.0), 4.0, 1.0, 2)   # not unit-norm


def test_wkhb_certificate_seeded():
    rng = np.random.default_rng(5)
    for trial in range(6):
        m = 20
        a = np.abs(_sym(rng, m))
        np.fill_diagonal(a, 0.0)
        for r in (2, 3, 4):
            res = wkhb_partition(a, r, seed=trial)
            assert res["certified"]
            labels = res["labels"]
            # independent recomputation of the masses
            for i in range(m):
                in_mass = sum(a[i, j] for j in range(m)
                              if labels[j] == labels[i])
                for b in range(r):
                    cross = sum(a[i, j] for j in range(m) if labels[j] == b)
                    assert in_mass <= cross + 1e-9
                assert in_mass <= a[i].sum() / r + 1e-9


def test_wkhb_single_block_trivial():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    res = wkhb_partition(a, 1)
    assert res["certified"] and res["moves"] == 0


def test_wkhb_input_validation():
    good = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ContractViolation):
        wkhb_partition(-good, 2)                      # negative entries
    with pytest.raises(ContractViolation):
        wkhb_partition(np.triu(good), 2)              # asymmetric
    with pytest.raises(ContractViolation):
        wkhb_partition(good + np.eye(2), 2)           # nonzero diagonal
