import itertools

import numpy as np
import pytest

from frame_cases import oracle_frames
from pavekit.core import (
    BudgetExceeded,
    ContractViolation,
    Frame,
    gen_harmonic_frame,
    gen_random_unit_frame,
    numeric_rank,
)
from pavekit.erasures import (
    cc_partition_search,
    ccc_partition_search,
    erasure_robustness,
    phase_retrieval_check,
)
from pavekit.frames import parseval_normalize


def _slow_worst(fr, k):
    worst = np.inf
    for erased in itertools.combinations(range(fr.M), k):
        keep = [i for i in range(fr.M) if i not in erased]
        t = fr.synthesis[:, keep]
        w = np.linalg.eigvalsh(t @ t.conj().T)
        worst = min(worst, max(float(w[0]), 0.0))
    return worst


def test_erasure_matches_slow_oracle():
    for n, m in [(2, 5), (3, 6)]:
        fr = gen_random_unit_frame(n, m, 1)
        for k in (0, 1, 2):
            rep = erasure_robustness(fr, k)
            assert abs(rep.worst_value - _slow_worst(fr, k)) < 1e-12
            assert rep.subsets_scanned == len(
                list(itertools.combinations(range(m), k)))
            assert rep.value_min <= rep.value_max + 1e-15


def test_erasure_parseval_identity_runs():
    fr = parseval_normalize(gen_harmonic_frame(3, 6))
    rep = erasure_robustness(fr, 2)
    assert rep.is_parseval and rep.identity_checked
    # complementarity, re-derived here for the worst witness
    sub = rep.worst_subset
    g = fr.synthesis.conj().T @ fr.synthesis
    w = np.linalg.eigvalsh(g[np.ix_(sub, sub)])
    assert abs((1.0 - w[-1]) - rep.worst_value) < 1e-9


def test_erasure_k_zero_and_validation():
    fr = gen_random_unit_frame(2, 4, 0)
    rep = erasure_robustness(fr, 0)
    assert rep.worst_value == rep.value_min == rep.value_max
    assert not rep.identity_checked
    with pytest.raises(ContractViolation):
        erasure_robustness(fr, 4)


def test_cc_bipartition_matches_brute_force():
    fr = parseval_normalize(gen_harmonic_frame(2, 4))
    res = cc_partition_search(fr)
    # oracle: all proper bipartitions
    best = -np.inf
    for size in range(1, 4):
        for side in itertools.combinations(range(4), size):
            if 0 not in side:
                continue
            comp = [i for i in range(4) if i not in side]
            vals = []
            for half in (list(side), comp):
                t = fr.synthesis[:, half]
                w = np.linalg.eigvalsh(t @ t.conj().T)
                vals.append(max(float(w[0]), 0.0))
            best = max(best, min(vals))
    assert abs(res["best_value"] - best) < 1e-12
    assert res["scanned"] == 2 ** 3 - 1


def test_ccc_partition_certificates():
    fr = parseval_normalize(gen_harmonic_frame(2, 6))
    res = ccc_partition_search(fr, 3, 0.4)
    assert res["mode"] == "exhaustive"
    for entry in res["blocks"]:
        t = fr.synthesis[:, entry["block"]]
        w = np.linalg.eigvalsh(t @ t.conj().T)
        assert abs(entry["lambda_max"] - w[-1]) < 1e-9
    assert res["verdict"] == (res["achieved"] <= res["target"] + 1e-12)
    with pytest.raises(ContractViolation):
        ccc_partition_search(gen_random_unit_frame(2, 6, 0), 3, 0.4)


def test_phase_retrieval_positive():
    # generic 3 vectors in the plane: every bipartition leaves a spanning side
    fr = gen_random_unit_frame(2, 3, 4)
    rep = phase_retrieval_check(fr, trials=300, seed=0)
    assert rep["verdict"] and rep["witness"] is None
    assert rep["solvable"] >= 2       # the two uniform patterns always solve
    assert rep["failures"] == 0


def test_phase_retrieval_negative_witness():
    fr = Frame(np.eye(2))
    rep = phase_retrieval_check(fr, trials=50, seed=0)
    assert not rep["verdict"]
    assert rep["witness"] == {"side": [0], "complement": [1]}


def _bipartition_oracle(t):
    """First bipartition, index 0 on side, with neither side spanning."""
    n, m = t.shape
    for size in range(m):
        for extra in itertools.combinations(range(1, m), size):
            side = [0, *extra]
            comp = [i for i in range(m) if i not in side]
            if numeric_rank(t[:, side]) < n and \
                    (not comp or numeric_rank(t[:, comp]) < n):
                return side, comp
    return None


def test_phase_retrieval_matches_bipartition_oracle():
    verdicts = set()
    for fr in oracle_frames(0, 60):
        rep = phase_retrieval_check(fr, trials=20, seed=0)
        t, n = fr.synthesis, fr.n
        assert rep["verdict"] == (_bipartition_oracle(t) is None), t
        verdicts.add(rep["verdict"])
        if not rep["verdict"]:
            side, comp = rep["witness"]["side"], rep["witness"]["complement"]
            assert 0 in side and sorted(side + comp) == list(range(fr.M))
            assert numeric_rank(t[:, side]) < n
            assert not comp or numeric_rank(t[:, comp]) < n
    assert verdicts == {True, False}


def test_phase_retrieval_contracts():
    with pytest.raises(ContractViolation):
        phase_retrieval_check(gen_random_unit_frame(2, 4, 0, field="complex"))
    # C(60, 7) candidate hyperplanes are past the subset budget
    with pytest.raises(BudgetExceeded):
        phase_retrieval_check(gen_random_unit_frame(8, 60, 0), trials=1)
    assert phase_retrieval_check(gen_random_unit_frame(2, 23, 0),
                                 trials=10)["verdict"]


def test_phase_retrieval_rank_deficient():
    fr = Frame(np.array([[1.0, 0.5], [0.0, 0.0]]))
    rep = phase_retrieval_check(fr, trials=10, seed=0)
    assert not rep["verdict"]
    assert rep["witness"]["side"] == [0, 1]
