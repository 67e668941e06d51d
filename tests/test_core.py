import json

import numpy as np
import pytest

from oracles import base64_by_struct, count_partitions
from pavekit.core import (
    ContractViolation,
    Frame,
    check_blocks,
    ensure_matrix,
    enumerate_partitions,
    frame_from_json,
    frame_to_json,
    gen_harmonic_frame,
    gen_random_projection,
    gen_random_unit_frame,
    is_hermitian,
    label_blocks,
    matrix_from_json,
    matrix_to_json,
    numeric_rank,
    operator_norm,
    sym_eig,
)
from pavekit.reports import canonical_json


def test_partition_counts():
    assert count_partitions(2, 2) == 2
    assert count_partitions(3, 3) == 5
    assert count_partitions(4, 2) == 8
    assert count_partitions(1, 1) == 1
    assert count_partitions(5, 1) == 1
    # at most r blocks, so widening r beyond M saturates at the Bell number
    assert count_partitions(4, 4) == count_partitions(4, 9) == 15


def test_enumeration_matches_counts_and_is_canonical():
    for m in range(1, 8):
        for r in range(1, 5):
            seen = set()
            for blocks in enumerate_partitions(m, r):
                lab = [0] * m
                for b, blk in enumerate(blocks):
                    assert blk and blk == sorted(blk)
                    for i in blk:
                        lab[i] = b
                lab = tuple(lab)
                assert sorted(sum(blocks, [])) == list(range(m))
                assert lab[0] == 0
                # restricted growth: each new label exceeds the running max by 1
                top = 0
                for x in lab:
                    assert x <= top
                    top = max(top, x + 1)
                assert len(set(lab)) <= r
                seen.add(lab)
            assert len(seen) == count_partitions(m, r)


def test_label_blocks_drops_empty_labels_in_first_appearance_order():
    assert label_blocks([2, 0, 2, 1, 0]) == [[0, 2], [1, 4], [3]]
    assert label_blocks((0,)) == [[0]]


def test_check_blocks():
    blocks = [[0, 2], [1], [3, 4]]
    assert check_blocks(blocks, 5) == blocks
    assert check_blocks([[4, 3], [1], [2, 0]], 5) == [[3, 4], [1], [0, 2]]
    with pytest.raises(ContractViolation):
        check_blocks(blocks, 4)                   # names index 4 of 0..3
    with pytest.raises(ContractViolation):
        check_blocks([[0, 1], [1, 2]], 3)         # overlap
    with pytest.raises(ContractViolation):
        check_blocks([[0], [2]], 3)               # gap


def test_random_unit_frame_deterministic_and_unit():
    for seed in range(5):
        a = gen_random_unit_frame(3, 7, seed)
        b = gen_random_unit_frame(3, 7, seed)
        assert np.array_equal(a.synthesis, b.synthesis)
        norms = np.linalg.norm(a.synthesis, axis=0)
        assert np.abs(norms - 1.0).max() < 1e-12
        assert numeric_rank(a.synthesis) == 3
    c = gen_random_unit_frame(3, 7, 0, field="complex")
    assert np.iscomplexobj(c.synthesis)
    assert np.abs(np.linalg.norm(c.synthesis, axis=0) - 1.0).max() < 1e-12


def test_harmonic_frame_is_tight():
    for n, m in [(2, 4), (3, 7), (4, 12)]:
        fr = gen_harmonic_frame(n, m)
        s = fr.synthesis @ fr.synthesis.conj().T
        assert np.abs(s - (m / n) * np.eye(n)).max() < 1e-12
        assert np.abs(np.linalg.norm(fr.synthesis, axis=0) - 1.0).max() < 1e-12


def test_random_projection_is_projection():
    for seed in range(4):
        p = gen_random_projection(8, 3, seed)
        assert np.abs(p @ p - p).max() < 1e-12
        assert is_hermitian(p)
        assert numeric_rank(p) == 3
        assert abs(np.trace(p).real - 3.0) < 1e-12


def test_matrix_json_roundtrip_exact():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 5))
    b = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    signed_zeros = np.array([[-0.0, 1.5], [0.1, -0.0], [2.0, -1e-300]])
    cplx_zeros = np.array([[-0.0, 0.0, 1.0, -0.0], [0.5, -0.0, -0.0, 3.0]])
    for m in (a, b, signed_zeros, cplx_zeros.view(np.complex128)):
        got = matrix_from_json(json.loads(canonical_json(matrix_to_json(m))))
        assert got.dtype == m.dtype and got.shape == m.shape
        assert got.tobytes() == m.tobytes()
    fr = Frame(a)
    fr2 = frame_from_json(frame_to_json(fr))
    assert np.array_equal(fr2.synthesis, fr.synthesis)


def test_matrix_to_json_matches_per_entry_encoder():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 5))
    b = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    for m in (a, b, a.T):
        assert matrix_to_json(m)["base64"] == base64_by_struct(m)


def test_matrix_json_field_mismatch():
    assert matrix_to_json(np.eye(2))["field"] == "real"
    d = {"rows": 2, "cols": 2, "field": "real",
         "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}
    assert np.array_equal(matrix_from_json(d), np.eye(2))
    d["entries"][0][1] = 0.5   # imaginary part sneaked into a real matrix
    with pytest.raises(ContractViolation):
        matrix_from_json(d)


def test_ensure_matrix_rejects_bad_input():
    with pytest.raises(ContractViolation):
        ensure_matrix(np.array([1.0, 2.0]))
    with pytest.raises(ContractViolation):
        ensure_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_sym_eig_matches_numpy():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.standard_normal((6, 6))
        a = a + a.T
        w, v = sym_eig(a)
        assert np.allclose(np.sort(w), np.linalg.eigvalsh(a), atol=1e-10)
        assert np.abs(v @ np.diag(w) @ v.T - a).max() < 1e-8


def test_operator_norm_and_rank():
    a = np.diag([3.0, 1.0, 0.0])
    assert abs(operator_norm(a) - 3.0) < 1e-12
    assert numeric_rank(a) == 2
    assert numeric_rank(np.zeros((3, 3))) == 0


def test_frame_shape_contract():
    with pytest.raises(ContractViolation):
        Frame(np.zeros((3, 0)))
