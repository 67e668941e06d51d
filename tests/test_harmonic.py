import json
import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    mv_theta_by_quadrature,
    toeplitz_section_by_sums,
    translate_average_by_rolls,
)
from pavekit.core import ContractViolation
from pavekit.harmonic import (
    GridFunction,
    ap_blocks,
    christensen_bounds,
    distribution_check,
    example_e1_set,
    grid_indicator,
    kadec_bounds,
    kadec_empirical_check,
    montgomery_vaughan_theta,
    toeplitz_section,
    translate_average,
    tt3_identity_check,
    uniform_feichtinger_criterion,
    uniform_paving_criterion,
)
from pavekit import harmonic, reports
from pavekit.reports import canonical_json


def _trig_poly(rng, n, terms=6):
    freqs = rng.choice(np.arange(-(n // 2 - 1), n // 2), size=terms,
                       replace=False)
    coeffs = rng.standard_normal(terms) + 1j * rng.standard_normal(terms)
    x = np.arange(n) / n
    vals = np.zeros(n, dtype=np.complex128)
    for f, c in zip(freqs, coeffs):
        vals += c * np.exp(2j * np.pi * f * x)
    return GridFunction(vals)


def test_grid_function_json_roundtrip():
    rng = np.random.default_rng(0)
    signed_zeros = np.array([-0.0, -0.0, 1.0, 0.0, 0.0, -0.0, -2.5, 3.0])
    for g in (_trig_poly(rng, 24), GridFunction(signed_zeros),
              GridFunction(signed_zeros.view(np.complex128))):
        h = GridFunction.from_json(json.loads(canonical_json(g.to_json())))
        assert h.values.dtype == g.values.dtype and h.N == g.N
        assert h.values.tobytes() == g.values.tobytes()


def test_translate_and_divisor_contract():
    g = grid_indicator(12, np.arange(12) < 3)
    with pytest.raises(ContractViolation):
        translate_average(g, 5)            # 5 does not divide 12


def test_identity_keystone_on_random_polynomials():
    rng = np.random.default_rng(1)
    for _ in range(50):
        g = _trig_poly(rng, 360)
        for k in (2, 3, 4, 6, 180, 360):
            ok, resid = tt3_identity_check(g, k)
            assert ok, f"residual {resid} at K={k}"


def _divisors(n):
    return [k for k in range(1, n + 1) if n % k == 0]


def test_orbit_transforms_match_the_roll_oracles():
    g = _trig_poly(np.random.default_rng(8), 360)
    for g in (g, GridFunction(g.values.real)):
        tol = 1e-12 * (1.0 + g.sup_sq())
        for k in _divisors(360):
            avg = translate_average(g, k).values
            assert np.abs(avg - translate_average_by_rolls(g, k)).max() <= tol


def test_sections_match_the_difference_sums():
    rng = np.random.default_rng(9)
    n = 360
    bound = n // 2 - 1
    for _ in range(5):
        g = _trig_poly(rng, n)
        for g in (GridFunction(np.abs(g.values) ** 2),
                  GridFunction(g.values.real)):
            tol = 1e-12 * (1.0 + g.sup_sq())
            sets = [[-bound, 0, bound], [bound, -bound]]
            sets += [rng.choice(np.arange(-bound, bound + 1),
                                size=int(rng.integers(1, 17)), replace=False)
                     for _ in range(4)]
            for freqs in sets:
                got = toeplitz_section(g, freqs)
                want = toeplitz_section_by_sums(g, freqs)
                assert np.abs(got - want).max() <= tol, list(freqs)


def test_grid_transforms_count_no_rolls_and_one_fft_per_modulus(monkeypatch):
    calls = {"roll": 0, "fft": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np, "roll", counted("roll", np.roll))
    monkeypatch.setattr(np.fft, "fft", counted("fft", np.fft.fft))
    g = _trig_poly(np.random.default_rng(10), 360)
    for k in _divisors(360):
        translate_average(g, k)
        calls["fft"] = 0
        assert tt3_identity_check(g, k)[0]
        assert calls["fft"] == 1, k
    toeplitz_section(GridFunction(np.abs(g.values) ** 2), range(-179, 180, 7))
    assert calls["roll"] == 0


def _counting(monkeypatch, owner, name):
    """A one-entry list counting the calls of owner.name from now on."""
    calls, fn = [0], getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_distribution_check_takes_one_inverse_fft(monkeypatch):
    """One N-point inverse FFT serves every progression block, with the
    bits of a section built on its own."""
    g = GridFunction(np.random.default_rng(12).uniform(0.5, 1.5, 7680))
    blocks = ap_blocks(range(64), 4)
    want = [np.linalg.eigvalsh(toeplitz_section(g, blk)) for blk in blocks]
    calls = _counting(monkeypatch, np.fft, "ifft")
    got = distribution_check(g, blocks, 0.5)
    assert calls[0] == 1
    assert [(b["min"], b["max"]) for b in got["blocks"]] == \
        [(float(w[0]), float(w[-1])) for w in want]


def test_toeplitz_takes_one_translate_average_per_modulus(monkeypatch):
    """reports._toeplitz hands one translate average to the identity check
    and both criteria, with the results the criteria get on their own."""
    g = _trig_poly(np.random.default_rng(13), 360)
    config = {"k_list": [2, 4, 8, 360], "epsilon": 0.5}
    want = [(tt3_identity_check(g, k), uniform_paving_criterion(g, k, 0.5),
             uniform_feichtinger_criterion(g, k, 0.5))
            for k in config["k_list"]]
    calls = _counting(monkeypatch, harmonic, "translate_average")
    monkeypatch.setattr(reports, "translate_average",
                        harmonic.translate_average)
    got = reports._toeplitz(config, g)["per_k"]
    assert calls[0] == len(config["k_list"])
    assert [((e["tt3_ok"], e["tt3_residual"]), (e["paving_ok"],
             e["deviation"]), (e["feichtinger_ok"], e["minimum"]))
            for e in got] == want


def test_identity_check_at_k_equal_n_stays_linear_in_memory():
    n = 7680
    g = GridFunction(np.random.default_rng(11).uniform(0.5, 1.5, n))
    tracemalloc.start()
    try:
        ok, resid = tt3_identity_check(g, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok, resid
    # a (K, N) component array would take K * N * 16 bytes, 943 MB here
    assert peak < 16 * n * 16


def test_e1_bookkeeping_and_criteria():
    g, book = example_e1_set(360, 3)
    assert book["measure_set"] + book["measure_complement"] == 1.0
    assert abs(book["sum_weighted"] - book["measure_set"]) < 1e-12
    assert book["measure_complement"] >= 0.5
    for k in (1, 2, 3):
        ok, mn = uniform_feichtinger_criterion(g, k, 0.1)
        assert not ok and mn == 0.0
        ok, dev = uniform_paving_criterion(g, k, 0.5)
        assert not ok and dev >= 0.5


def test_e1_pieces_take_the_first_free_orbits():
    # level 3 takes the orbits of 0..7 (points 0..7, 120..127, 240..247),
    # so level 2's first free orbits are 8..29 (points 8..29, 188..209),
    # and level 1 takes the first 90 points left
    g, book = example_e1_set(360, 3)
    assert book["level_starts"] == {3: list(range(8)), 2: list(range(8, 30)),
                                    1: list(range(30, 120))}
    taken = np.zeros(360, dtype=bool)
    for m, starts in book["level_starts"].items():
        for t in range(m):
            taken[np.array(starts) + t * 360 // m] = True
    assert np.array_equal(g.values == 0.0, taken)


def test_e1_validation():
    with pytest.raises(ContractViolation):
        example_e1_set(100, 3)             # lcm(1..3) = 6 does not divide 100
    with pytest.raises(ContractViolation):
        example_e1_set(360, 3, c=0.7)      # mean bound needs c <= 1/2
    with pytest.raises(ContractViolation):
        example_e1_set(12, 3)              # no room for the level pieces


def test_deviation_profile_tt4_trend():
    rng = np.random.default_rng(5)
    # random union of grid intervals
    mask = np.zeros(720, dtype=bool)
    for _ in range(5):
        start = int(rng.integers(0, 720))
        mask[start:start + int(rng.integers(10, 80))] = True
    g = grid_indicator(720, mask)
    for k in (1, 2, 4, 8, 144, 360, 720):
        _, dev = uniform_paving_criterion(g, k, 1.0)
        assert dev <= 10.0 / math.sqrt(k) + 1e-12
    # averaging over the full grid reproduces the mean exactly
    assert uniform_paving_criterion(g, 720, 1.0)[1] < 1e-12


def test_toeplitz_section_closed_form():
    n = 64
    g = grid_indicator(n, np.arange(n) < n // 2)   # E = [0, 1/2)
    sec = toeplitz_section(g, [0, 1])
    assert sec.shape == (2, 2)
    assert abs(sec[0, 0] - 0.5) < 1e-15            # diagonal = |E| exactly
    assert abs(sec[1, 1] - 0.5) < 1e-15
    want = np.sum(np.exp(-2j * np.pi * np.arange(n // 2) / n)) / n
    assert abs(sec[0, 1] - want) < 1e-12
    assert abs(sec[1, 0] - np.conj(want)) < 1e-12
    w = np.linalg.eigvalsh(sec)
    assert w[0] > 0                                # sections stay positive


def test_toeplitz_rejects_complex_symbol_and_aliasing():
    rng = np.random.default_rng(6)
    g = _trig_poly(rng, 32)
    with pytest.raises(ContractViolation):
        toeplitz_section(g, [0, 1])                # complex-valued symbol
    real = GridFunction(np.abs(g.values) ** 2)
    with pytest.raises(ContractViolation):
        toeplitz_section(real, [0, 20])            # frequency beyond N/2 - 1


def test_ap_blocks_and_distribution():
    assert ap_blocks([0, 1, 2, 3, 4, 5], 3) == [[0, 3], [1, 4], [2, 5]]
    g = GridFunction(np.full(24, 0.7))
    rep = distribution_check(g, ap_blocks(list(range(6)), 2), 0.1)
    assert rep["verdict"]
    for blk in rep["blocks"]:
        assert abs(blk["min"] - 0.7) < 1e-12 and abs(blk["max"] - 0.7) < 1e-12


def test_mv_theta_single_and_orthogonal():
    rep = montgomery_vaughan_theta([3.0], [1.0 + 0.5j], 2.0)
    assert rep["theta"] == 0.0
    # distinct integer frequencies over a full period are orthogonal, so
    # theta vanishes up to the rounding of the closed form
    rep = montgomery_vaughan_theta([0.0, 1.0, 2.0], [1.0, 2.0, -1.0], 1.0)
    assert abs(rep["theta"]) <= 64.0 * np.finfo(float).eps
    assert rep["within_unit"]


def test_mv_theta_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(30):
        k = int(rng.integers(2, 6))
        gaps = rng.uniform(0.5, 2.0, size=k)
        freqs = np.cumsum(gaps)
        coeffs = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        t_len = float(rng.uniform(1.0, 3.0))
        rep = montgomery_vaughan_theta(list(freqs), list(coeffs), t_len)
        assert rep["within_unit"], rep
        assert abs(rep["theta"]) <= 1.0 + 1e-3
        theta, err = mv_theta_by_quadrature(freqs, coeffs, t_len)
        assert abs(rep["theta"] - theta) <= 4.0 * err + 1e-12, (rep, theta)


def test_mv_theta_rejects_coincident_frequencies():
    with pytest.raises(ContractViolation):
        montgomery_vaughan_theta([1.0, 1.0], [1.0, 1.0], 1.0)


def test_mv_theta_at_the_smallest_normal_separation():
    """A separation below the smallest normal float would overflow the
    reciprocal in the closed form to NaN, so it is refused; at that float
    the off-diagonal entry is T and theta = -sep for coefficients 1, -1."""
    tiny = np.finfo(float).tiny
    with pytest.raises(ContractViolation, match="smallest normal float"):
        montgomery_vaughan_theta([0.0, 5e-324], [1.0, -1.0], 1e300)
    rep = montgomery_vaughan_theta([0.0, tiny], [1.0, -1.0], 1.0)
    assert rep["theta"] == -tiny and rep["integral"] == 0.0


def test_kadec_bounds_constants():
    b = kadec_bounds(1.0, 1.0, math.pi, 0.0)
    assert b["L"] == 0.25
    assert b["lower"] == 1.0 and b["upper"] == 1.0
    # frozen: quarter-threshold formula at A=1, B=4, gamma=pi
    b2 = kadec_bounds(1.0, 4.0, math.pi, 0.1)
    assert abs(b2["L"] - 0.13497327191869206) < 1e-15
    # frozen: classical lower bound at delta = 0.2
    b3 = kadec_bounds(1.0, 1.0, math.pi, 0.2)
    assert abs(b3["lower"] - 0.0489434837048) < 1e-10
    assert b3["valid"]
    assert not kadec_bounds(1.0, 1.0, math.pi, 0.3)["valid"]
    with pytest.raises(ContractViolation):
        kadec_bounds(2.0, 1.0, math.pi, 0.1)


def test_christensen_bounds():
    b = christensen_bounds(1.0, 2.0, 0.0, 0.0)
    assert b["valid"] and b["lower"] == 1.0 and b["upper"] == 2.0
    b2 = christensen_bounds(1.0, 2.0, 0.1, 0.2)
    assert abs(b2["lower"] - 0.49) < 1e-12
    assert abs(b2["upper"] - 2.0 * (1.1 + 0.2 / math.sqrt(2.0)) ** 2) < 1e-12
    edge = christensen_bounds(1.0, 1.0, 0.5, 0.5)   # slack exactly 1
    assert not edge["valid"] and abs(edge["lower"]) < 1e-15


def test_kadec_empirical_edge_cases():
    rep = kadec_empirical_check(4, delta_max=0.0)
    assert abs(rep["lambda_min"] - 1.0) < 1e-9 and rep["passed"]
    assert rep["delta_sup"] == 0.0 and rep["seed"] == 0
    # a common shift modulates every vector by the same unimodular factor
    gram = harmonic._exponential_gram(np.arange(-4.0, 5.0) + 0.2, 1.0)
    assert abs(np.linalg.eigvalsh(gram)[0] - 1.0) < 1e-9
    with pytest.raises(ContractViolation):
        kadec_empirical_check(4, delta_max=0.3)


def test_kadec_empirical_random():
    for seed in range(10):
        rep = kadec_empirical_check(8, delta_max=0.2, seed=seed)
        assert rep["passed"], rep
        assert rep["lambda_min"] >= rep["predicted_lower"] - 0.05
