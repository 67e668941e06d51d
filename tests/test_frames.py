import warnings

import numpy as np
import pytest

from pavekit.core import (
    ContractViolation,
    Frame,
    gen_harmonic_frame,
    gen_random_unit_frame,
    numeric_rank,
)
from pavekit.frames import (
    frame_operator,
    gram_matrix,
    parseval_normalize,
    spectral_summary,
)


def _corpus():
    out = [gen_harmonic_frame(2, 4), gen_harmonic_frame(3, 7)]
    for seed in range(6):
        out.append(gen_random_unit_frame(3, 6, seed))
        out.append(gen_random_unit_frame(4, 5, seed, field="complex"))
    return out


def test_bounds_match_frame_operator_spectrum():
    for fr in _corpus():
        s = spectral_summary(fr)
        lo, hi = s["lower"], s["upper"]
        w = np.linalg.eigvalsh(frame_operator(fr))
        assert abs(lo - max(w[0], 0.0)) < 1e-10
        assert abs(hi - w[-1]) < 1e-10


def test_summary_invariants():
    for fr in _corpus():
        s = spectral_summary(fr)
        assert s["lower"] <= s["upper"] + 1e-12
        assert abs(s["trace_S"] - np.linalg.norm(fr.synthesis) ** 2) < 1e-9
        # unit-norm family: some vector already witnesses an upper bound >= 1
        if np.abs(np.linalg.norm(fr.synthesis, axis=0) - 1.0).max() < 1e-9:
            assert s["bessel"] >= 1.0 - 1e-12
        if s["rank"] == fr.M:
            assert s["riesz_lower"] is not None and s["riesz_lower"] > 0
        else:
            assert s["riesz_lower"] is None


def test_harmonic_summary_tight():
    s = spectral_summary(gen_harmonic_frame(3, 9))
    assert s["is_tight"] and not s["is_parseval"]
    assert abs(s["lower"] - 3.0) < 1e-12 and abs(s["upper"] - 3.0) < 1e-12
    assert s["is_equal_norm"] and s["spans"]


def test_parseval_normalize_gram_idempotent():
    for fr in _corpus():
        pn = parseval_normalize(fr)
        s = frame_operator(pn)
        assert np.abs(s - np.eye(fr.n)).max() < 1e-9
        g = gram_matrix(pn)
        assert np.abs(g @ g - g).max() < 2e-8
        # same null space: stacking the two synthesis matrices adds no rank
        stacked = np.vstack([fr.synthesis, pn.synthesis])
        assert numeric_rank(stacked) == numeric_rank(fr.synthesis) == \
            numeric_rank(pn.synthesis)


def test_overflowing_products_are_refused_by_name():
    fr = Frame(np.array([[1e200, 1e200, 0.0], [0.0, 0.0, 1e-300]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractViolation,
                           match="the 2x2 frame operator overflows float64"):
            frame_operator(fr)
        with pytest.raises(ContractViolation,
                           match="the 3x3 Gram matrix overflows float64"):
            gram_matrix(fr)
