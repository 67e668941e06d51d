"""Every radohorn, phase, erasure, ric, weaver, pave, decompose, subspace,
toeplitz, kadec and mv-theta report the CLI writes passes its own verify,
on real frames drawn with many degeneracies (repeated, parallel and zero
columns, columns in a hyperplane) and parameters on both sides of each
verdict.  A threshold a command compares against is drawn at the computed
value and VERDICT_SLACK to either side of it."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from pavekit.cli import main  # noqa: E402
from pavekit.core import VERDICT_SLACK, matrix_to_json  # noqa: E402
from pavekit.reports import canonical_json  # noqa: E402
from pavekit.harmonic import (  # noqa: E402
    GridFunction,
    kadec_bounds,
    uniform_feichtinger_criterion,
    uniform_paving_criterion,
)

# A few exact values make repeated and dependent columns common.
entries = st.sampled_from([0.0, 1.0, -1.0, 0.5]) | st.floats(-2.0, 2.0)


@st.composite
def frames(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    cols = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    return np.array(cols, dtype=np.float64).T


def _unit_columns(a):
    """Columns scaled to unit length.  A column too short to scale exactly
    (zero or nearly so) becomes e_1, which then often repeats."""
    norms = np.linalg.norm(a, axis=0)
    short = norms < 1e-100
    a = a / np.where(short, 1.0, norms)
    a[:, short] = 0.0
    a[0, short] = 1.0
    return a


unit_frames = frames().map(_unit_columns)


def _produce_and_verify(frame, *argv):
    """Run argv with frame written as its --input (a matrix, a grid as JSON,
    or None for no input), then verify the report; returns its verdict."""
    with tempfile.TemporaryDirectory() as tmp:
        path, rep = Path(tmp) / "frame.json", Path(tmp) / "report.json"
        if frame is not None:
            path.write_text(canonical_json(frame if isinstance(frame, dict)
                                            else matrix_to_json(frame)))
            argv = (argv[0], "--input", str(path), *argv[1:])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*argv, "--report", str(rep)]) == 0
            assert main(["verify", "--report", str(rep)]) == 0
        verdict = json.loads(rep.read_text())["payload"]["results"].get(
            "verdict")
    result = json.loads(out.getvalue().splitlines()[-1])
    assert result == {"verified": True, "reasons": []}
    return verdict


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
@hypothesis.given(frames(), st.integers(1, 4))
def test_radohorn_reports_verify(frame, r):
    verdict = _produce_and_verify(frame, "radohorn", "--r", str(r))
    hypothesis.event(f"verdict={verdict}")


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
@hypothesis.given(frames(), st.integers(0, 2**31 - 1))
def test_phase_reports_verify(frame, seed):
    verdict = _produce_and_verify(frame, "phase", "--trials", "20",
                                  "--seed", str(seed))
    hypothesis.event(f"verdict={verdict}")


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
@hypothesis.given(frames(), st.integers(0, 7))
def test_erasure_reports_verify(frame, k):
    k = min(k, frame.shape[1] - 1)
    _produce_and_verify(frame, "erasure", "--k", str(k))


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
@hypothesis.given(unit_frames, st.integers(1, 4))
def test_ric_reports_verify(frame, s):
    _produce_and_verify(frame, "ric", "--s", str(s))


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
@hypothesis.given(unit_frames, st.floats(0.5, 4.0), st.floats(0.05, 2.0),
                  st.integers(1, 4))
def test_weaver_reports_verify(frame, bessel, epsilon, r):
    verdict = _produce_and_verify(frame, "weaver", "--bessel", repr(bessel),
                                  "--epsilon", repr(epsilon),
                                  "--r-max", str(r))
    hypothesis.event(f"verdict={verdict}")


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
@hypothesis.given(unit_frames, st.floats(0.05, 0.95), st.integers(1, 4))
def test_riesz_decompose_reports_verify(frame, epsilon, r):
    verdict = _produce_and_verify(frame, "decompose", "--criterion", "riesz",
                                  "--epsilon", repr(epsilon),
                                  "--r-max", str(r))
    hypothesis.event(f"verdict={verdict}")


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
@hypothesis.given(frames(), st.floats(0.05, 2.0), st.integers(1, 3))
def test_pave_reports_verify(frame, epsilon, r):
    verdict = _produce_and_verify(frame.T @ frame, "pave",
                                  "--epsilon", repr(epsilon),
                                  "--r-max", str(r))
    hypothesis.event(f"verdict={verdict}")


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
@hypothesis.given(frames(), st.floats(0.01, 0.99), st.integers(1, 3))
def test_projection_pave_reports_verify(frame, epsilon, r):
    q, _ = np.linalg.qr(frame.T)
    verdict = _produce_and_verify(q @ q.T, "pave", "--form", "projection",
                                  "--epsilon", repr(epsilon),
                                  "--r-max", str(r))
    hypothesis.event(f"verdict={verdict}")


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
@hypothesis.given(unit_frames, st.floats(0.01, 1.5), st.integers(1, 4))
def test_feichtinger_decompose_reports_verify(frame, a_target, r):
    verdict = _produce_and_verify(frame, "decompose",
                                  "--criterion", "feichtinger",
                                  "--a-target", repr(a_target),
                                  "--r-max", str(r))
    hypothesis.event(f"verdict={verdict}")


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
@hypothesis.given(unit_frames, st.integers(1, 3), st.floats(0.05, 0.95),
                  st.integers(1, 8))
def test_tp1_decompose_reports_verify(frame, s, delta, r):
    verdict = _produce_and_verify(frame, "decompose", "--criterion", "tp1",
                                  "--s", str(s), "--delta", repr(delta),
                                  "--r-max", str(r))
    hypothesis.event(f"verdict={verdict}")


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
@hypothesis.given(unit_frames, st.floats(0.01, 1.0), st.data())
def test_subspace_reports_verify(frame, a, data):
    # the frame's rows span a subspace of R^M; the blocks split range(M)
    m = frame.shape[1]
    labels = data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    blocks = ";".join(",".join(str(i) for i in range(m) if labels[i] == b)
                      for b in sorted(set(labels)))
    _produce_and_verify(frame.T, "subspace", "--span", "--a", repr(a),
                        "--blocks", blocks)


# Threshold offsets: on the computed value and one slack to either side.
offsets = st.sampled_from([-VERDICT_SLACK, 0.0, VERDICT_SLACK])


@st.composite
def grids(draw):
    """A nonnegative grid symbol of N = 12, 24 or 36 points with positive
    mean, whose moduli divide N."""
    n = 12 * draw(st.integers(1, 3))
    values = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 2.0),
                           min_size=n, max_size=n))
    hypothesis.assume(sum(values) > 0.0)
    return GridFunction(np.array(values))


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(grids(), st.lists(st.sampled_from([1, 2, 3, 4, 6]),
                                    min_size=1, max_size=3, unique=True),
                  st.booleans(), offsets, st.booleans())
def test_toeplitz_reports_verify(g, ks, paving, offset, stride):
    crit = uniform_paving_criterion if paving else \
        uniform_feichtinger_criterion
    epsilon = crit(g, ks[0], 1.0)[1] + offset
    hypothesis.assume(epsilon > 0.0)
    argv = ["toeplitz", "--k-list", ",".join(map(str, ks)),
            "--epsilon", repr(epsilon)]
    if stride:
        argv += ["--stride", "2", "--freq-max", str(g.N // 2 - 1)]
    _produce_and_verify(g.to_json(), *argv)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(st.floats(0.1, 4.0), st.floats(1.0, 4.0),
                  st.floats(0.5, 4.0), offsets, st.booleans(),
                  st.floats(0.0, 1.0), st.integers(0, 4))
def test_kadec_reports_verify(a, ratio, gamma, offset, perturb, lam, n_max):
    b = a * ratio
    delta = kadec_bounds(a, b, gamma, 0.0)["L"] + offset
    hypothesis.assume(delta >= 0.0)
    argv = ["kadec", "--a", repr(a), "--b", repr(b), "--gamma", repr(gamma),
            "--delta", repr(delta), "--empirical", "--n-max", str(n_max),
            "--delta-max", repr(min(delta, 0.24)), "--seed", str(n_max)]
    if perturb:
        # lam + mu / sqrt(a) lands on 1, the bound christensen_bounds needs
        # below it, or next to it
        mu = (1.0 - lam + offset) * a ** 0.5
        hypothesis.assume(mu >= 0.0)
        argv += ["--lam", repr(lam), "--mu", repr(mu)]
    _produce_and_verify(None, *argv)


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
@hypothesis.given(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=5,
                           unique=True),
                  st.lists(st.tuples(st.floats(-2.0, 2.0),
                                     st.floats(-2.0, 2.0)),
                           min_size=5, max_size=5),
                  st.floats(0.1, 3.0))
def test_mv_theta_reports_verify(freqs, coeffs, t_len):
    coeffs = [complex(re, im) for re, im in coeffs[:len(freqs)]]
    hypothesis.assume(any(coeffs) and
                      (len(freqs) == 1 or np.diff(sorted(freqs)).min() > 0.0))
    _produce_and_verify(None, "mv-theta",
                        "--freqs=" + ",".join(map(repr, freqs)),
                        "--coeffs=" + ",".join(map(repr, coeffs)),
                        "--t-len", repr(t_len))
