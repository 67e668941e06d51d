"""Every radohorn, phase, erasure, ric, weaver and riesz decompose report
the CLI writes passes its own verify, on real frames drawn with many
degeneracies (repeated, parallel and zero columns, columns in a
hyperplane) and parameters on both sides of each verdict."""

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
from pavekit.core import matrix_to_json  # noqa: E402

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
    with tempfile.TemporaryDirectory() as tmp:
        path, rep = Path(tmp) / "frame.json", Path(tmp) / "report.json"
        path.write_text(json.dumps(matrix_to_json(frame)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([argv[0], "--input", str(path), *argv[1:],
                         "--report", str(rep)]) == 0
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
