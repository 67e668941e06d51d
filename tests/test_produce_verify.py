"""Every radohorn, phase, erasure, ric, weaver, pave, decompose and subspace
report the CLI writes passes its own verify, on real frames drawn with many
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
