"""Every radohorn and phase report the CLI writes passes its own verify,
on real frames drawn with many degeneracies (repeated, parallel and zero
columns, columns in a hyperplane) and r on both sides of feasibility."""

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


def _produce_and_verify(frame, *argv):
    with tempfile.TemporaryDirectory() as tmp:
        path, rep = Path(tmp) / "frame.json", Path(tmp) / "report.json"
        path.write_text(json.dumps(matrix_to_json(frame)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([argv[0], "--input", str(path), *argv[1:],
                         "--report", str(rep)]) == 0
            assert main(["verify", "--report", str(rep)]) == 0
        verdict = json.loads(rep.read_text())["payload"]["results"]["verdict"]
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
