"""Fuzzed matrix and grid JSON only ever exits 0 or 2, never a traceback."""

import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from pavekit.cli import main  # noqa: E402

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)
numbers = st.floats(-1e3, 1e3) | st.integers(-9, 9)
# Mostly pairs of numbers and sizes that match the entry count, so that
# fuzzing also reaches the codec's later checks and the numeric code.
entries = st.lists(
    st.lists(numbers, min_size=2, max_size=2)
    | st.lists(json_values, max_size=3) | json_values,
    min_size=1, max_size=6)


@st.composite
def matrix_docs(draw):
    vals = draw(entries)
    return {"rows": draw(st.just(1) | json_values),
            "cols": draw(st.just(len(vals)) | json_values),
            "field": draw(st.sampled_from(["real", "complex"]) | json_values),
            "entries": vals}


@st.composite
def grid_docs(draw):
    vals = draw(entries)
    return {"N": draw(st.just(len(vals)) | json_values), "values": vals}


def _exit_code(doc, *argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc))
        return main([argv[0], "--input", str(path), *argv[1:]])


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(matrix_docs() | json_values)
def test_fuzzed_matrix_json_exits_0_or_2(doc):
    assert _exit_code(doc, "analyze") in (0, 2)


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(grid_docs() | json_values)
def test_fuzzed_grid_json_exits_0_or_2(doc):
    assert _exit_code(doc, "toeplitz", "--k-list", "1",
                      "--epsilon", "0.5") in (0, 2)
