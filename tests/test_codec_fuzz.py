"""Fuzzed matrix and grid JSON only ever exits 0 or 2, never a traceback,
in the pair form and in the base64 form alike."""

import base64
import contextlib
import io
import json
import math
import struct
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


def _exit_code(doc, *argv, stderr=None):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stderr(stderr or io.StringIO()):
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


# ---------------------------------------------------------------------------
# the base64 form: strict reading of the one string of float64 values
# ---------------------------------------------------------------------------

def _b64(data):
    return base64.b64encode(data).decode()


def _floats(values):
    return struct.pack(f"<{len(values)}d", *values)


def bad_base64(count, what):
    """{case: (the "base64" value, text the error must hold)} for a wire
    object of count float64 values, every one of which must exit 2.  The
    padding cases need a count that is not a multiple of 3."""
    data = _floats([0.5] * count)
    good = _b64(data)
    cases = {f"non-string {v!r}": (v, f"{what} JSON base64 must be a string")
             for v in (None, 7, 0.5, True, [good], {"s": good})}
    malformed = f"malformed {what} base64: "
    for case, text in {
            "leading space": " " + good, "trailing newline": good + "\n",
            "inner newline": good[:4] + "\n" + good[4:],
            "tab": good[:4] + "\t" + good[4:],
            "url-safe alphabet": "-_" + good[2:],
            "non-ascii": "\u00e9" + good[1:], "nul": "\0" + good[1:],
            "missing padding": good.rstrip("="),
            "extra padding": good + "=",
            "padding inside": good[:4] + "=" + good[5:],
            "padding only": "====", "one character": "A"}.items():
        cases[case] = (text, malformed)
    holds = f"{what} base64 holds "
    cases.update({
        "empty": ("", holds),
        "one byte short": (_b64(data[:-1]), holds),
        "one byte long": (_b64(data + b"\0"), holds),
        "one value short": (_b64(data[:-8]), holds),
        "one value long": (_b64(data + data[:8]), holds)})
    finite = "grid samples must be finite" if what == "grid" \
        else "matrix has non-finite entries"
    for x in (math.nan, math.inf, -math.inf):
        cases[f"{x!r} value"] = (_b64(_floats([0.5] * (count - 1) + [x])),
                                 finite)
    return cases


# (command argv, a well-formed document, the pair key, what, float64 count)
BASE64_TARGETS = {
    "real matrix": (["analyze"], {"rows": 1, "cols": 2, "field": "real"},
                    "entries", "matrix", 2),
    "complex matrix": (["analyze"], {"rows": 1, "cols": 2,
                                     "field": "complex"},
                       "entries", "matrix", 4),
    "grid": (["toeplitz", "--k-list", "1", "--epsilon", "0.5"], {"N": 2},
             "values", "grid", 4),
}


@pytest.mark.parametrize("target", BASE64_TARGETS)
def test_malformed_base64_exits_2_with_its_reason(target):
    argv, head, pairs, what, count = BASE64_TARGETS[target]
    good = _b64(_floats([0.5] * count))
    assert good.endswith("=")           # so the padding cases bite
    assert _exit_code(dict(head, base64=good), *argv) == 0
    one_of = f"{what} JSON needs exactly one of {pairs!r} and 'base64'"
    cases = dict(bad_base64(count, what), **{
        "both keys": (good, one_of), "neither key": (None, one_of)})
    for case, (text, reason) in cases.items():
        doc = dict(head, base64=text)
        if case == "both keys":
            doc[pairs] = [[0.5, 0.0]] * 2
        if case == "neither key":
            del doc["base64"]
        err = io.StringIO()
        assert _exit_code(doc, *argv, stderr=err) == 2, case
        assert err.getvalue().startswith("error: ") and \
            reason in err.getvalue(), (case, err.getvalue())


base64_text = st.text(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/= \n-",
    max_size=48)


@st.composite
def base64_values(draw, count):
    """The "base64" value of a wire object of count float64 values: mostly
    the encoding of count or a nearby number of floats, some non-finite,
    and otherwise one of the named malformed cases, text over the alphabet
    and a few strays, or any JSON value."""
    n = draw(st.sampled_from([count, count, count - 1, count + 1]))
    floats = draw(st.lists(st.floats(width=64) | numbers, min_size=n,
                           max_size=n))
    return draw(st.just(_b64(_floats(floats)))
                | st.sampled_from([t for t, _ in
                                   bad_base64(count, "").values()])
                | base64_text | json_values)


@st.composite
def base64_matrix_docs(draw):
    field = draw(st.sampled_from(["real", "complex"]))
    cols = draw(st.integers(1, 3))
    doc = {"rows": 1, "cols": cols, "field": field,
           "base64": draw(base64_values(cols * (1 if field == "real" else 2)))}
    if draw(st.booleans()):
        doc["entries"] = draw(entries)     # both keys
    return doc


@st.composite
def base64_grid_docs(draw):
    n = draw(st.integers(1, 3))
    doc = {"N": n, "base64": draw(base64_values(2 * n))}
    if draw(st.booleans()):
        doc["values"] = draw(entries)      # both keys
    return doc


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(base64_matrix_docs())
def test_fuzzed_base64_matrix_json_exits_0_or_2(doc):
    assert _exit_code(doc, "analyze") in (0, 2)


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(base64_grid_docs())
def test_fuzzed_base64_grid_json_exits_0_or_2(doc):
    assert _exit_code(doc, "toeplitz", "--k-list", "1",
                      "--epsilon", "0.5") in (0, 2)
