"""verify on reports with one payload field replaced: whatever the field
holds, verify returns a bool verdict with reasons and raises nothing."""

import copy

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from pavekit.reports import load_report, verify  # noqa: E402

from report_cases import make_reports  # noqa: E402

# Small numbers only: a config field such as kadec's n_max sets the size of
# the re-run, and a huge one would test memory rather than verify.
VALUES = [None, [], {}, "x", 7, -1, 0, 1.5, True, [0], {"blocks": []}]


def _paths(obj, prefix=()):
    """The key path of every value nested in obj, obj itself excluded; of
    a list only the first three entries."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj[:3])
    else:
        return
    for key, val in items:
        yield prefix + (key,)
        yield from _paths(val, prefix + (key,))


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    reports = make_reports(tmp_path_factory.mktemp("fuzz"))
    return [load_report(str(path)) for _, path in sorted(reports.items())]


@hypothesis.settings(max_examples=600, deadline=None, derandomize=True)
@hypothesis.given(st.data())
def test_mutated_report_gets_a_verdict(docs, data):
    doc = copy.deepcopy(data.draw(st.sampled_from(docs)))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(VALUES)))
    ok, reasons = verify(doc)
    assert type(ok) is bool and type(reasons) is list
    assert all(type(r) is str for r in reasons)
    assert ok or reasons
