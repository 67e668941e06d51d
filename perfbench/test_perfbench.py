"""Tests for the benchmark's own logic: the tail rule, span self time, the
binding-aware wrappers, the host-speed scaling, and agreement of
BENCHMARK.json with the runner."""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (HERE, ROOT / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import hostref  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


# ---------------------------------------------------------------------------
# tail percentile: the highest sample with at least ten samples beyond it
# ---------------------------------------------------------------------------

def test_tail_leaves_exactly_ten_beyond():
    value, pct = stats.tail(list(range(1, 101)))
    assert value == 90
    assert pct == pytest.approx(90.0)
    value, pct = stats.tail(list(range(11, 0, -1)))
    assert value == 1
    assert pct == pytest.approx(100 / 11)


def test_tail_needs_eleven_samples():
    assert stats.tail(list(range(10))) is None
    assert stats.tail([]) is None


def test_tail_counts_only_samples_strictly_beyond():
    # the top twelve tie: no sample among them has ten strictly above it
    value, pct = stats.tail([1.0] * 3 + [2.0] * 12)
    assert value == 1.0
    assert pct == pytest.approx(20.0)


def test_quartile_spread():
    assert stats.quartile_spread([1.0] * 10) == 0.0
    assert stats.quartile_spread([1, 2, 3, 4, 5, 6, 7]) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# spans and self time
# ---------------------------------------------------------------------------

def span(name, layer, start, end, parent, role=None):
    return [name, layer, role, start, end, parent, 0]


def test_self_time_nested_and_overlapping_siblings():
    spans = [
        span("root", "cli", 0.0, 10.0, -1),
        span("a", "core", 1.0, 3.0, 0),
        span("b", "core", 2.0, 5.0, 0),     # overlaps sibling a: union is 4
        span("a.1", "linalg", 1.5, 2.0, 1),  # grandchild: only a loses it
        span("c", "paving", 9.0, 12.0, 0),   # clipped to the parent's end
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([10 - 4 - 1, 2 - 0.5, 3, 0.5, 3])


def test_self_time_sequential_siblings_with_tracer():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 7.0, 10.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    root = tr.open("cli.main", "cli")           # 0
    first = tr.open("core.a", "core")           # 1
    tr.close(first)                             # 2
    second = tr.open("core.b", "core")          # 4
    tr.close(second)                            # 7
    tr.close(root)                              # 10
    spans, _ = tr.drain()
    assert [s[5] for s in spans] == [-1, 0, 0]
    assert tracing.self_times(spans) == pytest.approx([6.0, 1.0, 3.0])
    assert tr.spans == []


def test_summarize_counts_same_layer_nesting_once():
    spans = [
        span("cli.main", "cli", 0.0, 10.0, -1),
        span("core.frame_from_json", "core", 1.0, 5.0, 0, "decode"),
        span("core.matrix_from_json", "core", 2.0, 4.0, 1, "decode"),
        span("decomposition.ric", "decomposition", 5.0, 9.0, 0),
        span("linalg.eigvalsh", "linalg", 6.0, 7.0, 3, "eig"),
    ]
    out = tracing.summarize(spans)
    assert out["core.s"] == pytest.approx(4.0)
    assert out["core.self_s"] == pytest.approx(4.0)
    assert out["core.decode_s"] == pytest.approx(4.0)
    assert out["cli.self_s"] == pytest.approx(2.0)
    assert out["decomposition.self_s"] == pytest.approx(3.0)
    assert out["linalg.eig_s"] == pytest.approx(1.0)
    assert out["linalg.eig_calls"] == 1
    assert out["decomposition.linalg_calls"] == 1
    assert "erasures.linalg_calls" not in out


# ---------------------------------------------------------------------------
# binding-aware wrapping
# ---------------------------------------------------------------------------

def test_rebind_replaces_every_binding_and_restores():
    a = types.ModuleType("fake_a")

    def f(x):
        return x + 1
    a.f = f
    b = types.ModuleType("fake_b")
    b.f = f              # as `from fake_a import f` binds it
    b.alias = f
    b.other = len
    tr = tracing.Tracer()
    undo = tracing.rebind([a, b], f, tr.wrap(f, "a.f", "a"))
    assert len(undo) == 3
    assert b.f(1) == 2 and b.alias(2) == 3 and a.f(3) == 4
    assert [s[0] for s in tr.spans] == ["a.f"] * 3
    assert b.other is len
    tracing.restore(undo)
    assert a.f is f and b.f is f and b.alias is f


def test_install_wraps_every_binding_in_pavekit(tmp_path, monkeypatch):
    import numpy as np
    import pavekit
    import pavekit.cli
    import jobs

    mods = tracing._package_modules(pavekit)
    originals = {name: getattr(pavekit.core, name)
                 for name in ("matrix_from_json", "frame_from_json",
                              "numeric_rank", "enumerate_partitions")}
    eigvalsh = np.linalg.eigvalsh
    tr = tracing.Tracer()
    undo = tracing.install(tr, pavekit)
    try:
        for name, fn in originals.items():
            holders = [m.__name__ for m in mods if fn in vars(m).values()]
            assert holders == [], f"{name} still bound unwrapped in {holders}"
        assert pavekit.cli.frame_from_json is pavekit.reports.frame_from_json
        monkeypatch.chdir(tmp_path)
        frame = tmp_path / "f.json"
        frame.write_text(json.dumps(jobs.matrix_json(
            jobs.unit_frame(np.random.default_rng(0), 3, 5))))
        assert pavekit.cli.main(["ric", "--input", str(frame), "--s", "2",
                                 "--report", str(tmp_path / "r.json")]) == 0
        spans, counts = tr.drain()
    finally:
        tracing.restore(undo)
    names = [s[0] for s in spans]
    assert names[0] == "cli.main" and spans[0][5] == -1
    for name in ("cli._read_json", "core.frame_from_json",
                 "core.matrix_from_json", "decomposition.restricted_isometry",
                 "linalg.eigvalsh", "reports.input_record",
                 "reports.file_sha256", "reports.make_report",
                 "reports.write_report"):
        assert name in names
    assert counts["core.decode_entries"] == 15
    assert counts["reports.hash_bytes"] == frame.stat().st_size
    assert counts["linalg.flops_computed"] > 0
    for name, fn in originals.items():
        assert getattr(pavekit.core, name) is fn
    assert pavekit.cli.frame_from_json is originals["frame_from_json"]
    assert np.linalg.eigvalsh is eigvalsh


# ---------------------------------------------------------------------------
# host-speed scaling
# ---------------------------------------------------------------------------

def test_scale_divides_by_the_mean_reference():
    nominal = hostref.NOMINAL_S
    assert hostref.scale(2.0, nominal, nominal) == pytest.approx(2.0)
    assert hostref.scale(2.0, 2 * nominal, 2 * nominal) == pytest.approx(1.0)
    assert hostref.scale(3.0, nominal, 2 * nominal) == pytest.approx(2.0)


def test_reference_runs_no_traced_code():
    import pavekit

    tr = tracing.Tracer()
    undo = tracing.install(tr, pavekit)
    try:
        assert hostref.measure() > 0
        spans, counts = tr.drain()
    finally:
        tracing.restore(undo)
    assert spans == [] and not any(counts.values())


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with what the runner prints
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_runner():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    layers = run.load_layer_metrics()
    assert [{k: m[k] for k in ("name", "unit", "better")} for m in layers] \
        == bench["per_layer"]
