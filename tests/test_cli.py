import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import pavekit
from pavekit import cli
from pavekit.cli import main
from pavekit.core import matrix_to_json
from pavekit.paving import pave_matrix_check
from pavekit.reports import (
    canonical_json,
    load_report,
    verify,
    write_report,
)


def run(*argv):
    return main(list(argv))


def _gen_frame(tmp_path, name="f.json", kind="harmonic", parseval=False, **kw):
    path = tmp_path / name
    argv = ["gen", "--kind", kind, "--out", str(path)]
    for key, val in kw.items():
        argv += [f"--{key}", str(val)]
    if parseval:
        argv.append("--parseval")
    assert run(*argv) == 0
    return path


def test_gen_analyze_verify_cycle(tmp_path, capsys):
    f = _gen_frame(tmp_path, n=2, M=4, parseval=True)
    rep = tmp_path / "an.json"
    assert run("analyze", "--input", str(f), "--report", str(rep)) == 0
    assert run("verify", "--report", str(rep)) == 0
    out = capsys.readouterr().out
    assert '"verified": true' in out


def _callables(mod):
    """Every function and method defined in module mod."""
    for _, obj in inspect.getmembers(mod):
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            for _, fn in inspect.getmembers(obj, inspect.isroutine):
                if getattr(fn, "__module__", None) == mod.__name__:
                    yield fn


def test_tolerances_are_constants_not_parameters(tmp_path):
    knobs = {"tol", "rel_tol", "max_moves", "backtracks", "margin"}
    found = []
    for info in pkgutil.iter_modules(pavekit.__path__):
        mod = importlib.import_module(f"pavekit.{info.name}")
        for fn in _callables(mod):
            hit = knobs & set(inspect.signature(fn).parameters)
            if hit:
                found.append((mod.__name__, fn.__qualname__, sorted(hit)))
    assert found == []
    assert not hasattr(pavekit, "Tolerances")
    assert not hasattr(pavekit, "DEFAULT_TOL")
    rep = tmp_path / "an.json"
    assert run("analyze", "--input", str(_gen_frame(tmp_path, n=2, M=4)),
               "--report", str(rep)) == 0
    summary = load_report(str(rep))["payload"]["results"]["summary"]
    assert summary["check_tol"] == 1e-8


@pytest.mark.parametrize("fault", [KeyError, TypeError])
def test_a_program_fault_is_not_reported_as_bad_input(monkeypatch, fault):
    def builder(config, _):
        raise fault("a fault of the program, not of its input")

    monkeypatch.setitem(cli._BUILDERS, "kadec", builder)
    with pytest.raises(fault):
        main(["kadec", "--a", "1", "--b", "2", "--gamma", "3",
              "--delta", "0.1"])


def test_gen_requires_seed_for_random(tmp_path):
    assert run("gen", "--kind", "random-unit", "--n", "2", "--M", "4",
               "--out", str(tmp_path / "x.json")) == 2


def test_report_payload_deterministic(tmp_path):
    f = _gen_frame(tmp_path, n=2, M=6)
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    for r in (r1, r2):
        assert run("weaver", "--input", str(f), "--bessel", "3.0",
                   "--epsilon", "0.4", "--r-max", "3",
                   "--report", str(r)) == 0
    a, b = load_report(str(r1)), load_report(str(r2))
    assert canonical_json(a["payload"]) == canonical_json(b["payload"])
    # wall time may coincide, but it lives outside the hashed payload
    assert "wall_time_s" in a["meta"] and "timestamp" in a["meta"]


def test_malformed_input_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("analyze", "--input", str(bad)) == 2
    missing = tmp_path / "missing.json"
    assert run("analyze", "--input", str(missing)) == 2


# Entries that are not a [re, im] pair of JSON numbers.  "12" has length 2,
# and bare numbers and booleans coerce to floats, so each needs its own check.
MALFORMED_ENTRIES = ([1], None, "x", [[1.0, 0.0]], "12", True, [True, 0.0],
                     [1, 2, 3], 1.5)


def test_malformed_matrix_entry_exits_2(tmp_path, capsys):
    bad = tmp_path / "entry.json"
    for field in ("real", "complex"):
        for entry in MALFORMED_ENTRIES:
            bad.write_text(json.dumps({"rows": 1, "cols": 2, "field": field,
                                       "entries": [[1.0, 0.0], entry]}))
            assert run("analyze", "--input", str(bad)) == 2, (field, entry)
            assert "malformed matrix entry" in capsys.readouterr().err


def test_unparsable_input_names_its_file(tmp_path, capsys):
    bad = tmp_path / "t.json"
    # a JSON syntax error, and bytes that are not UTF-8 text
    for data in (b"[1", b'"\x80"'):
        bad.write_bytes(data)
        assert run("analyze", "--input", str(bad)) == 2, data
        assert capsys.readouterr().err.startswith(
            f"error: {bad}: not a JSON text: "), data


def test_overflowing_frame_operator_is_named_not_its_entries(tmp_path,
                                                             capsys):
    """Every entry is finite; the product T T* is not."""
    big = tmp_path / "big.json"
    for doc in ({"rows": 2, "cols": 2, "field": "real",
                 "entries": [[1e200, 0], [0, 0], [0, 0], [1e200, 0]]},
                matrix_to_json(np.diag([1e200, -1e200]))):
        big.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("analyze", "--input", str(big)) == 2
        assert caught == []
        assert capsys.readouterr().err == \
            "error: the 2x2 frame operator overflows float64\n"


# (argv, exit code, the one line stderr or stdout holds) on the 2x2
# diag(1e200) frame, whose entries are finite but whose norms, Gram and
# frame operators are not
HUGE_INPUT_RUNS = [
    (["ric", "--s", "1"], 2, "error: the family needs unit-norm vectors"),
    (["weaver", "--bessel", "4", "--epsilon", "0.5", "--r-max", "2"], 2,
     "error: the family needs unit-norm vectors"),
    (["decompose", "--criterion", "riesz", "--epsilon", "0.5"], 2,
     "error: the family needs unit-norm vectors"),
    (["decompose", "--criterion", "tp1", "--s", "1", "--delta", "0.5"], 2,
     "error: the family needs unit-norm vectors"),
    (["decompose", "--criterion", "feichtinger", "--a-target", "0.1"], 2,
     "error: the 2x2 Gram matrix overflows float64"),
    (["subspace", "--a", "0.1"], 2,
     "error: basis columns must be orthonormal"),
    (["pave", "--form", "projection", "--r-max", "2", "--epsilon", "0.5"], 2,
     "error: matrix is not an orthogonal projection"),
    (["phase"], 0, "verdict=False witness_side=[0]"),
]


@pytest.mark.parametrize("argv, code, line", HUGE_INPUT_RUNS,
                         ids=[" ".join(argv[:3]) for argv, _, _ in
                              HUGE_INPUT_RUNS])
def test_huge_finite_input_warns_of_nothing(tmp_path, capsys, argv, code,
                                            line):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"rows": 2, "cols": 2, "field": "real",
                               "entries": [[1e200, 0], [0, 0], [0, 0],
                                           [1e200, 0]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*argv, "--input", str(big)) == code
    out, err = capsys.readouterr()
    assert (err if code else out) == line + "\n"
    assert (out if code else err) == ""


def test_refused_operator_norm_is_printed_to_12_digits(tmp_path, capsys):
    """A huge norm prints as 1e+200, not 200 digits, and one just past the
    CHECK_TOL slack shows the digits that refuse it."""
    t = tmp_path / "op.json"
    for diag, text in (([1e200, 0.0], "1e+200"),
                       ([1.0 + 2e-8, 0.5], "1.00000002")):
        t.write_text(canonical_json(matrix_to_json(np.diag(diag))))
        assert run("dilate", "--input", str(t), "--mode", "operator") == 2
        assert capsys.readouterr().err == \
            f"error: operator norm {text} exceeds one\n"


def test_malformed_size_exits_2(tmp_path, capsys):
    bad = tmp_path / "size.json"
    for size in (float("inf"), float("nan"), "x", None, [1], 2.7, True,
                 "3"):
        bad.write_text(json.dumps({"rows": size, "cols": 1, "field": "real",
                                   "entries": [[1.0, 0.0]]}))
        assert run("analyze", "--input", str(bad)) == 2, size
        assert "malformed matrix JSON" in capsys.readouterr().err
        bad.write_text(json.dumps({"N": size, "values": [[1.0, 0.0]]}))
        assert run("toeplitz", "--input", str(bad), "--k-list", "1",
                   "--epsilon", "0.5") == 2, size
        assert "malformed grid JSON" in capsys.readouterr().err


def test_malformed_grid_entry_exits_2(tmp_path, capsys):
    bad = tmp_path / "grid.json"
    for entry in MALFORMED_ENTRIES:
        bad.write_text(json.dumps({"N": 2, "values": [[1.0, 0.0], entry]}))
        assert run("toeplitz", "--input", str(bad), "--k-list", "2",
                   "--epsilon", "0.5") == 2, entry
        assert "malformed grid entry" in capsys.readouterr().err


def test_verdict_just_inside_slack_passes_verify(tmp_path):
    m = tmp_path / "m.json"
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6))
    m.write_text(canonical_json(matrix_to_json(a + a.T)))
    first = pave_matrix_check(a + a.T, 2, 0.5, mode="exhaustive")
    epsilon = (first["achieved"] - 5e-13) / first["scale"]
    rep = tmp_path / "p.json"
    assert run("pave", "--input", str(m), "--mode", "exhaustive",
               "--r-max", "2", "--epsilon", repr(epsilon),
               "--report", str(rep)) == 0
    res = load_report(str(rep))["payload"]["results"]
    assert res["target"] < res["achieved"] and res["verdict"]
    ok, reasons = verify(str(rep))
    assert ok, reasons


def test_budget_exits_3(tmp_path):
    f = tmp_path / "wide.json"
    assert run("gen", "--kind", "random-unit", "--n", "8", "--M", "60",
               "--seed", "0", "--out", str(f)) == 0
    assert run("phase", "--input", str(f)) == 3


def test_verdict_false_still_exits_0(tmp_path, capsys):
    f = _gen_frame(tmp_path, n=2, M=6)
    rep = tmp_path / "w.json"
    # bessel 3 with epsilon 2.5: target 0.5 < 1 is unreachable for unit vectors
    assert run("weaver", "--input", str(f), "--bessel", "3.0",
               "--epsilon", "2.5", "--report", str(rep), "--r-max", "2") == 0
    assert not load_report(str(rep))["payload"]["results"]["verdict"]


def test_dilate_operator_mode(tmp_path, capsys):
    t = tmp_path / "op.json"
    t.write_text(canonical_json(matrix_to_json(np.eye(3))))
    rep = tmp_path / "d.json"
    assert run("dilate", "--input", str(t), "--mode", "operator",
               "--report", str(rep)) == 0
    payload = load_report(str(rep))["payload"]
    assert payload["results"]["ambient_dim"] == 5
    ok, reasons = verify(str(rep))
    assert ok, reasons


def test_pave_and_verify_corruption(tmp_path):
    m = tmp_path / "m.json"
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6))
    m.write_text(canonical_json(matrix_to_json(a + a.T)))
    rep = tmp_path / "p.json"
    assert run("pave", "--input", str(m), "--r-max", "2", "--epsilon", "0.7",
               "--report", str(rep)) == 0
    assert verify(str(rep))[0]
    doc = load_report(str(rep))
    doc["payload"]["results"]["partition"]["blocks"] = [[0, 1, 2], [3, 4, 5]]
    ok, reasons = verify(doc)
    if ok:  # the corrupted partition could coincidentally price the same
        doc["payload"]["results"]["achieved"] += 0.25
        ok, reasons = verify(doc)
    assert not ok and reasons


def test_verify_rejects_out_of_range_partition(tmp_path, capsys):
    f = _gen_frame(tmp_path, n=2, M=6)
    m = tmp_path / "m.json"
    m.write_text(canonical_json(matrix_to_json(np.ones((6, 6)))))
    for argv in (
        ["weaver", "--input", str(f), "--bessel", "3.0", "--epsilon", "0.4",
         "--r-max", "3"],
        ["pave", "--input", str(m), "--r-max", "2", "--epsilon", "0.7"],
        ["decompose", "--input", str(f), "--criterion", "riesz",
         "--epsilon", "0.95", "--r-max", "4"],
        ["radohorn", "--input", str(f), "--r", "3"],
    ):
        rep = tmp_path / f"{argv[0]}.json"
        assert run(*argv, "--report", str(rep)) == 0
        doc = load_report(str(rep))
        doc["payload"]["results"]["partition"]["blocks"] = [[0, 1, 2],
                                                            [3, 4, 5, 6]]
        rep.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("verify", "--report", str(rep)) == 0, argv[0]
        out = json.loads(capsys.readouterr().out)
        assert out["verified"] is False and out["reasons"], argv[0]


def _tampered(path, edit):
    doc = load_report(str(path))
    edit(doc["payload"]["results"])
    return verify(doc)


def test_verify_rejects_tampered_radohorn_and_phase(tmp_path):
    f = _gen_frame(tmp_path, n=2, M=6)
    feasible, infeasible = tmp_path / "r3.json", tmp_path / "r2.json"
    assert run("radohorn", "--input", str(f), "--r", "3",
               "--report", str(feasible)) == 0
    assert run("radohorn", "--input", str(f), "--r", "2",
               "--report", str(infeasible)) == 0
    assert verify(str(feasible))[0] and verify(str(infeasible))[0]

    def singletons(res):
        res["partition"]["blocks"] = [[i] for i in range(6)]
    ok, reasons = _tampered(feasible, singletons)
    assert not ok and "more than 3" in reasons[-1]

    def ratio(res):
        res["witness"]["ratio"] = 4.0
    ok, reasons = _tampered(infeasible, ratio)
    assert not ok and "results.witness" in reasons[-1]
    doc = load_report(str(infeasible))
    doc["payload"]["config"]["r"] = 3    # six vectors of rank 2 do split
    ok, reasons = verify(doc)
    assert not ok and "does not violate" in reasons[-1]

    m = tmp_path / "e1e1e2.json"
    m.write_text(canonical_json(matrix_to_json(
        np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))))
    rep = tmp_path / "ph.json"
    assert run("phase", "--input", str(m), "--trials", "10",
               "--report", str(rep)) == 0
    assert load_report(str(rep))["payload"]["results"]["witness"] == \
        {"side": [0, 1], "complement": [2]}
    assert verify(str(rep))[0]

    def side(res):
        res["witness"] = {"side": [0], "complement": [1, 2]}
    ok, reasons = _tampered(rep, side)
    assert not ok and "results.witness" in reasons[-1]


def test_verify_detects_changed_input(tmp_path):
    f = _gen_frame(tmp_path, n=2, M=4)
    rep = tmp_path / "a.json"
    assert run("analyze", "--input", str(f), "--report", str(rep)) == 0
    doc = json.loads(f.read_text())
    doc["base64"] = ("B" if doc["base64"][0] == "A" else "A") + \
        doc["base64"][1:]           # one character flipped
    f.write_text(json.dumps(doc))
    ok, reasons = verify(str(rep))
    assert not ok
    assert any("changed" in r for r in reasons)


def test_verify_unreadable_report(tmp_path, capsys):
    ok, reasons = verify(str(tmp_path / "nope.json"))
    assert not ok and "unreadable report" in reasons[0]
    assert run("verify", "--report", str(tmp_path / "nope.json")) == 0
    assert '"verified": false' in capsys.readouterr().out


def test_decompose_ric_radohorn(tmp_path):
    f = _gen_frame(tmp_path, n=2, M=6)
    for argv in (
        ["decompose", "--input", str(f), "--criterion", "riesz",
         "--epsilon", "0.95", "--r-max", "4"],
        ["decompose", "--input", str(f), "--criterion", "tp1",
         "--s", "2", "--delta", "0.9"],
        ["ric", "--input", str(f), "--s", "2"],
        ["radohorn", "--input", str(f), "--r", "3", "--partition"],
    ):
        rep = tmp_path / f"{argv[0]}-{argv[4][2:4]}.json"
        assert run(*argv, "--report", str(rep)) == 0
        ok, reasons = verify(str(rep))
        assert ok, (argv, reasons)


def test_decompose_verify_rejects_raised_lower_target(tmp_path):
    f = _gen_frame(tmp_path, n=2, M=6)
    rep = tmp_path / "riesz.json"
    assert run("decompose", "--input", str(f), "--criterion", "riesz",
               "--epsilon", "0.95", "--r-max", "4", "--report", str(rep)) == 0
    doc = load_report(str(rep))
    res = doc["payload"]["results"]
    lowest = min(lo for lo, _ in res["per_block"])
    res["target"][0] = lowest + 5e-13   # inside the verdict slack
    assert verify(doc)[0]
    res["target"][0] = lowest + 5e-10
    ok, reasons = verify(doc)
    assert not ok and "results.verdict" in reasons[-1]


def _verify_cli(path, capsys):
    capsys.readouterr()
    assert run("verify", "--report", str(path)) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("command, subset", [
    ("ric", [0, 7]),        # index past M
    ("ric", [1, -2]),       # numpy indexing would wrap -2 round
    ("ric", [0, 1, 2]),     # longer than s = 2
    ("ric", []),
    ("ric", [1, 0]),
    ("erasure", [0, 0]),    # repeated, on a k = 1 report
    ("erasure", [0, 1]),    # longer than k = 1
    ("erasure", [9]),
])
def test_verify_rejects_malformed_subsets(tmp_path, capsys, command, subset):
    f = _gen_frame(tmp_path, n=2, M=5)
    rep = tmp_path / "r.json"
    opt = ["--s", "2"] if command == "ric" else ["--k", "1"]
    assert run(command, "--input", str(f), *opt, "--report", str(rep)) == 0
    assert _verify_cli(rep, capsys)["verified"] is True
    doc = load_report(str(rep))
    doc["payload"]["results"]["worst_subset"] = subset
    rep.write_text(json.dumps(doc))
    out = _verify_cli(rep, capsys)
    assert out["verified"] is False
    assert "not a sorted list" in out["reasons"][-1]


def test_tp1_verify_reruns_the_search(tmp_path, capsys):
    """verify re-runs tp1 at the configured delta, so a config edited
    without its results fails: below the top block constant by less than
    VERDICT_SLACK, which here is a negative delta the producer refuses,
    and at another delta in (0, 1), whose search has another k."""
    f = _gen_frame(tmp_path, n=2, M=6)
    rep = tmp_path / "tp1.json"
    assert run("decompose", "--input", str(f), "--criterion", "tp1",
               "--s", "2", "--delta", "0.9", "--report", str(rep)) == 0
    assert _verify_cli(rep, capsys) == {"verified": True, "reasons": []}
    doc = load_report(str(rep))
    assert doc["payload"]["results"]["verdict"]
    top = max(doc["payload"]["results"]["per_block_delta"])
    for delta, reason in ((top - 5e-13, "delta must lie in (0, 1)"),
                          (0.5, "results.k differs")):
        doc["payload"]["config"]["delta"] = delta
        rep.write_text(json.dumps(doc))
        out = _verify_cli(rep, capsys)
        assert out["verified"] is False
        assert reason in out["reasons"][-1], out


def test_write_report_converts_numpy_values(tmp_path):
    payload = {"flag": np.bool_(True), "count": np.int64(7),
               "x": np.float32(0.1), "y": np.float64(1 / 3),
               "rows": np.arange(4.0).reshape(2, 2),
               "nested": [np.int64(2), (np.bool_(False),)]}
    plain = {"flag": True, "count": 7, "x": float(np.float32(0.1)),
             "y": 1 / 3, "rows": [[0.0, 1.0], [2.0, 3.0]],
             "nested": [2, [False]]}
    path = tmp_path / "r.json"
    write_report(str(path), {"payload": payload, "meta": {}})
    assert path.read_text() == json.dumps(
        {"payload": plain, "meta": {}}, sort_keys=True,
        separators=(",", ":")) + "\n"
    assert canonical_json(payload) == canonical_json(plain)
    with pytest.raises(TypeError):
        write_report(str(path), {"payload": {"bad": object()}})
    with pytest.raises(TypeError):
        canonical_json({"bad": np.complex128(1j)})


def test_subspace_command(tmp_path):
    basis = tmp_path / "b.json"
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((4, 3)))
    basis.write_text(canonical_json(matrix_to_json(q)))
    rep = tmp_path / "s.json"
    assert run("subspace", "--input", str(basis), "--a", "0.05",
               "--blocks", "0,1;2,3", "--report", str(rep)) == 0
    assert verify(str(rep))[0]


def test_toeplitz_and_grid_commands(tmp_path):
    g = tmp_path / "g.json"
    rep = tmp_path / "gr.json"
    assert run("gen", "--kind", "e1-grid", "--N", "360", "--levels", "3",
               "--out", str(g), "--report", str(rep)) == 0
    assert verify(str(rep))[0]
    rep2 = tmp_path / "t.json"
    assert run("toeplitz", "--input", str(g), "--k-list", "2,3",
               "--epsilon", "0.5", "--stride", "2", "--freq-max", "6",
               "--report", str(rep2)) == 0
    assert verify(str(rep2))[0]


@pytest.mark.parametrize("report", [False, True])
def test_toeplitz_refuses_an_empty_frequency_range(tmp_path, capsys, report):
    g = tmp_path / "g.json"
    assert run("gen", "--kind", "e1-grid", "--N", "360", "--levels", "3",
               "--out", str(g)) == 0
    rep = tmp_path / "t.json"
    argv = ["toeplitz", "--input", str(g), "--k-list", "2", "--epsilon",
            "0.5", "--stride", "2", "--freq-min", "10", "--freq-max", "5"]
    assert run(*argv, *(["--report", str(rep)] if report else [])) == 2
    assert "need at least one frequency" in capsys.readouterr().err
    assert not rep.exists()


def test_toeplitz_at_k_equal_n_verifies(tmp_path):
    n = 7680
    g = tmp_path / "g.json"
    values = np.random.default_rng(12).uniform(0.5, 1.5, n)
    g.write_text(json.dumps({"N": n, "values": [[v, 0.0] for v in values]}))
    rep = tmp_path / "t.json"
    assert run("toeplitz", "--input", str(g), "--k-list", str(n),
               "--epsilon", "0.5", "--report", str(rep)) == 0
    assert verify(str(rep)) == (True, [])


def test_kadec_mv_erasure_phase(tmp_path):
    argvs = [
        ["kadec", "--a", "1", "--b", "1", "--gamma", "3.141592653589793",
         "--delta", "0.1", "--empirical", "--n-max", "6",
         "--delta-max", "0.2", "--seed", "3", "--lam", "0.1", "--mu", "0.1"],
        ["mv-theta", "--freqs", "0,1.5,3.2", "--coeffs", "1,0.5-0.2j,2",
         "--t-len", "2.0"],
    ]
    f = _gen_frame(tmp_path, n=2, M=4)
    rf = _gen_frame(tmp_path, "rf.json", kind="random-unit", n=2, M=5, seed=7)
    argvs.append(["erasure", "--input", str(f), "--k", "1"])
    argvs.append(["phase", "--input", str(rf), "--trials", "200", "--seed", "1"])
    for i, argv in enumerate(argvs):
        rep = tmp_path / f"r{i}.json"
        assert run(*argv, "--report", str(rep)) == 0
        ok, reasons = verify(str(rep))
        assert ok, (argv, reasons)


def test_near_parseval_erasure_exits_0_and_verifies(tmp_path, capsys):
    # a 5 x 20 Parseval frame scaled by c = 1 + 4e-9 passes the Parseval
    # test (1e-8), while 1 - lambda_max of an erased Gram block misses the
    # survivors' lower bound by about c^2 - 1 = 8e-9
    q, _ = np.linalg.qr(np.random.default_rng(12).standard_normal((20, 5)))
    f = tmp_path / "bent.json"
    f.write_text(canonical_json(matrix_to_json((1.0 + 4e-9) * q.T)))
    rep = tmp_path / "r.json"
    assert run("erasure", "--input", str(f), "--k", "3",
               "--report", str(rep)) == 0
    assert capsys.readouterr().err == ""
    assert load_report(str(rep))["payload"]["results"]["is_parseval"] is True
    assert verify(str(rep)) == (True, [])


def test_phase_trials_and_seed_have_no_effect(tmp_path):
    rf = _gen_frame(tmp_path, "rf.json", kind="random-unit", n=2, M=5, seed=7)
    payloads = []
    for extra in ([], ["--trials", "500", "--seed", "9"], ["--trials", "-3"]):
        rep = tmp_path / f"ph{len(payloads)}.json"
        assert run("phase", "--input", str(rf), *extra,
                   "--report", str(rep)) == 0
        payloads.append(load_report(str(rep))["payload"])
    assert payloads[0]["config"] == {}
    assert payloads[1] == payloads[0] == payloads[2]


def test_entry_point_subprocess(tmp_path):
    # the child must import the same pavekit as this process, also when
    # pytest put src/ on sys.path rather than PYTHONPATH
    src = os.path.dirname(os.path.dirname(pavekit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "pavekit.cli", "--version"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert "pavekit" in out.stdout


def test_cli_import_leaves_numpy_fft_unloaded():
    src = os.path.dirname(os.path.dirname(pavekit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, pavekit.cli; print('numpy.fft' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_missing_seed_fails_verification(tmp_path):
    f = _gen_frame(tmp_path, "rf.json", kind="random-unit", n=2, M=5, seed=7)
    rep = tmp_path / "ph.json"
    assert run("phase", "--input", str(f), "--trials", "100", "--seed", "2",
               "--report", str(rep)) == 0
    doc = load_report(str(rep))
    doc["payload"]["config"]["seed"] = None
    ok, reasons = verify(doc)
    assert not ok and "missing seed" in reasons
