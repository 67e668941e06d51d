import json
import subprocess
import sys

import numpy as np
import pytest

from pavekit.cli import main
from pavekit.core import matrix_to_json
from pavekit.paving import pave_exhaustive
from pavekit.reports import canonical_payload, load_report, verify


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
    assert canonical_payload(a) == canonical_payload(b)
    # wall time may coincide, but it lives outside the hashed payload
    assert "wall_time_s" in a["meta"] and "timestamp" in a["meta"]


def test_malformed_input_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("analyze", "--input", str(bad)) == 2
    missing = tmp_path / "missing.json"
    assert run("analyze", "--input", str(missing)) == 2


def test_malformed_matrix_entry_exits_2(tmp_path, capsys):
    for entry in ([1], None, "x", [[1.0, 0.0]]):
        bad = tmp_path / "entry.json"
        bad.write_text(json.dumps({"rows": 1, "cols": 2, "field": "real",
                                   "entries": [[1.0, 0.0], entry]}))
        assert run("analyze", "--input", str(bad)) == 2
        assert "malformed matrix entry" in capsys.readouterr().err


def test_verdict_just_inside_slack_passes_verify(tmp_path):
    m = tmp_path / "m.json"
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6))
    m.write_text(json.dumps(matrix_to_json(a + a.T)))
    first = pave_exhaustive(a + a.T, 2, 0.5)
    epsilon = (first.achieved - 5e-13) / first.scale
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
    assert run("gen", "--kind", "random-unit", "--n", "4", "--M", "30",
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
    t.write_text(json.dumps(matrix_to_json(np.eye(3))))
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
    m.write_text(json.dumps(matrix_to_json(a + a.T)))
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


def test_verify_detects_changed_input(tmp_path):
    f = _gen_frame(tmp_path, n=2, M=4)
    rep = tmp_path / "a.json"
    assert run("analyze", "--input", str(f), "--report", str(rep)) == 0
    doc = json.loads(f.read_text())
    doc["entries"][0][0] += 0.01
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


def test_subspace_command(tmp_path):
    basis = tmp_path / "b.json"
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((4, 3)))
    basis.write_text(json.dumps(matrix_to_json(q)))
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


def test_entry_point_subprocess(tmp_path):
    out = subprocess.run([sys.executable, "-m", "pavekit.cli", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "pavekit" in out.stdout


def test_missing_seed_fails_verification(tmp_path):
    f = _gen_frame(tmp_path, "rf.json", kind="random-unit", n=2, M=5, seed=7)
    rep = tmp_path / "ph.json"
    assert run("phase", "--input", str(f), "--trials", "100", "--seed", "2",
               "--report", str(rep)) == 0
    doc = load_report(str(rep))
    doc["payload"]["config"]["seed"] = None
    ok, reasons = verify(doc)
    assert not ok and "missing seed" in reasons
