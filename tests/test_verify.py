"""verify against forged and malformed reports: every report the CLI writes
verifies, and a single forged field makes it fail with a verdict line."""

import json
import os
import subprocess
import sys

import pytest

import pavekit
from pavekit import paving, reports
from pavekit.cli import main
from pavekit.reports import load_report

from report_cases import make_reports


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    return make_reports(tmp_path_factory.mktemp("reports"))


def _verify_cli(path, capsys):
    capsys.readouterr()
    assert main(["verify", "--report", str(path)]) == 0
    return json.loads(capsys.readouterr().out)


def test_every_case_verifies(cases, capsys):
    for case, rep in cases.items():
        assert _verify_cli(rep, capsys) == {"verified": True, "reasons": []}, \
            case


def test_every_case_records_its_input_under_the_tables_name(cases):
    for case, rep in cases.items():
        payload = load_report(str(rep))["payload"]
        name = reports._INPUTS.get(payload["command"])
        assert list(payload["inputs"]) == ([] if name is None else [name]), \
            case


def _flip(d, key):
    d[key] = not d[key]


# Each edits one results field of a certified report and keeps every other
# field as the producer wrote it.
FORGERIES = {
    "riesz-one-block": ("riesz", lambda r: r.update(
        partition={"blocks": [list(range(7))]}, per_block=[])),
    "feichtinger-one-block": ("feichtinger", lambda r: r.update(
        partition={"blocks": [list(range(7))]}, per_block=[])),
    "tp1-one-block": ("tp1", lambda r: r.update(
        partition={"blocks": [list(range(9))]}, per_block_delta=[])),
    "analyze-empty-summary": ("analyze", lambda r: r.update(summary={})),
    "toeplitz-no-moduli": ("toeplitz", lambda r: r.update(per_k=[])),
    "toeplitz-tt3-flipped": ("toeplitz",
                             lambda r: _flip(r["per_k"][0], "tt3_ok")),
    "subspace-no-largeness": ("subspace", lambda r: r.pop("largeness")),
    "subspace-dim": ("subspace", lambda r: r.update(dim=5)),
    "pave-per-block": ("pave", lambda r: r.update(per_block=[0.0])),
    "weaver-per-block": ("weaver", lambda r: r.update(per_block=[])),
    "kadec-extra-bound": ("kadec", lambda r: r["bounds"].update(extra=0.0)),
    "gen-kind": ("gen", lambda r: r.update(kind="random-unit")),
    "mv-theta-within-unit": ("mv-theta", lambda r: _flip(r, "within_unit")),
    "radohorn-junk-witness": ("radohorn", lambda r: r.update(
        witness={"subset": [0], "ratio": 9.0})),
}


@pytest.mark.parametrize("forgery", FORGERIES)
def test_forged_field_fails_verify(cases, tmp_path, capsys, forgery):
    case, edit = FORGERIES[forgery]
    doc = load_report(str(cases[case]))
    edit(doc["payload"]["results"])
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(doc))
    out = _verify_cli(forged, capsys)
    assert out["verified"] is False and out["reasons"], case


# Each edits one field a report states about its input, config or search
# record, not its certificate, and keeps every other field as written.
PAYLOAD_FORGERIES = {
    "subspace-float-index": ("subspace", lambda p: p["config"].update(
        blocks=[[0, 1.5], [2, 3]])),
    "subspace-bool-index": ("subspace", lambda p: p["config"].update(
        blocks=[[0, True], [2, 3]])),
    "pave-float-index": ("pave", lambda p: p["results"]["partition"].update(
        blocks=[[i + 0.5 if i == 1 else i for i in blk]
                for blk in p["results"]["partition"]["blocks"]])),
    "projection-diag-delta": ("pave-projection", lambda p: p["results"][
        "flags"].update(diag_delta=0.0)),
    # the projection's largest diagonal entry is 0.5046, over delta 0.5
    "projection-precondition": (
        "pave-projection", lambda p: p["config"].update(delta=0.6)),
    "weaver-bessel-actual": ("weaver", lambda p: p["results"]["flags"].update(
        bessel_actual=1.0)),
    "weaver-precondition": ("weaver", lambda p: p["results"]["flags"].update(
        precondition_violated=True)),
    "local-seed": ("pave-local", lambda p: p["config"].update(seed=4)),
    "exhaustive-seed": ("pave", lambda p: p["config"].update(seed=[])),
    "mode": ("pave-local", lambda p: p["config"].update(mode="exhaustive")),
    "riesz-seed": ("riesz", lambda p: p["config"].update(seed=[])),
    "tp1-seed": ("tp1", lambda p: p["config"].update(seed=[])),
    "dilate-mode": ("dilate", lambda p: p["config"].update(mode=None)),
    "dilate-relabeled": ("dilate", lambda p: p["config"].update(
        mode="operator")),
    "tp1-other-seed": ("tp1", lambda p: p["config"].update(
        seed=p["config"]["seed"] + 1)),
    # over the quadrature budget: verify reports it instead of raising
    "mv-theta-huge-t-len": ("mv-theta", lambda p: p["config"].update(
        t_len=1e308)),
    # config and results as a phase run with --trials -1 used to write them
    "phase-negative-trials": ("phase", lambda p: (
        p["config"].update(trials=-1),
        p["results"].update(trials=-1, solvable=0, failures=0))),
    # frequencies 7..6 form no progression, and no block is no verdict
    "toeplitz-empty-range": ("toeplitz", lambda p: (
        p["config"].update(freq_min=7),
        p["results"]["distribution"].update(blocks=[], verdict=True))),
}


@pytest.mark.parametrize("forgery", PAYLOAD_FORGERIES)
def test_forged_payload_field_fails_verify(cases, tmp_path, capsys, forgery):
    case, edit = PAYLOAD_FORGERIES[forgery]
    doc = load_report(str(cases[case]))
    edit(doc["payload"])
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(doc))
    out = _verify_cli(forged, capsys)
    assert out["verified"] is False and out["reasons"], case


def _child_verify(doc, path):
    """Run `pavekit verify` on doc in a child process whose stdin is a pipe
    nobody writes to or closes, so reading it would block."""
    path.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(pavekit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    r, w = os.pipe()
    try:
        out = subprocess.run(
            [sys.executable, "-m", "pavekit.cli", "verify", "--report",
             str(path)], stdin=r, capture_output=True, text=True, env=env,
            timeout=60)
    finally:
        os.close(r)
        os.close(w)
    return out


@pytest.mark.parametrize("where, value", [
    ("path", 1),              # open(1) would close stdout
    ("path", 0),              # open(0) would read stdin until EOF
    ("path", "/dev/stdin"),
    ("sha256", None),
    ("command", []),          # unhashable
    ("inputs", ["frame"]),
])
def test_malformed_payload_gets_a_verdict(cases, tmp_path, where, value):
    doc = load_report(str(cases["analyze"]))
    if where == "command":
        doc["payload"]["command"] = value
    elif where == "inputs":
        doc["payload"]["inputs"] = value
    else:
        doc["payload"]["inputs"]["frame"][where] = value
    out = _child_verify(doc, tmp_path / "bad.json")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1])["verified"] is False


def test_weaver_verify_prices_the_worst_block_twice(cases, tmp_path, capsys,
                                                    monkeypatch):
    # a wrong Gram-route cost, shared by the search and the re-pricing
    gram_top = paving._gram_block_top
    wrong = lambda g: (lambda blk: 2.0 * gram_top(g)(blk))  # noqa: E731
    monkeypatch.setattr(paving, "_gram_block_top", wrong)
    monkeypatch.setattr(reports, "_gram_block_top", wrong, raising=False)
    rep = tmp_path / "weaver-wrong.json"
    frame = cases["weaver"].parent / "f37.json"
    assert main(["weaver", "--input", str(frame),
                 "--bessel", "4", "--epsilon", "0.5", "--r-max", "3",
                 "--report", str(rep)]) == 0
    out = _verify_cli(rep, capsys)
    assert out["verified"] is False
    assert "results.achieved" in out["reasons"][-1]
