"""verify against forged and malformed reports: every report the CLI writes
verifies, and a single forged field makes it fail with a verdict line."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import pavekit
from pavekit import paving, reports
from pavekit.cli import main
from pavekit.core import Frame, matrix_from_json, matrix_to_json
from pavekit.decomposition import (
    epsilon_riesz_partition,
    feichtinger_partition,
    tp1_partition,
)
from pavekit.dilation import dilate_operator, naimark_dilate
from pavekit.erasures import erasure_robustness
from pavekit.frames import spectral_summary
from pavekit.paving import (
    pave_matrix_check,
    pave_projection_check,
    weaver_check,
)
from pavekit.reports import canonical_json, load_report, verify

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


# case -> the library call that makes its results, on the stored config and
# the decoded input
LIBRARY = {
    "analyze": lambda c, fr: {"summary": spectral_summary(fr)},
    "dilate": lambda c, mat: naimark_dilate(Frame(mat)),
    "dilate-operator": lambda c, mat: dilate_operator(mat),
    "pave": lambda c, t: pave_matrix_check(t, c["r_max"], c["epsilon"],
                                           c["mode"], c["seed"]),
    "pave-local": lambda c, t: pave_matrix_check(t, c["r_max"], c["epsilon"],
                                                 c["mode"], c["seed"]),
    "pave-projection": lambda c, p: pave_projection_check(
        p, c["r_max"], c["epsilon"], c["delta"], c["mode"], c["seed"]),
    "weaver": lambda c, fr: weaver_check(fr, c["bessel"], c["epsilon"],
                                         c["r_max"], c["seed"]),
    "riesz": lambda c, fr: epsilon_riesz_partition(fr, c["epsilon"],
                                                   c["r_max"]),
    "feichtinger": lambda c, fr: feichtinger_partition(fr, c["a_target"],
                                                       c["r_max"]),
    "tp1": lambda c, fr: tp1_partition(fr, c["s"], c["delta"], c["seed"],
                                       c["r_max"]),
    "erasure": lambda c, fr: erasure_robustness(fr, c["k"]),
}


@pytest.mark.parametrize("case", LIBRARY)
def test_the_library_returns_the_results_the_report_stores(cases, case):
    payload = load_report(str(cases[case]))["payload"]
    name = reports._INPUTS[payload["command"]]
    with open(payload["inputs"][name]["path"]) as fh:
        obj = reports._decode(name, json.load(fh))
    got = LIBRARY[case](payload["config"], obj)
    assert canonical_json(got) == canonical_json(payload["results"])


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
    "dilate-norm-one": ("dilate-operator",
                        lambda r: _flip(r["meta"], "norm_one")),
    "dilate-operator-norm": ("dilate-operator", lambda r: r["meta"].update(
        operator_norm=0.5)),
    "dilate-rank": ("dilate", lambda r: r.update(rank=2)),
    # delta * delta underflows to 0 where B s / delta^2 is formed
    "tp1-delta-underflow": ("tp1", lambda r: r.update(delta_target=5e-324)),
    # stored partitions that check_blocks refuses: the pave case has M = 6,
    # and the weaver one stays within its 3 blocks
    "pave-index-m": ("pave", lambda r: r["partition"]["blocks"][-1].append(6)),
    "radohorn-duplicate-index": ("radohorn", lambda r: r["partition"][
        "blocks"][-1].append(0)),
    "weaver-empty-block": ("weaver", lambda r: r["partition"].update(
        blocks=[[0, 1, 2, 3, 4], [], [5, 6]])),
    "riesz-true-index": ("riesz", lambda r: r["partition"].update(
        blocks=[[True if i == 1 else i for i in blk]
                for blk in r["partition"]["blocks"]])),
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
    # the search record and a False verdict of the seeded tp1 search, which
    # verify re-runs
    "tp1-r-used": ("tp1", lambda p: p["results"].update(r_used=4)),
    "tp1-escalation": ("tp1", lambda p: p["results"]["flags"][
        "escalations"][0].update(max_mass=0.0)),
    "tp1-false-verdict": ("tp1", lambda p: p["results"].update(
        verdict=False, partition=None, per_block_delta=[], r_used=0)),
    # 2 pi T max|lambda_j - lambda_k| overflows: verify reports it instead
    # of raising
    "mv-theta-huge-t-len": ("mv-theta", lambda p: p["config"].update(
        t_len=1e308)),
    # a config as the quadrature once recorded it, its frequencies and
    # length moved so that 64 T max|lambda| underflows: quad_n is no option
    # now, and the closed form at the moved ones gives another theta
    "mv-theta-quad-n-zero": ("mv-theta", lambda p: p["config"].update(
        quad_n=0, t_len=1e-300, freqs=[0, 1e-30, 2e-30])),
    # pi / (4 gamma) - asin(...) / gamma is inf - inf
    "kadec-gamma-underflow": ("kadec", lambda p: p["config"].update(
        gamma=5e-324, delta=0.0)),
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


def _scaled(res):
    added = matrix_from_json(res["added_vectors"])
    res["added_vectors"] = matrix_to_json((1 + 1e-6) * added)


def _row_dropped(res):
    added = matrix_from_json(res["added_vectors"])
    res["added_vectors"] = matrix_to_json(added[1:])


# Each forges the completion a dilation report stores, F = [input |
# added_vectors] being the whole certificate: (case, the edit of its
# results, the reason verify must give).  The naimark case is a 3x6
# Parseval family and the operator case a norm-one 3x3 operator, completed
# by 2 columns.
CERTIFICATE_FORGERIES = {
    "not-parseval": ("dilate-operator", _scaled,
                     "dilated family is not Parseval"),
    "dropped-row": ("dilate-operator", _row_dropped,
                    "dilation shapes do not match the input"),
    # a zero column keeps F Parseval, but naimark adds none
    "naimark-extra-column": ("dilate", lambda r: r.update(
        added_vectors=matrix_to_json(np.zeros((3, 1)))),
        "dilation shapes do not match the input"),
    "operator-null": ("dilate-operator",
                      lambda r: r.update(added_vectors=None),
                      "dilation shapes do not match the input"),
    # a plain list of rows, not a matrix object: refused as a contract
    # violation, not escaped as an exception
    "non-matrix": ("dilate", lambda r: r.update(
        added_vectors=[[0.0], [0.0], [0.0]]),
        "malformed matrix JSON: list indices must be integers or slices, "
        "not str"),
}


@pytest.mark.parametrize("forgery", CERTIFICATE_FORGERIES)
def test_forged_dilation_certificate_fails_verify(cases, forgery):
    case, edit, reason = CERTIFICATE_FORGERIES[forgery]
    doc = load_report(str(cases[case]))
    edit(doc["payload"]["results"])
    assert verify(doc) == (False, [reason])


def _with_vector(doc, edit):
    """doc, a subspace report, with its first solved vector matrix
    replaced by edit(that matrix's wire dict)."""
    vectors = doc["payload"]["results"]["decomposable"]["vectors"]
    vectors[0] = edit(vectors[0])
    return doc


def _moved(by):
    def edit(wire):
        m = matrix_from_json(wire)
        m[0, 0] += by
        return matrix_to_json(m)
    return edit


def _pair_form(wire):
    """The same matrix in the pair form older versions wrote."""
    m = matrix_from_json(wire)
    return {"rows": wire["rows"], "cols": wire["cols"],
            "field": wire["field"],
            "entries": [[float(z.real), float(z.imag)]
                        for z in m.T.ravel().astype(complex)]}


def test_wire_matrices_match_by_value(cases):
    """Stored solved vectors are held to the rebuilt ones with subspace's
    absolute 1e-9, whatever their text: a move far inside it verifies, one
    past it does not, an undecodable matrix is a reason and a report in the
    pair form still verifies."""
    def check(edit):
        return verify(_with_vector(load_report(str(cases["subspace"])),
                                   edit))
    assert check(lambda w: w) == (True, [])
    assert check(_moved(1e-12)) == (True, [])
    assert check(_pair_form) == (True, [])
    ok, reasons = check(_moved(1e-6))
    assert not ok and reasons[0].startswith(
        "results.decomposable.vectors[0] differs in the real part of entry "
        "(0, 0): stored ")
    ok, reasons = check(lambda w: dict(w, base64="!" + w["base64"][1:]))
    assert not ok and reasons[0].startswith(
        "results.decomposable.vectors[0] is not a wire matrix: malformed "
        "matrix base64: ")
    for edit, why in ((lambda w: dict(w, cols=w["cols"] + 1), "bytes"),
                      (lambda w: dict(w, extra=1), "differs: stored"),
                      (lambda w: matrix_to_json(
                          matrix_from_json(w).astype(complex)),
                       "differs: stored"),
                      (lambda w: [w], "not a wire matrix")):
        ok, reasons = check(edit)
        assert not ok and why in reasons[0], why


def test_dilation_of_the_wrong_shape_fails_verify(tmp_path):
    """The Parseval row (1/2, 1/2, 1/2, 1/2) relabeled as an operator
    dilation: F = [row] is Parseval and adds n - 1 = 0 columns, so only the
    rule that operator mode takes a square input refuses it."""
    row, rep = tmp_path / "row.json", tmp_path / "report.json"
    row.write_text(canonical_json(matrix_to_json(np.full((1, 4), 0.5))))
    assert main(["dilate", "--input", str(row), "--report", str(rep)]) == 0
    doc = load_report(str(rep))
    doc["payload"]["config"]["mode"] = "operator"
    doc["payload"]["results"]["meta"].update(
        mode="operator", norm_one=True, operator_norm=1.0)
    assert verify(doc) == (False, ["dilation shapes do not match the input"])


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

    def wrong(g):
        cost = gram_top(g)
        return lambda idx: [2.0 * c for c in cost(idx)]

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
