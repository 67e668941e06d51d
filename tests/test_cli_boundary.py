"""The exit-code contract at the CLI boundary: 0 done, 2 bad input, 3 over
budget, with no exception escaping and a verifiable report on every 0.

Every float option of every subcommand is driven with edge values on the
small fixed inputs of report_cases, in-process through cli.main.  So are
gen's sizes, --n, --M and --N, which core.ENTRY_BUDGET bounds before any
allocation.  The block counts (--r-max, --r), kadec's --n-max, toeplitz's
--freq-min and --freq-max, gen's --levels and the other integer options of
HUGE_INTEGERS are driven at 10^9 in a child process with a bounded address
space, and so are 2049 mv-theta frequencies and a 20000x1 and a 1x20000
input, whose Gram matrix or frame operator the same entry budget refuses.
"""

import argparse
import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from pavekit import cli, paving, reports
from oracles import (
    erasure_by_full_scan,
    phase_by_side_ranks,
    restricted_isometry_by_full_scan,
)
from pavekit.core import (
    ENTRY_BUDGET,
    SUBSET_BUDGET,
    BudgetExceeded,
    ContractViolation,
    Frame,
    check_entries,
    matrix_to_json,
)
from pavekit.harmonic import montgomery_vaughan_theta
from pavekit.reports import canonical_json, input_record, load_report, verify
from report_cases import commands, make_reports

FINITE_EDGES = ("0", "-1", "1e308", "-1e308", "5e-324")
NOT_FINITE = ("nan", "inf", "-inf", "1e999", "x")


def _float_options():
    """{subcommand: its float options}, read off the parser, which must
    read every float through cli._finite_float."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert not [a for p in sub.choices.values() for a in p._actions
                if a.type is float]
    return {name: [a.option_strings[0] for a in p._actions
                   if a.type is cli._finite_float]
            for name, p in sub.choices.items()}


def _outputs(argv):
    """(exit code, stdout, stderr) of cli.main, argparse's own exits
    included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _run(argv):
    """(exit code, stderr) of cli.main, argparse's own exits included."""
    code, _, err = _outputs(argv)
    return code, err


def _with_option(argv, option, value):
    """argv with option set to value (as option=value, so that "-inf" is
    not read as a flag), replacing any value it had."""
    out = list(argv)
    if option in out:
        i = out.index(option)
        del out[i:i + 2]
    return out + [f"{option}={value}"]


def test_every_float_option_keeps_the_exit_contract(tmp_path):
    options = _float_options()
    driven = set()
    rep = tmp_path / "report.json"
    for case, argv in commands(tmp_path).items():
        assert _run(argv)[0] == 0, case        # gen-grid writes toeplitz's grid
        for option in options[argv[0]]:
            driven.add((argv[0], option))
            for value in FINITE_EDGES + NOT_FINITE:
                rep.unlink(missing_ok=True)
                run = _with_option(argv, option, value) + ["--report", str(rep)]
                code, err = _run(run)
                assert code in (0, 2, 3), (run, code, err)
                if value in NOT_FINITE:
                    assert code == 2 and "not a finite number" in err, run
                else:       # writing a report changes no exit code
                    assert _run(run[:-2])[0] == code, (run, code, err)
                assert rep.exists() == (code == 0), (run, code, err)
                if code == 0:
                    text = rep.read_text()
                    assert "Infinity" not in text and "NaN" not in text, run
                    assert verify(str(rep)) == (True, []), run
    assert driven == {(name, option) for name, opts in options.items()
                      for option in opts}


@pytest.mark.parametrize("report", [False, True])
def test_overflowing_paving_target_exits_2(tmp_path, report):
    """The target overflows where it is computed, with or without a report
    to write, and the option that set it is named."""
    argv = commands(tmp_path)
    weaver = _with_option(argv["weaver"], "--bessel", "1e308")
    for run, option in ((_with_option(argv["pave"], "--epsilon", "1e308"),
                         "--epsilon"),
                        (_with_option(weaver, "--epsilon", "-1e308"),
                         "--bessel")):
        rep = tmp_path / "report.json"
        code, err = _run(run + ["--report", str(rep)] if report else run)
        assert code == 2 and f"error: {option} gives a" in err, (run, err)
        assert not rep.exists()


@pytest.mark.parametrize("option", ["--delta", "--lam", "--mu"])
def test_kadec_overflow_names_the_option(tmp_path, option):
    code, err = _run(_with_option(commands(tmp_path)["kadec"], option,
                                  "1e308"))
    assert code == 2 and err.startswith(f"error: {option} 1e+308 "), err
    assert "out of float range" in err


@pytest.mark.parametrize("report", [False, True])
@pytest.mark.parametrize("values, option", [
    (("--a", "1", "--b", "1e308", "--gamma", "3", "--delta", "0.1",
      "--lam", "0.5", "--mu", "0"), "--b"),
    (("--a", "1.5e308", "--b", "1.5e308", "--gamma", "3",
      "--delta", "0.785"), "--a"),
    (("--a", "1e300", "--b", "1e300", "--gamma", "3", "--delta", "0.1",
      "--lam", "1e5", "--mu", "0"), "--a"),
])
def test_kadec_frame_bound_overflow_names_the_option(tmp_path, values,
                                                     option, report):
    """A perturbed bound that overflows exits 2 where it is computed, with
    or without a report to write, naming the frame bound that set it."""
    rep = tmp_path / "kadec.json"
    run = ["kadec", *values] + (["--report", str(rep)] if report else [])
    code, err = _run(run)
    value = float(values[values.index(option) + 1])
    assert code == 2 and err.startswith(f"error: {option} {value} "), err
    assert "out of float range" in err
    assert not rep.exists()


@pytest.mark.parametrize("report", [False, True])
@pytest.mark.parametrize("t_len", ["1e308", "inf"])
def test_mv_theta_t_len_overflow_exits_2(tmp_path, t_len, report):
    """A length whose phases 2 pi T max|lambda_j - lambda_k| overflow is bad
    input naming --t-len, as is a length that is no finite number."""
    rep = tmp_path / "report.json"
    run = ["mv-theta", "--freqs", "0,1", "--coeffs", "1,1",
           f"--t-len={t_len}"]
    code, err = _run(run + ["--report", str(rep)] if report else run)
    assert code == 2 and "--t-len" in err and "Traceback" not in err, err
    assert not rep.exists()


@pytest.mark.parametrize("coeffs, t_len, option", [
    ("1e200,1", "1", "--coeffs"),       # sum |a|^2 overflows
    ("1e150,1", "1e200", "--t-len"),    # T sum |a|^2 overflows
])
def test_mv_theta_energy_overflow_exits_2(tmp_path, coeffs, t_len, option):
    """An energy out of float range is bad input naming the option that
    set it, refused before numpy warns, and with no verdict printed."""
    rep = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _outputs(["mv-theta", "--freqs", "0,1", "--coeffs",
                                   coeffs, "--t-len", t_len,
                                   "--report", str(rep)])
    assert code == 2 and err.startswith(f"error: {option} "), err
    assert "out of float range" in err and out == ""
    assert not rep.exists()


def test_mv_theta_refuses_an_overflowing_integral():
    """Each sum |a|^2 is finite here, but the energy over the interval,
    T sum |a|^2 plus the off-diagonal terms, is not."""
    with pytest.raises(ContractViolation, match="out of float range"):
        montgomery_vaughan_theta([0.0, 0.001, 0.002], [5e153] * 3, 1.0)


def test_a_report_that_cannot_be_encoded_prints_no_verdict(tmp_path,
                                                           monkeypatch):
    """The report is encoded and written before the summary line is
    printed, so one that cannot be written leaves no verdict on stdout.
    No file is opened: a new path stays absent and an old file keeps its
    bytes."""
    monkeypatch.setitem(reports._BUILDERS, "mv-theta", lambda config, obj: {
        "theta": math.nan, "within_unit": True})
    opened, os_open = [], os.open
    monkeypatch.setattr(os, "open", lambda *a, **k: opened.append(a[0]) or
                        os_open(*a, **k))
    rep, old = tmp_path / "report.json", tmp_path / "old.json"
    old.write_bytes(b'{"an": "older report"}\n')
    for path in (rep, old):
        code, out, err = _outputs(MV_THETA + [
            "--freqs", "0,1", "--coeffs", "1,1", "--report", str(path)])
        assert code == 2 and "not JSON compliant" in err and out == "", err
    assert not rep.exists()
    assert old.read_bytes() == b'{"an": "older report"}\n'
    assert opened == []


def _same_file_cases(tmp_path):
    """(argv, the option --report collides with, the file both name) for
    a report path that is the file itself, a symlink to it and a hard link
    to it, over ric's --input and gen's --out."""
    frame = tmp_path / "frame.json"
    assert _run(["gen", "--kind", "random-unit", "--n", "3", "--M", "7",
                 "--seed", "0", "--out", str(frame)])[0] == 0
    out = tmp_path / "out.json"
    out.write_bytes(b"an older object\n")
    gen = ["gen", "--kind", "random-unit", "--n", "3", "--M", "7", "--seed",
           "1", "--out"]
    for option, target, argv in (
            ("--input", frame, ["ric", "--input", str(frame), "--s", "2"]),
            ("--out", out, gen + [str(out)])):
        link, hard = tmp_path / f"{target.stem}.lnk", tmp_path / \
            f"{target.stem}.hard"
        link.symlink_to(target)
        os.link(target, hard)
        for rep in (target, link, hard):
            yield argv + ["--report", str(rep)], option, target


def test_a_report_cannot_name_the_file_its_command_reads_or_writes(
        tmp_path):
    """--report naming the --input or --out file, by its own path, a
    symlink or a hard link, exits 2 naming both options, and the file
    keeps its bytes."""
    cases = list(_same_file_cases(tmp_path))
    assert len(cases) == 6
    for argv, option, target in cases:
        before = target.read_bytes()
        code, out, err = _outputs(argv)
        assert code == 2 and out == "", (argv, err)
        assert "--report" in err and option in err and \
            "name the same file" in err, err
        assert target.read_bytes() == before, argv


def test_a_report_over_a_new_out_path_is_refused_first(tmp_path):
    """gen --out and --report naming one path that does not exist yet
    exits 2 before writing either."""
    same = tmp_path / "sub" / ".." / "g.json"
    (tmp_path / "sub").mkdir()
    code, err = _run(["gen", "--kind", "harmonic", "--n", "2", "--M", "4",
                      "--out", str(tmp_path / "g.json"),
                      "--report", str(same)])
    assert code == 2 and "--out" in err and "--report" in err, err
    assert list(tmp_path.iterdir()) == [tmp_path / "sub"]


@pytest.mark.parametrize("option, value, rest", [
    ("--freqs", "-1.5,0,2", ["--coeffs", "1,1,1"]),
    ("--coeffs", "-1,0.5j,2", ["--freqs", "0,1,2"]),
])
def test_a_list_starting_with_minus_takes_the_equals_form(tmp_path, option,
                                                          value, rest):
    """argparse reads a separate value that starts with '-' as an option:
    the option=value form runs, and the separate form exits 2 naming the
    option."""
    rep = tmp_path / "report.json"
    code, err = _run(MV_THETA + rest + [f"{option}={value}",
                                        "--report", str(rep)])
    assert code == 0, err
    assert verify(str(rep)) == (True, [])
    code, err = _run(MV_THETA + rest + [option, value])
    assert code == 2 and f"argument {option}: expected one argument" in err
    assert "Traceback" not in err


def test_mv_theta_has_no_quad_n_option():
    code, err = _run(["mv-theta", "--freqs", "0,1", "--coeffs", "1,1",
                      "--t-len", "2", "--quad-n", "5"])
    assert code == 2 and "unrecognized arguments: --quad-n 5" in err


def test_mv_theta_budget_raises_before_allocating():
    """2049 frequencies make a Gram matrix of more than ENTRY_BUDGET
    entries, refused before it is built; a length whose phases overflow
    raises ContractViolation naming --t-len."""
    n = math.isqrt(ENTRY_BUDGET) + 1
    freqs, coeffs = np.arange(n, dtype=float), np.ones(n)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="entry budget"):
            montgomery_vaughan_theta(freqs, coeffs, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    for t_len in (1e308, math.inf):
        with pytest.raises(ContractViolation, match="^--t-len "):
            montgomery_vaughan_theta([0.0, 1.0], [1.0, 1.0], t_len)


@pytest.mark.parametrize("report", [False, True])
def test_underflowing_values_exit_2_naming_the_option(tmp_path, report):
    """A tp1 --delta whose square underflows or whose B s / delta^2
    overflows and a kadec --gamma that makes L infinite minus infinite exit
    2, with or without a report to write, naming the option."""
    tp1 = commands(tmp_path)["tp1"]
    runs = [(_with_option(tp1, "--delta", d), "--delta")
            for d in ("5e-324", "1e-300", "1e-160")]
    runs.append((["kadec", "--a", "1", "--b", "2", "--gamma", "5e-324",
                  "--delta", "0"], "--gamma"))
    rep = tmp_path / "report.json"
    for run, option in runs:
        code, err = _run(run + ["--report", str(rep)] if report else run)
        assert code == 2 and err.startswith(f"error: {option} "), (run, err)
        assert not rep.exists()


OVER = (ENTRY_BUDGET + 1, math.isqrt(ENTRY_BUDGET) + 1, 10**30)
# kind -> (its other options, its size options and their values)
GEN_KINDS = {
    "harmonic": ([], {"--n": 2, "--M": 4}),
    "random-unit": (["--seed", "1", "--field", "complex"],
                    {"--n": 2, "--M": 4}),
    "projection": (["--seed", "1"], {"--M": 4, "--n": 2}),
    "e1-grid": (["--levels", "3"], {"--N": 360}),
}


def _gen_entries(kind, sizes):
    """The entries gen allocates for kind at sizes."""
    if kind == "projection":
        return sizes["--M"] ** 2
    if kind == "e1-grid":
        return sizes["--N"]
    return sizes["--n"] * sizes["--M"]


def _gen_runs(tmp_path):
    """(argv, over budget) of gen with each size option of each kind set
    to an edge value, written with a report."""
    out, rep = str(tmp_path / "obj.json"), str(tmp_path / "gen.json")
    for kind, (fixed, sizes) in GEN_KINDS.items():
        for option in sizes:
            for value in (-1, 0, 1, 6, *OVER):
                run = {**sizes, option: value}
                yield (["gen", "--kind", kind, *fixed,
                        *(f"{k}={v}" for k, v in run.items()),
                        "--out", out, "--report", rep],
                       _gen_entries(kind, run) > ENTRY_BUDGET)


def test_gen_sizes_keep_the_exit_contract_without_allocating(tmp_path):
    """Over the entry budget, gen exits 3 (or 2 if the sizes also break a
    contract) before it allocates: the traced peak stays below 1 MB."""
    out, rep = tmp_path / "obj.json", tmp_path / "gen.json"
    exits = set()
    for argv, over in _gen_runs(tmp_path):
        out.unlink(missing_ok=True)
        rep.unlink(missing_ok=True)
        tracemalloc.start()
        try:
            code, err = _run(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code in (0, 2, 3) and "Traceback" not in err, (argv, err)
        assert rep.exists() == out.exists() == (code == 0), argv
        if over:
            assert code in (2, 3) and peak < 2**20, (argv, code, peak)
        if code == 3:
            assert over and "entry budget" in err, (argv, err)
        if code == 0:
            assert verify(str(rep)) == (True, []), argv
        exits.add(code)
    assert exits == {0, 2, 3}


@pytest.mark.parametrize("argv", [
    ["--kind", "random-unit", "--n", str(ENTRY_BUDGET), "--M", "2",
     "--seed", "0"],
    ["--kind", "random-unit", "--n", "1", "--M", str(ENTRY_BUDGET + 1),
     "--seed", "0"],
    ["--kind", "harmonic", "--n", "2", "--M", str(ENTRY_BUDGET // 2 + 1)],
    ["--kind", "projection", "--M", str(math.isqrt(ENTRY_BUDGET) + 1),
     "--n", "1", "--seed", "0"],
    ["--kind", "e1-grid", "--N", str(ENTRY_BUDGET + 1), "--levels", "1"],
])
def test_gen_just_over_the_budget_exits_3(tmp_path, argv):
    out = tmp_path / "obj.json"
    code, err = _run(["gen", *argv, "--out", str(out)])
    assert code == 3, err
    assert f"exceeds the {ENTRY_BUDGET} entry budget" in err
    assert not out.exists()


def test_entry_budget_admits_its_own_size():
    check_entries(ENTRY_BUDGET, "a matrix")
    with pytest.raises(BudgetExceeded):
        check_entries(ENTRY_BUDGET + 1, "a matrix")


def test_rank_zero_radohorn_witness_is_json(tmp_path):
    frame = tmp_path / "zero-column.json"
    frame.write_text(canonical_json(matrix_to_json(
        np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))))
    rep = tmp_path / "radohorn.json"
    assert _run(["radohorn", "--input", str(frame), "--r", "2",
                 "--report", str(rep)])[0] == 0
    text = rep.read_text()
    assert "Infinity" not in text and "NaN" not in text
    witness = json.loads(text)["payload"]["results"]["witness"]
    assert witness == {"subset": [1], "size": 1, "rank": 0, "ratio": None}
    assert verify(str(rep)) == (True, [])


def _bound_first_inputs():
    """(array, commands) for the threshold scans: a 4 x 9 unit frame
    scaled by 2^500 and by 2^-500 (ric needs unit vectors), that frame
    with all but its first coordinate shrunk by 2^-500, renormalized, a
    rank-2 3 x 8 unit frame, and a 3 x 5 frame scaled by 2^-560 whose
    third vector is the sum of the first two plus 1e-13 of another."""
    rng = np.random.default_rng(32)
    unit = rng.standard_normal((4, 9))
    unit /= np.linalg.norm(unit, axis=0)
    shrunk = unit * np.array([[1.0], [2.0 ** -500], [2.0 ** -500],
                              [2.0 ** -500]])
    low = rng.standard_normal((3, 2)) @ rng.standard_normal((2, 8))
    near = rng.standard_normal((3, 5))
    near[:, 2] = near[:, 0] + near[:, 1] + 1e-13 * rng.standard_normal(3)
    return [(unit * 2.0 ** 500, ("erasure", "phase")),
            (unit * 2.0 ** -500, ("erasure", "phase")),
            (near * 2.0 ** -560, ("erasure", "phase")),
            (shrunk / np.linalg.norm(shrunk, axis=0),
             ("erasure", "ric", "phase")),
            (low / np.linalg.norm(low, axis=0), ("erasure", "ric", "phase"))]


def _float_bits(res):
    return {key: np.float64(val).tobytes() if isinstance(val, float) else val
            for key, val in res.items()}


def test_bound_first_scans_at_extreme_scales_and_low_rank(tmp_path):
    """erasure, ric and phase exit 0 on inputs whose bounds overflow or
    underflow and on a rank-deficient frame, warn of nothing, verify, and
    store the full scans' results, bit for bit."""
    for i, (a, names) in enumerate(_bound_first_inputs()):
        path = tmp_path / f"f{i}.json"
        path.write_text(canonical_json(matrix_to_json(a)))
        delta, subset = restricted_isometry_by_full_scan(Frame(a), 3)
        want = {"erasure": erasure_by_full_scan(Frame(a), 3),
                "ric": {"s": 3, "delta": delta, "worst_subset": subset},
                "phase": phase_by_side_ranks(Frame(a))}
        options = {"erasure": ["--k", "3"], "ric": ["--s", "3"], "phase": []}
        for name in names:
            rep = tmp_path / f"{name}{i}.report.json"
            code, _, err = _outputs([name, "--input", str(path),
                                     *options[name], "--report", str(rep)])
            assert (code, err) == (0, ""), (name, i, err)
            assert verify(str(rep)) == (True, []), (name, i)
            got = load_report(str(rep))["payload"]["results"]
            assert _float_bits(got) == _float_bits(want[name]), (name, i)


def test_generated_projection_paves(tmp_path):
    proj, gen, pave = (tmp_path / name for name in
                       ("projection.json", "gen.json", "pave.json"))
    assert _run(["gen", "--kind", "projection", "--M", "6", "--n", "2",
                 "--seed", "3", "--out", str(proj),
                 "--report", str(gen)])[0] == 0
    assert _run(["pave", "--input", str(proj), "--form", "projection",
                 "--r-max", "2", "--epsilon", "0.2",
                 "--report", str(pave)])[0] == 0
    for rep in (gen, pave):
        assert verify(str(rep)) == (True, [])


def test_riesz_decompose_past_the_exhaustive_walk_is_first_fit(tmp_path):
    frame, rep = tmp_path / "frame.json", tmp_path / "riesz.json"
    assert _run(["gen", "--kind", "random-unit", "--n", "3", "--M", "16",
                 "--seed", "2", "--out", str(frame)])[0] == 0
    assert _run(["decompose", "--input", str(frame), "--criterion", "riesz",
                 "--epsilon", "0.9", "--r-max", "16",
                 "--report", str(rep)])[0] == 0
    res = load_report(str(rep))["payload"]["results"]
    assert res["mode"] == "first-fit" and res["verdict"] is True
    assert len(res["partition"]["blocks"]) < 16
    assert verify(str(rep)) == (True, [])


BIG = 10**9
# 2049 frequencies: their Gram matrix has more than ENTRY_BUDGET entries
WIDE_N = math.isqrt(ENTRY_BUDGET) + 1
WIDE = ",".join(map(str, range(WIDE_N)))
# (report_cases case, integer option or list option, a value past every
# size that command can use, exit code, what the error text must name)
HUGE_INTEGERS = (
    ("pave", "--r-max", BIG, 0, None),
    ("pave-local", "--r-max", BIG, 0, None),
    ("weaver", "--r-max", BIG, 0, None),
    ("riesz-first-fit", "--r-max", BIG, 0, None),
    ("radohorn", "--r", BIG, 0, None),
    ("radohorn-false", "--r", BIG, 0, None),
    ("kadec", "--n-max", BIG, 3, "entry budget"),
    ("toeplitz", "--freq-max", BIG, 2, "--freq-max"),
    ("toeplitz", "--freq-min", -BIG, 2, "--freq-min"),
    ("gen-grid", "--levels", BIG, 2, "--levels"),
    ("gen-grid", "--levels", 10000, 2, "--levels"),
    ("erasure", "--k", BIG, 2,
     "error: --k 1000000000 must be in 0 <= k < M = 6"),
    ("ric", "--s", BIG, 0, None),
    ("tp1", "--s", BIG, 0, None),
    ("toeplitz", "--stride", BIG, 0, None),
    ("toeplitz", "--k-list", BIG, 2, "must divide N"),
    ("mv-theta-wide", "--freqs", WIDE, 3, "budget exceeded"),
)

# Runs each argv of a JSON list through cli.main and prints, per argv, its
# exit code (or the exception that escaped), stderr, traced peak and time.
_HUGE_CHILD = """
import contextlib, io, json, sys, time, tracemalloc
from pavekit import cli, reports
out = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:
        code = repr(exc)
    out.append([code, err.getvalue(), tracemalloc.get_traced_memory()[1],
                time.perf_counter() - start])
    tracemalloc.stop()
print(json.dumps(out))
"""


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def _child_runs(runs):
    """[exit code or escaped exception, stderr, traced peak, seconds] of
    each argv of runs, run through cli.main in a child limited to 1 GB of
    address space."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", _HUGE_CHILD, json.dumps(runs)],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_limit_address_space)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def test_huge_integer_options_keep_the_exit_contract_without_allocating(
        tmp_path):
    """A block count past the number of vectors adds nothing and is clipped
    where the walks start; a range or size past what a command can use is
    refused before it is built.  The runs go to a child limited to 1 GB of
    address space, so code that did allocate for these values fails there
    with a MemoryError instead of filling the machine."""
    argv = commands(tmp_path)
    assert _run(argv["gen-grid"])[0] == 0           # toeplitz's grid
    frame = str(tmp_path / "f16.json")
    assert _run(["gen", "--kind", "random-unit", "--n", "3", "--M", "16",
                 "--seed", "2", "--out", frame])[0] == 0
    argv["riesz-first-fit"] = ["decompose", "--input", frame,
                               "--criterion", "riesz", "--epsilon", "0.9"]
    argv["mv-theta-wide"] = ["mv-theta", "--t-len", "3",
                             "--coeffs", ",".join(["1"] * WIDE_N)]
    runs = []
    for i, (case, option, value, _, _) in enumerate(HUGE_INTEGERS):
        rep = str(tmp_path / f"huge{i}.json")
        runs.append(_with_option(argv[case], option, value) +
                    ["--report", rep])
    for run, (case, option, value, want, name), (code, err, peak, secs) in \
            zip(runs, HUGE_INTEGERS, _child_runs(runs)):
        assert code == want and peak < 2**20, (run, code, err, peak)
        assert secs < 5.0, (run, secs)
        if name is not None:
            assert name in err and "Traceback" not in err, (run, err)
        rep = run[-1]
        assert os.path.exists(rep) == (code == 0), run
        if code == 0:
            assert verify(rep) == (True, []), run
            payload = load_report(rep)["payload"]
            assert payload["config"][option[2:].replace("-", "_")] == value
    riesz = load_report(runs[3][-1])["payload"]["results"]
    assert riesz["mode"] == "first-fit"
    assert len(riesz["partition"]["blocks"]) < 16


def test_square_products_of_an_input_keep_the_entry_budget(tmp_path):
    """The n x n frame operator and the M x M Gram matrix are priced against
    core.ENTRY_BUDGET before they are multiplied: n = 20000 exits 3 in
    analyze, erasure and dilate, and M = 20000 in ric, weaver and
    decompose, without allocating the 3.2 GB product in the 1 GB child.
    dilate builds no M x M matrix, so a 1 x 20000 Parseval row dilates
    in the same child, within the same peak, to a report that verifies."""
    tall = np.zeros((20000, 1))
    tall[0, 0] = 1.0
    inputs = {"tall": tall, "wide": np.ones((1, 20000)),
              "parseval": np.full((1, 20000), 20000 ** -0.5)}
    for name, a in inputs.items():
        (tmp_path / name).write_text(canonical_json(matrix_to_json(a)))
    product = {"tall": "20000x20000 frame operator",
               "wide": "20000x20000 Gram matrix"}
    runs = [("tall", ["analyze"]), ("tall", ["erasure", "--k", "0"]),
            ("tall", ["dilate"]), ("wide", ["ric", "--s", "1"]),
            ("wide", ["weaver", "--bessel", "4", "--epsilon", "0.5",
                      "--r-max", "3"]),
            ("wide", ["decompose", "--criterion", "riesz", "--epsilon",
                      "0.9", "--r-max", "3"])]
    argvs = [argv + ["--input", str(tmp_path / name),
                     "--report", str(tmp_path / f"{i}.report.json")]
             for i, (name, argv) in enumerate(runs)]
    parseval = ["dilate", "--input", str(tmp_path / "parseval"),
                "--report", str(tmp_path / "parseval.report.json")]
    *over, dilated = _child_runs(argvs + [parseval])
    for (name, _), argv, (code, err, peak, _) in zip(runs, argvs, over):
        assert code == 3 and peak < 2**24, (argv, code, err, peak)
        assert f"budget exceeded: the {product[name]} of 400000000 " \
            "entries exceeds" in err, (argv, err)
        assert not os.path.exists(argv[-1]), argv
    code, err, peak, _ = dilated
    assert code == 0 and peak < 2**24, (parseval, code, err, peak)
    assert verify(parseval[-1]) == (True, [])


# ---------------------------------------------------------------------------
# a config group needs all its options; list options are read by argparse
# ---------------------------------------------------------------------------

KADEC = ["kadec", "--a", "1", "--b", "2", "--gamma", "3", "--delta", "0.1"]
MV_THETA = ["mv-theta", "--t-len", "2"]

# (argv, the text stderr must hold); F37, BASIS, GRID and MATRIX stand for
# the inputs of report_cases
BAD_OPTIONS = [
    (["gen", "--kind", "harmonic", "--M", "4"], "--kind harmonic needs --n"),
    (["gen", "--kind", "harmonic", "--n", "2"], "--kind harmonic needs --M"),
    (["gen", "--kind", "random-unit", "--M", "4", "--seed", "1"],
     "--kind random-unit needs --n"),
    (["gen", "--kind", "random-unit", "--n", "2", "--seed", "1"],
     "--kind random-unit needs --M"),
    (["gen", "--kind", "random-unit", "--n", "2", "--M", "4"],
     "--kind random-unit needs --seed"),
    (["gen", "--kind", "projection", "--n", "2", "--seed", "1"],
     "--kind projection needs --M"),
    (["gen", "--kind", "projection", "--M", "4", "--seed", "1"],
     "--kind projection needs --n"),
    (["gen", "--kind", "projection", "--M", "4", "--n", "2"],
     "--kind projection needs --seed"),
    (["gen", "--kind", "projection"],
     "--kind projection needs --M, --n, --seed"),
    (["gen", "--kind", "e1-grid", "--levels", "3"],
     "--kind e1-grid needs --N"),
    (["gen", "--kind", "e1-grid", "--N", "360"],
     "--kind e1-grid needs --levels"),
    (["decompose", "--input", "F37", "--criterion", "riesz"],
     "--criterion riesz needs --epsilon"),
    (["decompose", "--input", "F37", "--criterion", "feichtinger"],
     "--criterion feichtinger needs --a-target"),
    (["decompose", "--input", "F37", "--criterion", "tp1"],
     "--criterion tp1 needs --s, --delta"),
    (["decompose", "--input", "F37", "--criterion", "tp1", "--delta", "0.5"],
     "--criterion tp1 needs --s"),
    (["toeplitz", "--input", "GRID", "--k-list", "2", "--epsilon", "0.5",
      "--stride", "2"], "--stride needs --freq-max"),
    (KADEC + ["--empirical"], "--empirical needs --n-max, --delta-max"),
    (KADEC + ["--empirical", "--n-max", "3"],
     "--empirical needs --delta-max"),
    (KADEC + ["--lam", "0.1"], "--lam needs --mu"),
    (KADEC + ["--mu", "0.1"], "--mu needs --lam"),
    (["toeplitz", "--input", "GRID", "--k-list", "", "--epsilon", "0.5"],
     "argument --k-list: '' is not a list of integers"),
    (["toeplitz", "--input", "GRID", "--k-list", "2,x", "--epsilon", "0.5"],
     "argument --k-list: '2,x' is not a list of integers"),
    # a list that starts with '-' needs the --k-list=-2,4 form
    (["toeplitz", "--input", "GRID", "--k-list", "-2,4", "--epsilon", "0.5"],
     "argument --k-list: expected one argument"),
    (["subspace", "--input", "BASIS", "--blocks", ""],
     "argument --blocks: '' is not a list of index lists"),
    (["subspace", "--input", "BASIS", "--blocks", " ; "],
     "argument --blocks: ' ; ' is not a list of index lists"),
    (["subspace", "--input", "BASIS", "--blocks", "0,1;2,a"],
     "argument --blocks: '0,1;2,a' is not a list of index lists"),
    (MV_THETA + ["--freqs", "", "--coeffs", "1"],
     "argument --freqs: '' is not a list of numbers"),
    (MV_THETA + ["--freqs", "0,x", "--coeffs", "1,1"],
     "argument --freqs: '0,x' is not a list of numbers"),
    (MV_THETA + ["--freqs", "0", "--coeffs", ""],
     "argument --coeffs: '' is not a list of complex numbers"),
    (MV_THETA + ["--freqs", "0,1", "--coeffs", "1,1+"],
     "argument --coeffs: '1,1+' is not a list of complex numbers"),
    # an option set away from its default outside every group that holds it
    (["pave", "--input", "MATRIX", "--r-max", "2", "--epsilon", "0.7",
      "--delta", "0.3"], "--delta needs --form projection"),
    (["toeplitz", "--input", "GRID", "--k-list", "2", "--epsilon", "0.5",
      "--freq-max", "5"], "--freq-max needs --stride"),
    (["toeplitz", "--input", "GRID", "--k-list", "2", "--epsilon", "0.5",
      "--freq-min", "1"], "--freq-min needs --stride"),
    (KADEC + ["--n-max", "3"], "--n-max needs --empirical"),
    (KADEC + ["--seed", "3"], "--seed needs --empirical"),
    (["gen", "--kind", "harmonic", "--n", "2", "--M", "4", "--seed", "3"],
     "--seed needs --kind random-unit or --kind projection"),
    (["gen", "--kind", "harmonic", "--n", "2", "--M", "4", "--field",
      "complex"], "--field needs --kind random-unit"),
    (["gen", "--kind", "random-unit", "--n", "2", "--M", "4", "--seed", "1",
      "--parseval"], "--parseval needs --kind harmonic"),
    (["decompose", "--input", "F37", "--criterion", "riesz", "--epsilon",
      "0.95", "--delta", "0.5"], "--delta needs --criterion tp1"),
    (["decompose", "--input", "F37", "--criterion", "feichtinger",
      "--a-target", "0.01", "--seed", "3"], "--seed needs --criterion tp1"),
]


@pytest.mark.parametrize("argv, text", BAD_OPTIONS,
                         ids=[text for _, text in BAD_OPTIONS])
def test_a_missing_or_bad_option_exits_2_naming_it(tmp_path, argv, text):
    """A group of options brought in by a selector's value or by one of
    them being given needs all of its options, and an option of groups
    none of which is brought in must keep its default; a list option that
    is empty or holds an unreadable item is refused by argparse.  Each
    exits 2, names every missing, stray or bad option and writes
    nothing."""
    cases = commands(tmp_path)
    assert _run(cases["gen-grid"])[0] == 0
    inputs = {"F37": cases["analyze"][2], "BASIS": cases["subspace"][2],
              "GRID": cases["toeplitz"][2], "MATRIX": cases["pave"][2]}
    out, rep = tmp_path / "out.json", tmp_path / "report.json"
    run = [inputs.get(a, a) for a in argv] + ["--report", str(rep)]
    if argv[0] == "gen":
        run += ["--out", str(out)]
    code, err = _run(run)
    assert code == 2 and text in err, (run, err)
    assert not rep.exists() and not out.exists()


# ---------------------------------------------------------------------------
# one JSON reader for input files and reports: nesting past the parser's
# recursion limit and bytes that are not UTF-8 are bad input
# ---------------------------------------------------------------------------

DEEP = "[" * 200000 + "]" * 200000


def _verify_line(capsys, path):
    """(exit code, the parsed line) of pavekit verify on path."""
    capsys.readouterr()
    code = cli.main(["verify", "--report", str(path)])
    return code, json.loads(capsys.readouterr().out)


def test_deeply_nested_json_is_bad_input(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    code, err = _run(["analyze", "--input", str(deep)])
    assert code == 2 and f"error: {deep}: JSON nested too deeply" in err
    assert "Traceback" not in err

    nested = tmp_path / "nested.report.json"
    nested.write_text('{"payload": ' + DEEP + "}")
    ok, reasons = verify(str(nested))
    assert not ok and reasons[0].startswith("unreadable report: ")
    assert _verify_line(capsys, nested) == \
        (0, {"verified": False, "reasons": reasons})

    # a sound report whose recorded input is that file, hash and all
    rep = make_reports(tmp_path)["analyze"]
    report = load_report(str(rep))
    report["payload"]["inputs"]["frame"] = input_record(
        str(deep), deep.read_bytes())
    rep.write_text(canonical_json(report))
    ok, reasons = verify(str(rep))
    assert (ok, reasons) == (False, [f"{deep}: JSON nested too deeply"])
    assert _verify_line(capsys, rep) == \
        (0, {"verified": False, "reasons": reasons})


def test_a_report_that_is_not_utf8_is_unreadable(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"payload": "\xff\xfe"}')
    code, err = _run(["analyze", "--input", str(bad)])
    assert code == 2 and "utf-8" in err and "Traceback" not in err
    ok, reasons = verify(str(bad))
    assert not ok and reasons[0].startswith("unreadable report: ")
    assert "utf-8" in reasons[0]
    assert _verify_line(capsys, bad) == \
        (0, {"verified": False, "reasons": reasons})


# ---------------------------------------------------------------------------
# cli.main builds one subcommand's parser; its texts are the full parser's
# ---------------------------------------------------------------------------

SUBCOMMANDS = tuple(next(
    a for a in cli.build_parser()._actions
    if isinstance(a, argparse._SubParsersAction)).choices)


def _parse_outcome(parse, argv):
    """(exit code, stdout, stderr) of parse(argv), which must exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


def _same_texts(argv):
    full = _parse_outcome(lambda a: cli.build_parser().parse_args(a), argv)
    assert _parse_outcome(cli.main, argv) == full, argv


def test_the_input_table_names_the_commands_with_an_input():
    """reports._INPUTS names an input for exactly the commands whose parser
    takes --input.  reports._BUILDERS holds the one builder the CLI runs
    for every command but verify itself, the table cli.main calls, and
    verify re-prices a command through _VERIFIERS only where it has a
    builder."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(reports._INPUTS) == {
        name for name, p in sub.choices.items()
        if any("--input" in a.option_strings for a in p._actions)}
    assert reports._BUILDERS.keys() == set(SUBCOMMANDS) - {"verify"}
    assert cli._BUILDERS is reports._BUILDERS
    assert reports._VERIFIERS.keys() < reports._BUILDERS.keys()


def test_float_options_are_all_seen():
    assert len(SUBCOMMANDS) == 15
    assert sum(map(len, _float_options().values())) == 18


@pytest.mark.parametrize("argv", [["--help"], ["--version"], [], ["pav"]])
def test_root_texts_are_the_full_parsers(argv):
    _same_texts(argv)


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_subcommand_texts_are_the_full_parsers(tmp_path, name):
    valid = next((argv for argv in commands(tmp_path).values()
                  if argv[0] == name),
                 ["verify", "--report", str(tmp_path / "r.json")])
    assert valid[0] == name
    for argv in ([name, "--help"], [name], [name, "--bogus", "1"],
                 valid + ["extra"]):
        _same_texts(argv)


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_an_option_ambiguous_at_the_root_gets_the_roots_error(name):
    """The full root reads every argument for its own options first, so
    "--=" after a command, which abbreviates both --help and --version, is
    the root's error, not the command's."""
    _same_texts([name, "--=1"])


def _count_parsers(monkeypatch):
    """The list that every ArgumentParser built from now on appends to."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


def test_a_command_builds_only_its_own_parser(tmp_path, monkeypatch,
                                              capsys):
    rep = str(tmp_path / "kadec.json")
    assert cli.main(commands(tmp_path)["kadec"] + ["--report", rep]) == 0
    built = _count_parsers(monkeypatch)
    assert cli.main(["verify", "--report", rep]) == 0
    assert len(built) == 1
    built.clear()
    monkeypatch.setattr(sys, "argv", ["pavekit", "verify", "--report", rep])
    assert cli.main() == 0
    assert len(built) == 1
    assert capsys.readouterr().out.count('"verified": true') == 2
    built.clear()
    assert _run(["--help"])[0] == 0
    assert len(built) == 1 + len(SUBCOMMANDS)
    built.clear()       # the command's parser, then the full one for its error
    code, err = _run(["verify", "--report", rep, "extra"])
    assert code == 2 and "unrecognized arguments: extra" in err
    assert len(built) == 2 + len(SUBCOMMANDS)


def _configs(args):
    """The fields of a parsed namespace, with default_of read off as each
    option's default, since the two parsers' bound methods differ."""
    fields = dict(vars(args))
    default_of = fields.pop("default_of", None)
    if default_of is not None:
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        fields["default_of"] = {
            a.dest: default_of(a.dest)
            for a in sub.choices[args.command]._actions}
    return fields


def test_one_parser_configs_are_the_full_parsers(tmp_path):
    """Every argv of report_cases, with and without --report, and the
    verify of each of its reports parse to the namespace the full parser
    gives, field by field."""
    cases = commands(tmp_path)
    runs = [argv + extra for argv in cases.values()
            for extra in ([], ["--report", str(tmp_path / "r.json")])]
    runs += [["verify", "--report", str(tmp_path / f"{case}.report.json")]
             for case in cases]
    for argv in runs:
        one, full = cli._parse_args(argv), cli.build_parser().parse_args(argv)
        assert _configs(one) == _configs(full), argv
        assert ("default_of" in vars(one)) == (argv[0] != "verify"), argv


def test_erasure_budget_names_the_budget(tmp_path):
    frame = tmp_path / "f240.json"
    frame.write_text(canonical_json(matrix_to_json(
        np.random.default_rng(0).standard_normal((2, 40)))))
    code, err = _run(["erasure", "--input", str(frame), "--k", "6"])
    assert (code, err) == (3, f"budget exceeded: {math.comb(40, 6)} erasures "
                              f"exceed the {SUBSET_BUDGET} budget\n")


def test_wkhb_budget_names_the_moves_allowed(tmp_path, monkeypatch):
    monkeypatch.setattr(paving, "WKHB_MOVE_BUDGET", 0)
    code, err = _run(commands(tmp_path)["tp1"])
    assert (code, err) == (3, "budget exceeded: wkhb_partition did not "
                              "stabilize in the 0 moves allowed\n")
