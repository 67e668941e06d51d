"""The exit-code contract at the CLI boundary: 0 done, 2 bad input, 3 over
budget, with no exception escaping and a verifiable report on every 0.

Every float option of every subcommand is driven with edge values on the
small fixed inputs of report_cases, in-process through cli.main.  So are
gen's sizes, --n, --M and --N, which core.ENTRY_BUDGET bounds before any
allocation.  The block counts (--r-max, --r), kadec's --n-max, toeplitz's
--freq-min and --freq-max and gen's --levels are driven at 10^9 in a child
process with a bounded address space.  The other integer options stay out:
a huge value of one would allocate or loop before any check could run.
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

import numpy as np
import pytest

from pavekit import cli, reports
from pavekit.core import (
    ENTRY_BUDGET,
    BudgetExceeded,
    check_entries,
    matrix_to_json,
)
from pavekit.harmonic import montgomery_vaughan_theta
from pavekit.reports import canonical_json, load_report, verify
from report_cases import commands

FINITE_EDGES = ("0", "-1", "1e308")
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


def _run(argv):
    """(exit code, stderr) of cli.main, argparse's own exits included."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


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


@pytest.mark.parametrize("extra", [["--t-len", "1e308"],
                                   ["--t-len", "2", "--quad-n", str(10**12)]])
def test_mv_theta_quadrature_over_budget_exits_3(extra):
    code, err = _run(["mv-theta", "--freqs", "0,1", "--coeffs", "1,1",
                      *extra])
    assert code == 3 and "budget exceeded" in err and "Traceback" not in err


def test_mv_theta_budget_raises_before_allocating():
    for t_len, quad_n in ((1e308, None), (math.inf, None), (2.0, 10**12)):
        with pytest.raises(BudgetExceeded):
            montgomery_vaughan_theta([0.0, 1.0], [1.0, 1.0], t_len, quad_n)


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


def test_riesz_decompose_past_the_walk_is_greedy(tmp_path):
    frame, rep = tmp_path / "frame.json", tmp_path / "riesz.json"
    assert _run(["gen", "--kind", "random-unit", "--n", "3", "--M", "16",
                 "--seed", "2", "--out", str(frame)])[0] == 0
    assert _run(["decompose", "--input", str(frame), "--criterion", "riesz",
                 "--epsilon", "0.9", "--r-max", "16",
                 "--report", str(rep)])[0] == 0
    assert load_report(str(rep))["payload"]["results"]["mode"] == "greedy"
    assert verify(str(rep)) == (True, [])


BIG = 10**9
# (report_cases case, integer option, a value past every size that command
# can use, exit code, what the error text must name)
HUGE_INTEGERS = (
    ("pave", "--r-max", BIG, 0, None),
    ("pave-local", "--r-max", BIG, 0, None),
    ("weaver", "--r-max", BIG, 0, None),
    ("riesz-greedy", "--r-max", BIG, 0, None),
    ("radohorn", "--r", BIG, 0, None),
    ("radohorn-false", "--r", BIG, 0, None),
    ("kadec", "--n-max", BIG, 3, "entry budget"),
    ("toeplitz", "--freq-max", BIG, 2, "--freq-max"),
    ("toeplitz", "--freq-min", -BIG, 2, "--freq-min"),
    ("gen-grid", "--levels", BIG, 2, "--levels"),
    ("gen-grid", "--levels", 10000, 2, "--levels"),
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
    argv["riesz-greedy"] = ["decompose", "--input", frame,
                            "--criterion", "riesz", "--epsilon", "0.9"]
    runs = []
    for i, (case, option, value, _, _) in enumerate(HUGE_INTEGERS):
        rep = str(tmp_path / f"huge{i}.json")
        runs.append(_with_option(argv[case], option, value) +
                    ["--report", rep])
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", _HUGE_CHILD, json.dumps(runs)],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_limit_address_space)
    assert child.returncode == 0, child.stderr
    for run, (case, option, value, want, name), (code, err, peak, secs) in \
            zip(runs, HUGE_INTEGERS, json.loads(child.stdout)):
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
    assert riesz["mode"] == "greedy"


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
    takes --input, and verify rebuilds every command but verify itself in
    exactly one way."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(reports._INPUTS) == {
        name for name, p in sub.choices.items()
        if any("--input" in a.option_strings for a in p._actions)}
    assert not reports._REBUILT.keys() & reports._VERIFIERS.keys()
    assert reports._REBUILT.keys() | reports._VERIFIERS.keys() == \
        set(SUBCOMMANDS) - {"verify"}


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
    assert len(built) <= 2
    built.clear()
    monkeypatch.setattr(sys, "argv", ["pavekit", "verify", "--report", rep])
    assert cli.main() == 0
    assert len(built) <= 2
    assert capsys.readouterr().out.count('"verified": true') == 2
    built.clear()
    assert _run(["--help"])[0] == 0
    assert len(built) == 1 + len(SUBCOMMANDS)
