"""Command-line front end.

Every subcommand runs one operation and can write a JSON report whose
payload (command, config, input hashes, results) is byte-identical across
runs with the same configuration; timing lives outside the payload.  Exit
codes: 0 the run completed (verdicts live in the report, not the exit
code), 2 malformed input or a violated precondition, 3 a search budget was
exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .core import (
    BudgetExceeded,
    ContractViolation,
    # bound here only for perfbench/test_perfbench.py::
    # test_install_wraps_every_binding_in_pavekit; inputs are decoded by
    # reports._decode
    frame_from_json,
)
from .reports import (
    _BUILDERS,
    _INPUTS,
    _decode,
    _object_hash as _object_sha256,  # the name perfbench/tracing.py binds
    _parse_json,
    _write_text as _write_json,  # the name perfbench/tracing.py binds
    input_record,
    make_report,
    verify,
    write_report,
)

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# small parsing / serialization helpers
# ---------------------------------------------------------------------------

def _read_json(path):
    """(JSON value, input record) of an input file, both from one read of
    its bytes, so the recorded hash is that of what was parsed."""
    with open(path, "rb") as fh:
        data = fh.read()
    return _parse_json(data, path), input_record(path, data)


def _same_file(a, b):
    """Whether paths a and b name one file: os.path.samefile where both
    exist, so a symlink or hard link counts, else by their real paths."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)


def _finite_float(s):
    """argparse type of every float option: anything but a finite number,
    NaN and infinities included, exits 2."""
    try:
        x = float(s)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"{s!r} is not a finite number")
    return x


def _listed(parse, what, sep=","):
    """argparse type of a list option: the non-blank sep-separated items of
    its value, each read by parse.  An empty list or an unreadable item
    exits 2."""
    def items(s):
        try:
            xs = [parse(x) for x in s.split(sep) if x.strip()]
        except (ValueError, argparse.ArgumentTypeError):
            xs = None
        if not xs:
            raise argparse.ArgumentTypeError(
                f"{s!r} is not a list of {what} separated by {sep!r}")
        return xs
    return items


def _pair(s):
    """A complex number as the [re, im] pair a config records."""
    c = complex(s)
    return [c.real, c.imag]


_ints = _listed(int, "integers")


# ---------------------------------------------------------------------------
# configs: each command's config is read off the parsed arguments by rows
# (trigger, options, needed).  A row whose trigger holds records its options
# as parsed; trigger None always holds, (option, value) holds when the
# option has that value, and an option name holds when it is given.  A
# needed row's options must all be given, and an option of rows none of
# which holds must keep its default.
# ---------------------------------------------------------------------------

def _flag(dest):
    return "--" + dest.replace("_", "-")


def _config(args, rows):
    """The config of a run, by its command's rows.  A needed row with an
    option missing raises ContractViolation naming its trigger and each
    missing option, and so does an option set away from its default
    (args.default_of) where none of its rows holds, naming the option and
    those rows' triggers."""
    config, unheld = {}, {}
    for trigger, options, needed in rows:
        if trigger is None:
            held = True
        elif isinstance(trigger, tuple):
            held = getattr(args, trigger[0]) == trigger[1]
            trigger = f"{_flag(trigger[0])} {trigger[1]}"
        else:
            value = getattr(args, trigger)
            held = value is not None and value is not False
            trigger = _flag(trigger)
        if not held:
            for key in options:
                unheld.setdefault(key, []).append(trigger)
            continue
        config.update((key, getattr(args, key)) for key in options)
        missing = [_flag(key) for key in options if config[key] is None]
        if needed and missing:
            raise ContractViolation(f"{trigger} needs {', '.join(missing)}")
    for key, triggers in unheld.items():
        if key not in config and \
                getattr(args, key) != args.default_of(key):
            raise ContractViolation(
                f"{_flag(key)} needs {' or '.join(triggers)}")
    return config


# ---------------------------------------------------------------------------
# summary lines: each takes the parsed arguments and the results
# ---------------------------------------------------------------------------

def _search_line(args, res):
    return (f"verdict={res['verdict']} achieved={res['achieved']:.6g}"
            f" target={res['target']:.6g}")


def _analyze_line(args, res):
    summ = res["summary"]
    return (f"n={summ['n']} M={summ['M']} bounds=({summ['lower']:.6g}, "
            f"{summ['upper']:.6g}) parseval={summ['is_parseval']}")


def _pave_line(args, res):
    return _search_line(args, res) + \
        f" blocks={len(res['partition']['blocks'])}"


def _decompose_line(args, res):
    part = res["partition"]
    blocks = len(part["blocks"]) if part else 0
    return f"verdict={res['verdict']} blocks={blocks}"


def _radohorn_line(args, res):
    if res["verdict"]:
        return f"verdict=True blocks={len(res['partition']['blocks'])}"
    ratio = res["witness"]["ratio"]       # None at rank 0
    return "verdict=False witness_ratio=" + (
        "inf" if ratio is None else f"{ratio:.6g}")


def _subspace_line(args, res):
    bits = [f"dim={res['dim']}/{res['ambient']}"]
    if "largeness" in res:
        large = res["largeness"]
        bits.append(f"large={large['verdict']} (min {large['min_norm']:.6g})")
    if "decomposable" in res:
        bits.append(f"decomposable={res['decomposable']['verdict']}")
    return " ".join(bits)


def _toeplitz_line(args, res):
    per_k = res["per_k"]
    worst = max(e["tt3_residual"] for e in per_k)
    return (f"K={args.k_list} max_identity_residual={worst:.3e} "
            f"paving_ok={[e['paving_ok'] for e in per_k]}")


def _kadec_line(args, res):
    bounds, emp = res["bounds"], res["empirical"]
    line = f"L={bounds['L']:.6g} valid={bounds['valid']}"
    if emp is not None:
        line += (f" lambda_min={emp['lambda_min']:.6g} "
                 f"passed={emp['passed']}")
    return line


def _erasure_line(args, res):
    return (f"worst_lower={res['worst_value']:.6g} at erased="
            f"{res['worst_subset']} (scanned {res['subsets_scanned']})")


def _phase_line(args, res):
    line = f"verdict={res['verdict']}"
    if res["witness"] is not None:
        line += f" witness_side={res['witness']['side']}"
    return line


# ---------------------------------------------------------------------------
# parser: one table row per subcommand
# ---------------------------------------------------------------------------

def _gen_options(p):
    p.add_argument("--kind", required=True,
                   choices=["harmonic", "random-unit", "projection", "e1-grid"])
    p.add_argument("--n", type=int)
    p.add_argument("--M", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--field", choices=["real", "complex"], default="real")
    p.add_argument("--parseval", action="store_true",
                   help="rescale the harmonic family to a Parseval one")
    p.add_argument("--N", type=int, help="grid size for e1-grid")
    p.add_argument("--levels", type=int, help="moduli 1..levels for e1-grid")
    p.add_argument("--c", type=_finite_float, default=0.5)
    p.add_argument("--out", required=True)


def _dilate_options(p):
    p.add_argument("--mode", choices=["naimark", "operator"],
                   default="naimark")


def _pave_options(p):
    p.add_argument("--form", choices=["matrix", "projection"],
                   default="matrix")
    p.add_argument("--r-max", type=int, required=True)
    p.add_argument("--epsilon", type=_finite_float, required=True)
    p.add_argument("--mode", choices=["auto", "exhaustive", "local"],
                   default="auto")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=_finite_float,
                   help="diagonal bound precondition (projection form)")


def _weaver_options(p):
    p.add_argument("--bessel", type=_finite_float, required=True)
    p.add_argument("--epsilon", type=_finite_float, required=True)
    p.add_argument("--r-max", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)


def _decompose_options(p):
    p.add_argument("--criterion", required=True,
                   choices=["riesz", "feichtinger", "tp1"])
    p.add_argument("--epsilon", type=_finite_float)
    p.add_argument("--a-target", type=_finite_float)
    p.add_argument("--s", type=int)
    p.add_argument("--delta", type=_finite_float)
    p.add_argument("--r-max", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)


def _ric_options(p):
    p.add_argument("--s", type=int, required=True)


def _radohorn_options(p):
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--partition", action="store_true",
                   help="no effect: the partition is always reported when "
                        "one exists; kept so older command lines still run")


def _subspace_options(p):
    p.add_argument("--span", action="store_true",
                   help="orthonormalize the given columns first")
    p.add_argument("--a", type=_finite_float, help="largeness level to test")
    p.add_argument("--blocks", type=_listed(_ints, "index lists", ";"),
                   help="coordinate partition, e.g. '0,1;2,3'")


def _toeplitz_options(p):
    p.add_argument("--k-list", type=_ints, required=True,
                   help="comma-separated moduli, each dividing N; a list "
                        "that starts with '-' takes the --k-list=... form")
    p.add_argument("--epsilon", type=_finite_float, required=True)
    p.add_argument("--stride", type=int,
                   help="also check progression sections at this stride")
    p.add_argument("--freq-min", type=int, default=0)
    p.add_argument("--freq-max", type=int)


def _kadec_options(p):
    p.add_argument("--a", type=_finite_float, required=True)
    p.add_argument("--b", type=_finite_float, required=True)
    p.add_argument("--gamma", type=_finite_float, required=True)
    p.add_argument("--delta", type=_finite_float, required=True)
    p.add_argument("--empirical", action="store_true")
    p.add_argument("--n-max", type=int)
    p.add_argument("--delta-max", type=_finite_float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lam", type=_finite_float,
                   help="relative perturbation constant")
    p.add_argument("--mu", type=_finite_float,
                   help="absolute perturbation constant")


def _mv_theta_options(p):
    p.add_argument("--freqs", type=_listed(float, "numbers"), required=True,
                   help="comma-separated numbers; a list that starts with "
                        "'-' takes the --freqs=-1.5,0,2 form")
    p.add_argument("--coeffs", type=_listed(_pair, "complex numbers"),
                   required=True,
                   help="comma-separated complex numbers, e.g. '1,0.5-0.2j'; "
                        "a list that starts with '-' takes the "
                        "--coeffs=-1,2 form")
    p.add_argument("--t-len", type=_finite_float, required=True)


def _erasure_options(p):
    p.add_argument("--k", type=int, required=True)


def _phase_options(p):
    p.add_argument("--trials", type=int,
                   help="no effect: the complement property decides "
                        "recovery, so no trials run; kept so older command "
                        "lines still run")
    p.add_argument("--seed", type=int,
                   help="no effect: phase draws nothing at random; kept so "
                        "older command lines still run")


def _verify_options(p):
    p.add_argument("--report", dest="report_path", required=True)


# name -> (help, the function that adds its options, or None, config rows,
# summary line), in the order the help lists them; see _config for the rows
_COMMANDS = {
    "gen": ("generate a frame, projection or grid symbol", _gen_options,
            [(None, ("kind",), False),
             (("kind", "harmonic"), ("n", "M", "parseval"), True),
             (("kind", "random-unit"), ("n", "M", "seed", "field"), True),
             (("kind", "projection"), ("M", "n", "seed"), True),
             (("kind", "e1-grid"), ("N", "levels", "c"), True)],
            lambda args, res: f"wrote {args.out}"),
    "analyze": ("spectral summary of a frame file", None,
                [], _analyze_line),
    "dilate": ("projection dilation of a frame or operator", _dilate_options,
               [(None, ("mode",), False)],
               lambda args, res: (f"ambient={res['ambient_dim']} "
                                  f"rank={res['rank']}")),
    "pave": ("search for a paving partition", _pave_options,
             [(None, ("form", "r_max", "epsilon", "mode", "seed"), False),
              # recorded as null when not given, unlike any other option
              (("form", "projection"), ("delta",), False)],
             _pave_line),
    "weaver": ("two-sided block bound partition search", _weaver_options,
               [(None, ("bessel", "epsilon", "r_max", "seed"), False)],
               _search_line),
    "decompose": ("partition into well-bounded subfamilies",
                  _decompose_options,
                  [(None, ("criterion", "r_max"), False),
                   (("criterion", "riesz"), ("epsilon",), True),
                   (("criterion", "feichtinger"), ("a_target",), True),
                   (("criterion", "tp1"), ("s", "delta", "seed"), True)],
                  _decompose_line),
    "ric": ("restricted isometry deviation", _ric_options,
            [(None, ("s",), False)],
            lambda args, res: (f"delta_{args.s}={res['delta']:.6g} "
                               f"worst={res['worst_subset']}")),
    "radohorn": ("partition into at most r independent blocks, "
                 "or a violating subset", _radohorn_options,
                 [(None, ("r",), False)], _radohorn_line),
    "subspace": ("largeness and decomposability of the subspace that the "
                 "columns of --input base orthonormally, or span with "
                 "--span", _subspace_options,
                 [(None, ("span",), False), ("a", ("a",), True),
                  ("blocks", ("blocks",), True)],
                 _subspace_line),
    "toeplitz": ("grid symbol identities, uniform criteria and "
                 "section spectra", _toeplitz_options,
                 [(None, ("k_list", "epsilon"), False),
                  ("stride", ("stride", "freq_min", "freq_max"), True)],
                 _toeplitz_line),
    "kadec": ("perturbation stability bounds", _kadec_options,
              [(None, ("a", "b", "gamma", "delta"), False),
               ("empirical", ("n_max", "delta_max", "seed"), True),
               ("lam", ("lam", "mu"), True), ("mu", ("lam", "mu"), True)],
              _kadec_line),
    "mv-theta": ("exponential sum energy correction", _mv_theta_options,
                 [(None, ("freqs", "coeffs", "t_len"), False)],
                 lambda args, res: (f"theta={res['theta']:.6g} "
                                    f"within_unit={res['within_unit']}")),
    "erasure": ("worst-case erasure robustness", _erasure_options,
                [(None, ("k",), False)], _erasure_line),
    "phase": ("sign-blind recovery check", _phase_options, [],
              _phase_line),
    "verify": ("recompute a report's certificates", _verify_options,
               None, None),
}


def _add_command(p, name):
    """Add the named command's arguments to its parser p: --input first for
    a command in reports._INPUTS, then its options, then --report and
    default_of, which gives _config each option's default."""
    _, add_options, rows, _ = _COMMANDS[name]
    if name in _INPUTS:
        p.add_argument(_flag("input"), required=True)
    if add_options is not None:
        add_options(p)
    if rows is not None:    # verify's --report names the one it reads
        p.add_argument("--report", help="write a JSON report to this path")
        p.set_defaults(default_of=p.get_default)


def build_parser():
    """The parser of every subcommand, which prints every error."""
    parser = argparse.ArgumentParser(
        prog="pavekit",
        description="Finite-dimensional paving, dilation and partition "
                    "toolkit with verifiable reports.")
    parser.add_argument("--version", action="version",
                        version=f"pavekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, *_) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text), name)
    return parser


def _parse_args(argv):
    """argv parsed by its command's parser alone, with errors unprinted;
    where that errs or leaves an argument unused, or argv names no command,
    by build_parser(), which prints the error, the root's where the root
    reads one first (an option abbreviating both --help and --version)."""
    if argv and argv[0] in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"pavekit {argv[0]}")
        _add_command(parser, argv[0])
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                args, extra = parser.parse_known_args(argv[1:])
        except SystemExit as exc:
            if not exc.code:    # --help
                raise
            extra = True
        if not extra:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_args(argv)
    start = time.perf_counter()
    try:
        if args.command == "verify":
            ok, reasons = verify(args.report_path)
            print(json.dumps({"verified": ok, "reasons": reasons},
                             sort_keys=True))
            return 0
        for option in ("input", "out"):     # what the command reads or writes
            path = getattr(args, option, None)
            if args.report and path is not None and \
                    _same_file(args.report, path):
                raise ContractViolation(
                    f"--report {args.report!r} and --{option} {path!r} "
                    "name the same file")
        name, inputs = _INPUTS.get(args.command), {}
        if name is None:
            obj = getattr(args, "out", None)    # where gen writes its object
        else:
            doc, record = _read_json(args.input)
            obj, inputs = _decode(name, doc), {name: record}
        _, _, rows, line = _COMMANDS[args.command]
        config = _config(args, rows)
        results = _BUILDERS[args.command](config, obj)
        wall = time.perf_counter() - start
        summary = line(args, results)
        # written before the summary is printed, so a report that cannot
        # be encoded or written leaves no verdict on stdout
        if args.report:
            write_report(args.report, make_report(args.command, config,
                                                  inputs, results, wall))
        print(summary)
        if args.report:
            print(f"report: {args.report}")
        return 0
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ContractViolation, ValueError, OSError, OverflowError,
            np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
