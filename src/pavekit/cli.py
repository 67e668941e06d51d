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
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .core import (
    BudgetExceeded,
    ContractViolation,
    Frame,
    # bound here only for perfbench/test_perfbench.py::
    # test_install_wraps_every_binding_in_pavekit; inputs are decoded by
    # reports._decode
    frame_from_json,
)
from .decomposition import (
    epsilon_riesz_partition,
    feichtinger_partition,
    rado_horn_check,
    restricted_isometry,
    tp1_partition,
)
from .dilation import dilate_operator, naimark_dilate
from .erasures import erasure_robustness
from .paving import pave_matrix_check, pave_projection_check, weaver_check
from .reports import (
    _INPUTS,
    _analyze,
    _decode,
    _kadec,
    _mv_theta,
    _object_hash as _object_sha256,  # the name perfbench/tracing.py binds
    _phase,
    _radohorn,
    _regenerate,
    _ric,
    _subspace,
    _toeplitz,
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
    return json.loads(data), input_record(path, data)


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


def _parse_ints(s):
    return [int(x) for x in s.split(",") if x.strip() != ""]


def _parse_floats(s):
    return [float(x) for x in s.split(",") if x.strip() != ""]


def _parse_complexes(s):
    return [complex(x.strip()) for x in s.split(",") if x.strip() != ""]


def _parse_blocks(s):
    blocks = []
    for part in s.split(";"):
        part = part.strip()
        if part:
            blocks.append(_parse_ints(part))
    if not blocks:
        raise ContractViolation("empty block specification")
    return blocks


# ---------------------------------------------------------------------------
# subcommand handlers: each takes the parsed arguments and the decoded input
# (None for a command without one) and returns (config, results, summary
# line)
# ---------------------------------------------------------------------------

# The options each generator kind records in its config.
_GEN_OPTIONS = {
    "harmonic": ("n", "M", "parseval"),
    "random-unit": ("n", "M", "seed", "field"),
    "projection": ("M", "n", "seed"),
    "e1-grid": ("N", "levels", "c"),
}


def _cmd_gen(args, _):
    config = {"kind": args.kind}
    config.update((key, getattr(args, key)) for key in _GEN_OPTIONS[args.kind])
    missing = [f"--{key}" for key, val in config.items() if val is None]
    if missing:
        raise ContractViolation(
            f"{args.kind} generation needs {', '.join(missing)}")
    return config, _regenerate(config, args.out), f"wrote {args.out}"


def _cmd_analyze(args, fr):
    results = _analyze({}, fr)
    summ = results["summary"]
    line = (f"n={fr.n} M={fr.M} bounds=({summ['lower']:.6g}, "
            f"{summ['upper']:.6g}) parseval={summ['is_parseval']}")
    return {}, results, line


def _cmd_dilate(args, mat):
    results = naimark_dilate(Frame(mat)) if args.mode == "naimark" else \
        dilate_operator(mat)
    line = f"ambient={results['ambient_dim']} rank={results['rank']}"
    return {"mode": args.mode}, results, line


def _cmd_pave(args, t):
    config = {"form": args.form, "r_max": args.r_max,
              "epsilon": args.epsilon, "mode": args.mode, "seed": args.seed}
    if args.form == "projection":
        config["delta"] = args.delta
        results = pave_projection_check(t, args.r_max, args.epsilon,
                                        delta=args.delta, mode=args.mode,
                                        seed=args.seed)
    else:
        results = pave_matrix_check(t, args.r_max, args.epsilon,
                                    mode=args.mode, seed=args.seed)
    line = (f"verdict={results['verdict']} achieved={results['achieved']:.6g}"
            f" target={results['target']:.6g}"
            f" blocks={len(results['partition']['blocks'])}")
    return config, results, line


def _cmd_weaver(args, fr):
    results = weaver_check(fr, args.bessel, args.epsilon, args.r_max,
                           seed=args.seed)
    config = {"bessel": args.bessel, "epsilon": args.epsilon,
              "r_max": args.r_max, "seed": args.seed}
    line = (f"verdict={results['verdict']} achieved={results['achieved']:.6g}"
            f" target={results['target']:.6g}")
    return config, results, line


def _cmd_decompose(args, fr):
    config = {"criterion": args.criterion, "r_max": args.r_max,
              "seed": args.seed}
    if args.criterion == "riesz":
        if args.epsilon is None:
            raise ContractViolation("riesz decomposition needs --epsilon")
        config["epsilon"] = args.epsilon
        results = epsilon_riesz_partition(fr, args.epsilon, args.r_max)
    elif args.criterion == "feichtinger":
        if args.a_target is None:
            raise ContractViolation("feichtinger decomposition needs --a-target")
        config["a_target"] = args.a_target
        results = feichtinger_partition(fr, args.a_target, args.r_max)
    else:
        if args.s is None or args.delta is None:
            raise ContractViolation("tp1 decomposition needs --s and --delta")
        config["s"] = args.s
        config["delta"] = args.delta
        results = tp1_partition(fr, args.s, args.delta, seed=args.seed,
                                r_max=args.r_max)
    part = results["partition"]
    blocks = len(part["blocks"]) if part else 0
    return config, results, f"verdict={results['verdict']} blocks={blocks}"


def _cmd_ric(args, fr):
    _, worst = restricted_isometry(fr, args.s)
    config = {"s": args.s}
    results = _ric(config, fr, list(worst))
    line = f"delta_{args.s}={results['delta']:.6g} worst={list(worst)}"
    return config, results, line


def _cmd_radohorn(args, fr):
    ok, blocks, witness = rado_horn_check(fr, args.r)
    results = _radohorn(blocks, witness)
    if ok:
        line = f"verdict=True blocks={len(blocks)}"
    else:
        ratio = witness["ratio"]       # None at rank 0
        line = "verdict=False witness_ratio=" + (
            "inf" if ratio is None else f"{ratio:.6g}")
    return {"r": args.r}, results, line


def _cmd_subspace(args, mat):
    config = {"span": bool(args.span)}
    if args.a is not None:
        config["a"] = args.a
    if args.blocks is not None:
        config["blocks"] = _parse_blocks(args.blocks)
    results = _subspace(config, mat)
    bits = [f"dim={results['dim']}/{results['ambient']}"]
    if "largeness" in results:
        large = results["largeness"]
        bits.append(f"large={large['verdict']} (min {large['min_norm']:.6g})")
    if "decomposable" in results:
        bits.append(f"decomposable={results['decomposable']['verdict']}")
    return config, results, " ".join(bits)


def _cmd_toeplitz(args, g):
    ks = _parse_ints(args.k_list)
    if not ks:
        raise ContractViolation("need at least one modulus in --k-list")
    config = {"k_list": ks, "epsilon": args.epsilon}
    if args.stride is not None:
        if args.freq_max is None:
            raise ContractViolation("--stride needs --freq-max")
        config.update({"stride": args.stride, "freq_min": args.freq_min,
                       "freq_max": args.freq_max})
    results = _toeplitz(config, g)
    per_k = results["per_k"]
    worst = max(e["tt3_residual"] for e in per_k)
    line = (f"K={ks} max_identity_residual={worst:.3e} "
            f"paving_ok={[e['paving_ok'] for e in per_k]}")
    return config, results, line


def _cmd_kadec(args, _):
    config = {"a": args.a, "b": args.b, "gamma": args.gamma,
              "delta": args.delta}
    if args.empirical:
        if args.n_max is None or args.delta_max is None or args.seed is None:
            raise ContractViolation(
                "--empirical needs --n-max, --delta-max and --seed")
        config.update({"n_max": args.n_max, "delta_max": args.delta_max,
                       "seed": args.seed})
    if args.lam is not None or args.mu is not None:
        if args.lam is None or args.mu is None:
            raise ContractViolation(
                "perturbation bounds need both --lam and --mu")
        config.update({"lam": args.lam, "mu": args.mu})
    results = _kadec(config)
    bounds, emp = results["bounds"], results["empirical"]
    line = f"L={bounds['L']:.6g} valid={bounds['valid']}"
    if emp is not None:
        line += (f" lambda_min={emp['lambda_min']:.6g} "
                 f"passed={emp['passed']}")
    return config, results, line


def _cmd_mv_theta(args, _):
    config = {"freqs": _parse_floats(args.freqs),
              "coeffs": [[c.real, c.imag]
                         for c in _parse_complexes(args.coeffs)],
              "t_len": args.t_len, "quad_n": args.quad_n}
    rep = _mv_theta(config)
    line = f"theta={rep['theta']:.6g} within_unit={rep['within_unit']}"
    return config, rep, line


def _cmd_erasure(args, fr):
    results = erasure_robustness(fr, args.k)
    line = (f"worst_lower={results['worst_value']:.6g} at erased="
            f"{results['worst_subset']} "
            f"(scanned {results['subsets_scanned']})")
    return {"k": args.k}, results, line


def _cmd_phase(args, fr):
    config = {"trials": args.trials, "seed": args.seed}
    report = _phase(config, fr)
    line = f"verdict={report['verdict']}"
    if report["witness"] is not None:
        line += f" witness_side={report['witness']['side']}"
    return config, report, line


def _cmd_verify(args, _):
    ok, reasons = verify(args.report_path)
    print(json.dumps({"verified": ok, "reasons": reasons}, sort_keys=True))
    return None


# ---------------------------------------------------------------------------
# parser: one table row per subcommand
# ---------------------------------------------------------------------------

def _add_report(p):
    p.add_argument("--report", help="write a JSON report to this path")


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
    _add_report(p)


def _analyze_options(p):
    p.add_argument("--input", required=True)
    _add_report(p)


def _dilate_options(p):
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=["naimark", "operator"],
                   default="naimark")
    _add_report(p)


def _pave_options(p):
    p.add_argument("--input", required=True)
    p.add_argument("--form", choices=["matrix", "projection"],
                   default="matrix")
    p.add_argument("--r-max", type=int, required=True)
    p.add_argument("--epsilon", type=_finite_float, required=True)
    p.add_argument("--mode", choices=["auto", "exhaustive", "local"],
                   default="auto")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=_finite_float,
                   help="diagonal bound precondition (projection form)")
    _add_report(p)


def _weaver_options(p):
    p.add_argument("--input", required=True)
    p.add_argument("--bessel", type=_finite_float, required=True)
    p.add_argument("--epsilon", type=_finite_float, required=True)
    p.add_argument("--r-max", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_report(p)


def _decompose_options(p):
    p.add_argument("--input", required=True)
    p.add_argument("--criterion", required=True,
                   choices=["riesz", "feichtinger", "tp1"])
    p.add_argument("--epsilon", type=_finite_float)
    p.add_argument("--a-target", type=_finite_float)
    p.add_argument("--s", type=int)
    p.add_argument("--delta", type=_finite_float)
    p.add_argument("--r-max", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    _add_report(p)


def _ric_options(p):
    p.add_argument("--input", required=True)
    p.add_argument("--s", type=int, required=True)
    _add_report(p)


def _radohorn_options(p):
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--partition", action="store_true",
                   help="no effect: the partition is always reported when "
                        "one exists; kept so older command lines still run")
    _add_report(p)


def _subspace_options(p):
    p.add_argument("--input", required=True,
                   help="matrix whose columns span or orthonormally base "
                        "the subspace")
    p.add_argument("--span", action="store_true",
                   help="orthonormalize the given columns first")
    p.add_argument("--a", type=_finite_float, help="largeness level to test")
    p.add_argument("--blocks", help="coordinate partition, e.g. '0,1;2,3'")
    _add_report(p)


def _toeplitz_options(p):
    p.add_argument("--input", required=True)
    p.add_argument("--k-list", required=True,
                   help="comma-separated moduli, each dividing N")
    p.add_argument("--epsilon", type=_finite_float, required=True)
    p.add_argument("--stride", type=int,
                   help="also check progression sections at this stride")
    p.add_argument("--freq-min", type=int, default=0)
    p.add_argument("--freq-max", type=int)
    _add_report(p)


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
    _add_report(p)


def _mv_theta_options(p):
    p.add_argument("--freqs", required=True)
    p.add_argument("--coeffs", required=True,
                   help="comma-separated complex numbers, e.g. '1,0.5-0.2j'")
    p.add_argument("--t-len", type=_finite_float, required=True)
    p.add_argument("--quad-n", type=int)
    _add_report(p)


def _erasure_options(p):
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    _add_report(p)


def _phase_options(p):
    p.add_argument("--input", required=True)
    p.add_argument("--trials", type=int, default=10**4)
    p.add_argument("--seed", type=int, default=0)
    _add_report(p)


def _verify_options(p):
    p.add_argument("--report", dest="report_path", required=True)


# name -> (help, the function that adds its options, handler), in the order
# the help lists them
_COMMANDS = {
    "gen": ("generate a frame, projection or grid symbol", _gen_options,
            _cmd_gen),
    "analyze": ("spectral summary of a frame file", _analyze_options,
                _cmd_analyze),
    "dilate": ("projection dilation of a frame or operator", _dilate_options,
               _cmd_dilate),
    "pave": ("search for a paving partition", _pave_options, _cmd_pave),
    "weaver": ("two-sided block bound partition search", _weaver_options,
               _cmd_weaver),
    "decompose": ("partition into well-bounded subfamilies",
                  _decompose_options, _cmd_decompose),
    "ric": ("restricted isometry deviation", _ric_options, _cmd_ric),
    "radohorn": ("partition into at most r independent blocks, "
                 "or a violating subset", _radohorn_options, _cmd_radohorn),
    "subspace": ("largeness and decomposability", _subspace_options,
                 _cmd_subspace),
    "toeplitz": ("grid symbol identities, uniform criteria and "
                 "section spectra", _toeplitz_options, _cmd_toeplitz),
    "kadec": ("perturbation stability bounds", _kadec_options, _cmd_kadec),
    "mv-theta": ("exponential sum energy correction", _mv_theta_options,
                 _cmd_mv_theta),
    "erasure": ("worst-case erasure robustness", _erasure_options,
                _cmd_erasure),
    "phase": ("sign-blind recovery check", _phase_options, _cmd_phase),
    "verify": ("recompute a report's certificates", _verify_options,
               _cmd_verify),
}


def _parser(names, metavar=None):
    """The root parser with the subparsers of the named commands."""
    parser = argparse.ArgumentParser(
        prog="pavekit",
        description="Finite-dimensional paving, dilation and partition "
                    "toolkit with verifiable reports.")
    parser.add_argument("--version", action="version",
                        version=f"pavekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=metavar)
    for name in names:
        help_text, add_options, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_options(p)
        p.set_defaults(func=handler)
    return parser


def build_parser():
    """The parser of every subcommand: what help, --version and any
    misspelled command get."""
    return _parser(_COMMANDS)


def _parser_for(argv):
    """Only the named subcommand's parser when argv starts with one, the
    full parser otherwise.  The narrow root still lists every command in
    its usage line, which its "unrecognized arguments" error prints; the
    full root keeps argparse's own metavar, since its errors name the
    command argument by it."""
    if argv and argv[0] in _COMMANDS:
        return _parser([argv[0]], "{" + ",".join(_COMMANDS) + "}")
    return build_parser()


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = _parser_for(argv).parse_args(argv)
    start = time.perf_counter()
    try:
        name, obj, inputs = _INPUTS.get(args.command), None, {}
        if name is not None:
            doc, record = _read_json(args.input)
            obj, inputs = _decode(name, doc), {name: record}
        out = args.func(args, obj)
        if out is None:  # verify prints its own verdict
            return 0
        config, results, line = out
        wall = time.perf_counter() - start
        print(line)
        if getattr(args, "report", None):
            report = make_report(args.command, config, inputs, results,
                                 wall)
            write_report(args.report, report)
            print(f"report: {args.report}")
        return 0
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ContractViolation, ValueError, OSError, OverflowError,
            json.JSONDecodeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
