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
import sys
import time

import numpy as np

from . import __version__
from .core import (
    BudgetExceeded,
    ContractViolation,
    Frame,
    Partition,
    frame_from_json,
    gen_harmonic_frame,
    gen_random_projection,
    gen_random_unit_frame,
    matrix_from_json,
    matrix_to_json,
)
from .decomposition import (
    Subspace,
    decomposition_vectors,
    epsilon_riesz_partition,
    feichtinger_partition,
    is_large,
    is_r_decomposable,
    rado_horn_check,
    restricted_isometry,
    tp1_partition,
)
from .dilation import dilate_operator, naimark_dilate
from .erasures import erasure_robustness, phase_retrieval_check
from .frames import parseval_normalize, spectral_summary
from .harmonic import (
    GridFunction,
    ap_blocks,
    christensen_bounds,
    distribution_check,
    example_e1_set,
    kadec_bounds,
    kadec_empirical_check,
    montgomery_vaughan_theta,
    tt3_identity_check,
    uniform_feichtinger_criterion,
    uniform_paving_criterion,
)
from .paving import (
    _fits_exhaustive,
    pave_exhaustive,
    pave_local,
    pave_projection_check,
    weaver_check,
)
from .reports import (
    input_record,
    make_report,
    verify,
    write_report,
)

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# small parsing / serialization helpers
# ---------------------------------------------------------------------------

def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _object_sha256(obj):
    import hashlib
    return hashlib.sha256(json.dumps(obj, sort_keys=True,
                                     separators=(",", ":")).encode()).hexdigest()


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


def _load_frame(path):
    return frame_from_json(_read_json(path))


def _load_matrix(path):
    return matrix_from_json(_read_json(path))


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (config, inputs, results, summary line)
# ---------------------------------------------------------------------------

def _cmd_gen(args):
    kind = args.kind
    if kind == "harmonic":
        if args.n is None or args.M is None:
            raise ContractViolation("harmonic generation needs --n and --M")
        fr = gen_harmonic_frame(args.n, args.M)
        if args.parseval:
            fr = parseval_normalize(fr)
        obj = matrix_to_json(fr.synthesis)
        config = {"kind": kind, "n": args.n, "M": args.M,
                  "parseval": bool(args.parseval)}
    elif kind == "random-unit":
        if args.n is None or args.M is None or args.seed is None:
            raise ContractViolation(
                "random generation needs --n, --M and --seed")
        fr = gen_random_unit_frame(args.n, args.M, args.seed, args.field)
        obj = matrix_to_json(fr.synthesis)
        config = {"kind": kind, "n": args.n, "M": args.M,
                  "seed": args.seed, "field": args.field}
    elif kind == "projection":
        if args.n is None or args.M is None or args.seed is None:
            raise ContractViolation(
                "projection generation needs --M (ambient), --n (rank) "
                "and --seed")
        obj = matrix_to_json(gen_random_projection(args.M, args.n, args.seed))
        config = {"kind": kind, "M": args.M, "n": args.n, "seed": args.seed}
    elif kind == "e1-grid":
        if args.N is None or args.levels is None:
            raise ContractViolation("grid generation needs --N and --levels")
        g, book = example_e1_set(args.N, args.levels, args.c)
        obj = g.to_json()
        config = {"kind": kind, "N": args.N, "levels": args.levels,
                  "c": args.c}
    else:  # pragma: no cover - argparse restricts choices
        raise ContractViolation(f"unknown kind {kind!r}")
    _write_json(args.out, obj)
    results = {"kind": kind, "object_sha256": _object_sha256(obj)}
    if kind == "e1-grid":
        results["bookkeeping"] = book
        results["semantics"] = "grid-uniform"
    return config, {}, results, f"wrote {args.out}"


def _cmd_analyze(args):
    fr = _load_frame(args.input)
    summ = spectral_summary(fr)
    results = {"summary": summ.to_json()}
    line = (f"n={fr.n} M={fr.M} bounds=({summ.lower:.6g}, {summ.upper:.6g}) "
            f"parseval={summ.is_parseval}")
    return ({}, {"frame": input_record(args.input)}, results, line)


def _cmd_dilate(args):
    if args.mode == "naimark":
        fr = _load_frame(args.input)
        dil = naimark_dilate(fr)
        rank = fr.n
    else:
        t = _load_matrix(args.input)
        dil = dilate_operator(t)
        rank = t.shape[0]
    results = dil.to_json()
    results["rank"] = rank
    config = {"mode": args.mode}
    line = f"ambient={dil.ambient_dim} rank={rank}"
    return config, {"input": input_record(args.input)}, results, line


def _auto_mode(mode, m, r_max):
    if mode != "auto":
        return mode
    if _fits_exhaustive(m, r_max):
        return "exhaustive"
    return "local"


def _cmd_pave(args):
    t = _load_matrix(args.input)
    config = {"form": args.form, "r_max": args.r_max,
              "epsilon": args.epsilon, "mode": args.mode, "seed": args.seed}
    if args.form == "projection":
        config["delta"] = args.delta
        report = pave_projection_check(t, args.r_max, args.epsilon,
                                       delta=args.delta, seed=args.seed)
    else:
        mode = _auto_mode(args.mode, t.shape[0], args.r_max)
        if mode == "exhaustive":
            report = pave_exhaustive(t, args.r_max, args.epsilon)
        else:
            report = pave_local(t, args.r_max, args.epsilon, seed=args.seed)
    results = report.to_json()
    line = (f"verdict={report.verdict} achieved={report.achieved:.6g} "
            f"target={report.target:.6g} blocks={report.partition.r}")
    return config, {"matrix": input_record(args.input)}, results, line


def _cmd_weaver(args):
    fr = _load_frame(args.input)
    report = weaver_check(fr, args.bessel, args.epsilon, args.r_max,
                          seed=args.seed)
    config = {"bessel": args.bessel, "epsilon": args.epsilon,
              "r_max": args.r_max, "seed": args.seed}
    results = report.to_json()
    line = (f"verdict={report.verdict} achieved={report.achieved:.6g} "
            f"target={report.target:.6g}")
    return config, {"frame": input_record(args.input)}, results, line


def _cmd_decompose(args):
    fr = _load_frame(args.input)
    config = {"criterion": args.criterion, "r_max": args.r_max,
              "seed": args.seed}
    if args.criterion == "riesz":
        if args.epsilon is None:
            raise ContractViolation("riesz decomposition needs --epsilon")
        config["epsilon"] = args.epsilon
        report = epsilon_riesz_partition(fr, args.epsilon, args.r_max)
    elif args.criterion == "feichtinger":
        if args.a_target is None:
            raise ContractViolation("feichtinger decomposition needs --a-target")
        config["a_target"] = args.a_target
        report = feichtinger_partition(fr, args.a_target, args.r_max)
    else:
        if args.s is None or args.delta is None:
            raise ContractViolation("tp1 decomposition needs --s and --delta")
        config["s"] = args.s
        config["delta"] = args.delta
        report = tp1_partition(fr, args.s, args.delta, seed=args.seed,
                               r_max=args.r_max)
    results = report.to_json()
    blocks = report.partition.r if report.partition is not None else 0
    line = f"verdict={report.verdict} blocks={blocks}"
    return config, {"frame": input_record(args.input)}, results, line


def _cmd_ric(args):
    fr = _load_frame(args.input)
    delta, worst = restricted_isometry(fr, args.s)
    config = {"s": args.s}
    results = {"s": args.s, "delta": delta, "worst_subset": list(worst)}
    line = f"delta_{args.s}={delta:.6g} worst={list(worst)}"
    return config, {"frame": input_record(args.input)}, results, line


def _cmd_radohorn(args):
    fr = _load_frame(args.input)
    ok, part, witness = rado_horn_check(fr, args.r)
    results = {"verdict": ok, "partition": part.to_json() if ok else None,
               "witness": witness}
    if ok:
        line = f"verdict=True blocks={part.r}"
    else:
        line = f"verdict=False witness_ratio={witness['ratio']:.6g}"
    return {"r": args.r}, {"frame": input_record(args.input)}, results, line


def _cmd_subspace(args):
    mat = _load_matrix(args.input)
    sub = Subspace.from_span(mat) if args.span else Subspace(mat)
    config = {"span": bool(args.span)}
    results = {"ambient": sub.ambient, "dim": sub.dim}
    bits = [f"dim={sub.dim}/{sub.ambient}"]
    if args.a is not None:
        config["a"] = args.a
        ok, mn = is_large(sub, args.a)
        results["largeness"] = {"verdict": bool(ok), "min_norm": mn,
                                "a": args.a}
        bits.append(f"large={bool(ok)} (min {mn:.6g})")
    if args.blocks is not None:
        blocks = _parse_blocks(args.blocks)
        config["blocks"] = blocks
        part = Partition.from_blocks(blocks, M=sub.ambient)
        ok, ranks = is_r_decomposable(sub, part)
        entry = {"verdict": bool(ok), "ranks": list(ranks),
                 "partition": part.to_json()}
        if ok:
            solved = decomposition_vectors(sub, part)
            entry["vectors"] = [matrix_to_json(b["vectors"]) for b in solved]
            entry["bessel"] = [b["bessel"] for b in solved]
        results["decomposable"] = entry
        bits.append(f"decomposable={bool(ok)}")
    return (config, {"basis": input_record(args.input)}, results,
            " ".join(bits))


def _cmd_toeplitz(args):
    g = GridFunction.from_json(_read_json(args.input))
    ks = _parse_ints(args.k_list)
    if not ks:
        raise ContractViolation("need at least one modulus in --k-list")
    config = {"k_list": ks, "epsilon": args.epsilon}
    per_k = []
    for k in ks:
        ok3, resid = tt3_identity_check(g, k)
        pav_ok, dev = uniform_paving_criterion(g, k, args.epsilon)
        fei_ok, mn = uniform_feichtinger_criterion(g, k, args.epsilon)
        per_k.append({"K": int(k), "tt3_ok": bool(ok3),
                      "tt3_residual": resid, "paving_ok": bool(pav_ok),
                      "deviation": dev, "feichtinger_ok": bool(fei_ok),
                      "minimum": mn})
    # measure statements hold grid-uniformly, not almost-everywhere
    results = {"per_k": per_k, "distribution": None,
               "semantics": "grid-uniform"}
    if args.stride is not None:
        if args.freq_max is None:
            raise ContractViolation("--stride needs --freq-max")
        config.update({"stride": args.stride, "freq_min": args.freq_min,
                       "freq_max": args.freq_max})
        freqs = list(range(args.freq_min, args.freq_max + 1))
        results["distribution"] = distribution_check(
            g, ap_blocks(freqs, args.stride), args.epsilon)
    worst = max(e["tt3_residual"] for e in per_k)
    line = (f"K={ks} max_identity_residual={worst:.3e} "
            f"paving_ok={[e['paving_ok'] for e in per_k]}")
    return config, {"grid": input_record(args.input)}, results, line


def _cmd_kadec(args):
    config = {"a": args.a, "b": args.b, "gamma": args.gamma,
              "delta": args.delta}
    bounds = kadec_bounds(args.a, args.b, args.gamma, args.delta)
    results = {"bounds": bounds, "empirical": None, "christensen": None}
    line = f"L={bounds['L']:.6g} valid={bounds['valid']}"
    if args.empirical:
        if args.n_max is None or args.delta_max is None or args.seed is None:
            raise ContractViolation(
                "--empirical needs --n-max, --delta-max and --seed")
        config.update({"n_max": args.n_max, "delta_max": args.delta_max,
                       "seed": args.seed})
        emp = kadec_empirical_check(args.n_max, args.delta_max, args.seed)
        results["empirical"] = emp
        line += (f" lambda_min={emp['lambda_min']:.6g} "
                 f"passed={emp['passed']}")
    if args.lam is not None or args.mu is not None:
        if args.lam is None or args.mu is None:
            raise ContractViolation(
                "perturbation bounds need both --lam and --mu")
        config.update({"lam": args.lam, "mu": args.mu})
        results["christensen"] = christensen_bounds(args.a, args.b,
                                                    args.lam, args.mu)
    return config, {}, results, line


def _cmd_mv_theta(args):
    freqs = _parse_floats(args.freqs)
    coeffs = _parse_complexes(args.coeffs)
    config = {"freqs": freqs,
              "coeffs": [[c.real, c.imag] for c in coeffs],
              "t_len": args.t_len, "quad_n": args.quad_n}
    rep = montgomery_vaughan_theta(freqs, coeffs, args.t_len, args.quad_n)
    line = f"theta={rep['theta']:.6g} within_unit={rep['within_unit']}"
    return config, {}, rep, line


def _cmd_erasure(args):
    fr = _load_frame(args.input)
    report = erasure_robustness(fr, args.k)
    config = {"k": args.k}
    results = report.to_json()
    line = (f"worst_lower={report.worst_value:.6g} at erased="
            f"{report.worst_subset} (scanned {report.subsets_scanned})")
    return config, {"frame": input_record(args.input)}, results, line


def _cmd_phase(args):
    fr = _load_frame(args.input)
    report = phase_retrieval_check(fr, trials=args.trials, seed=args.seed)
    config = {"trials": args.trials, "seed": args.seed}
    line = f"verdict={report['verdict']}"
    if report["witness"] is not None:
        line += f" witness_side={report['witness']['side']}"
    return config, {"frame": input_record(args.input)}, report, line


def _cmd_verify(args):
    ok, reasons = verify(args.report_path)
    print(json.dumps({"verified": ok, "reasons": reasons}, sort_keys=True))
    return None


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_report(p):
    p.add_argument("--report", help="write a JSON report to this path")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pavekit",
        description="Finite-dimensional paving, dilation and partition "
                    "toolkit with verifiable reports.")
    parser.add_argument("--version", action="version",
                        version=f"pavekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a frame, projection or grid symbol")
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
    p.add_argument("--c", type=float, default=0.5)
    p.add_argument("--out", required=True)
    _add_report(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("analyze", help="spectral summary of a frame file")
    p.add_argument("--input", required=True)
    _add_report(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("dilate", help="projection dilation of a frame or operator")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=["naimark", "operator"],
                   default="naimark")
    _add_report(p)
    p.set_defaults(func=_cmd_dilate)

    p = sub.add_parser("pave", help="search for a paving partition")
    p.add_argument("--input", required=True)
    p.add_argument("--form", choices=["matrix", "projection"],
                   default="matrix")
    p.add_argument("--r-max", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--mode", choices=["auto", "exhaustive", "local"],
                   default="auto")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float,
                   help="diagonal bound precondition (projection form)")
    _add_report(p)
    p.set_defaults(func=_cmd_pave)

    p = sub.add_parser("weaver", help="two-sided block bound partition search")
    p.add_argument("--input", required=True)
    p.add_argument("--bessel", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--r-max", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_report(p)
    p.set_defaults(func=_cmd_weaver)

    p = sub.add_parser("decompose",
                       help="partition into well-bounded subfamilies")
    p.add_argument("--input", required=True)
    p.add_argument("--criterion", required=True,
                   choices=["riesz", "feichtinger", "tp1"])
    p.add_argument("--epsilon", type=float)
    p.add_argument("--a-target", type=float)
    p.add_argument("--s", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--r-max", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    _add_report(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("ric", help="restricted isometry deviation")
    p.add_argument("--input", required=True)
    p.add_argument("--s", type=int, required=True)
    _add_report(p)
    p.set_defaults(func=_cmd_ric)

    p = sub.add_parser("radohorn",
                       help="partition into at most r independent blocks, "
                            "or a violating subset")
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--partition", action="store_true",
                   help="no effect: the partition is always reported when "
                        "one exists; kept so older command lines still run")
    _add_report(p)
    p.set_defaults(func=_cmd_radohorn)

    p = sub.add_parser("subspace", help="largeness and decomposability")
    p.add_argument("--input", required=True,
                   help="matrix whose columns span or orthonormally base "
                        "the subspace")
    p.add_argument("--span", action="store_true",
                   help="orthonormalize the given columns first")
    p.add_argument("--a", type=float, help="largeness level to test")
    p.add_argument("--blocks", help="coordinate partition, e.g. '0,1;2,3'")
    _add_report(p)
    p.set_defaults(func=_cmd_subspace)

    p = sub.add_parser("toeplitz",
                       help="grid symbol identities, uniform criteria and "
                            "section spectra")
    p.add_argument("--input", required=True)
    p.add_argument("--k-list", required=True,
                   help="comma-separated moduli, each dividing N")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--stride", type=int,
                   help="also check progression sections at this stride")
    p.add_argument("--freq-min", type=int, default=0)
    p.add_argument("--freq-max", type=int)
    _add_report(p)
    p.set_defaults(func=_cmd_toeplitz)

    p = sub.add_parser("kadec", help="perturbation stability bounds")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--empirical", action="store_true")
    p.add_argument("--n-max", type=int)
    p.add_argument("--delta-max", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lam", type=float,
                   help="relative perturbation constant")
    p.add_argument("--mu", type=float,
                   help="absolute perturbation constant")
    _add_report(p)
    p.set_defaults(func=_cmd_kadec)

    p = sub.add_parser("mv-theta", help="exponential sum energy correction")
    p.add_argument("--freqs", required=True)
    p.add_argument("--coeffs", required=True,
                   help="comma-separated complex numbers, e.g. '1,0.5-0.2j'")
    p.add_argument("--t-len", type=float, required=True)
    p.add_argument("--quad-n", type=int)
    _add_report(p)
    p.set_defaults(func=_cmd_mv_theta)

    p = sub.add_parser("erasure", help="worst-case erasure robustness")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    _add_report(p)
    p.set_defaults(func=_cmd_erasure)

    p = sub.add_parser("phase", help="sign-blind recovery check")
    p.add_argument("--input", required=True)
    p.add_argument("--trials", type=int, default=10**4)
    p.add_argument("--seed", type=int, default=0)
    _add_report(p)
    p.set_defaults(func=_cmd_phase)

    p = sub.add_parser("verify", help="recompute a report's certificates")
    p.add_argument("--report", dest="report_path", required=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        out = args.func(args)
        if out is None:  # verify prints its own verdict
            return 0
        config, inputs, results, line = out
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
    except (ContractViolation, ValueError, KeyError, TypeError, OSError,
            json.JSONDecodeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
