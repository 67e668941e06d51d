"""Report files: deterministic payloads, content hashes, re-verification.

A report is {"payload": ..., "meta": ...}: everything semantic lives in the
payload (command, config, input hashes, results with certificates) and only
timing lives in meta, so identical runs produce byte-identical canonical
payloads.  verify() re-derives every certified quantity in a report from
its referenced inputs: partition certificates are re-priced, worst subsets
re-evaluated, closed-form bounds re-evaluated, seeded constructions
regenerated.  Searches are not repeated; what a certificate cannot pin down
(optimality of an exhaustive scan) is recorded as the producing mode.
"""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np

from . import __version__
from .core import (
    ContractViolation,
    Frame,
    Partition,
    frame_from_json,
    gen_harmonic_frame,
    gen_random_projection,
    gen_random_unit_frame,
    matrix_from_json,
    matrix_to_json,
    within,
)
from .frames import parseval_normalize, spectral_summary
from .decomposition import (
    Subspace,
    decomposition_vectors,
    is_large,
    is_r_decomposable,
    restricted_isometry,
)
from .erasures import _surviving_lower, phase_retrieval_check
from .harmonic import (
    GridFunction,
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
from .paving import paving_norm

__all__ = ["make_report", "canonical_payload", "payload_hash",
           "write_report", "load_report", "file_sha256", "verify"]

_MATCH_TOL = 1e-9


def canonical_payload(report):
    return json.dumps(report["payload"], sort_keys=True,
                      separators=(",", ":")).encode()


def payload_hash(report):
    return hashlib.sha256(canonical_payload(report)).hexdigest()


def make_report(command, config, inputs, results, wall_time_s):
    payload = {
        "command": command,
        "config": config,
        "inputs": inputs,
        "results": results,
        "version": __version__,
    }
    return {
        "payload": payload,
        "meta": {"timestamp": time.time(), "wall_time_s": wall_time_s},
    }


def write_report(path, report):
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path):
    with open(path) as fh:
        return json.load(fh)


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def input_record(path):
    return {"path": str(path), "sha256": file_sha256(path)}


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _close(x, y, tol=_MATCH_TOL):
    return abs(float(x) - float(y)) <= tol * max(1.0, abs(float(x)),
                                                 abs(float(y)))


def _load_input(payload, name, reasons):
    rec = payload.get("inputs", {}).get(name)
    if rec is None:
        reasons.append(f"missing input record {name!r}")
        return None
    try:
        actual = file_sha256(rec["path"])
    except OSError as exc:
        reasons.append(f"input {name!r} unreadable: {exc}")
        return None
    if actual != rec["sha256"]:
        reasons.append(f"input {name!r} changed since the report was written")
        return None
    with open(rec["path"]) as fh:
        return json.load(fh)


def _need_seed(config, reasons):
    if config.get("seed") is None:
        reasons.append("missing seed")
        return False
    return True


def _regenerate(config):
    kind = config["kind"]
    if kind == "harmonic":
        fr = gen_harmonic_frame(config["n"], config["M"])
        if config.get("parseval"):
            fr = parseval_normalize(fr)
        return matrix_to_json(fr.synthesis)
    if kind == "random-unit":
        fr = gen_random_unit_frame(config["n"], config["M"], config["seed"],
                                   config.get("field", "real"))
        return matrix_to_json(fr.synthesis)
    if kind == "projection":
        return matrix_to_json(gen_random_projection(
            config["M"], config["n"], config["seed"]))
    if kind == "e1-grid":
        g, _ = example_e1_set(config["N"], config["levels"],
                              config.get("c", 0.5))
        return g.to_json()
    raise ContractViolation(f"unknown generator kind {kind!r}")


def _object_hash(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True,
                                     separators=(",", ":")).encode()).hexdigest()


def _verify_gen(payload, reasons):
    config = payload["config"]
    if config["kind"] in ("random-unit", "projection") and \
            not _need_seed(config, reasons):
        return False
    try:
        obj = _regenerate(config)
    except ContractViolation as exc:
        reasons.append(str(exc))
        return False
    if _object_hash(obj) != payload["results"]["object_sha256"]:
        reasons.append("regenerated object does not match the recorded hash")
        return False
    return True


def _verify_analyze(payload, reasons):
    d = _load_input(payload, "frame", reasons)
    if d is None:
        return False
    summ = spectral_summary(frame_from_json(d)).to_json()
    stored = payload["results"]["summary"]
    for key, val in stored.items():
        got = summ.get(key)
        if isinstance(val, bool) or val is None or isinstance(got, bool):
            if got != val:
                reasons.append(f"summary field {key} changed: {val} -> {got}")
                return False
        elif not _close(val, got):
            reasons.append(f"summary field {key} changed: {val} -> {got}")
            return False
    return True


def _verify_dilate(payload, reasons):
    d = _load_input(payload, "input", reasons)
    if d is None:
        return False
    res = payload["results"]
    p = matrix_from_json(res["projection"])
    emb = matrix_from_json(res["embedding"])
    fr = matrix_from_json(res["frame"])
    ok = True
    if np.abs(p - p.conj().T).max() > 1e-9 or np.abs(p @ p - p).max() > 1e-8:
        reasons.append("stored projection is not an orthogonal projection")
        ok = False
    if np.abs(p - emb @ fr).max() > 1e-8:
        reasons.append("projection does not dilate the stored family")
        ok = False
    # in both modes the dilated family starts with the input columns
    original = matrix_from_json(d)
    k = original.shape[1]
    if fr.shape[1] < k or np.abs(fr[:, :k] - original).max() > 1e-12:
        reasons.append("dilated family does not extend the input columns")
        ok = False
    if not _close(np.real(np.trace(p)), res["rank"], 1e-6):
        reasons.append("projection trace does not match the recorded rank")
        ok = False
    return ok


def _verify_pave(payload, reasons):
    d = _load_input(payload, "matrix", reasons)
    if d is None:
        return False
    res = payload["results"]
    t = matrix_from_json(d)
    part = Partition.from_json(res["partition"])
    if res["form"] == "projection":
        per = []
        for blk in part.blocks():
            sub = t[np.ix_(blk, blk)]
            per.append(float(np.linalg.norm(sub, 2)))
        achieved = max(per)
    else:
        achieved, per = paving_norm(t, part)
    if not _close(achieved, res["achieved"]):
        reasons.append(f"achieved norm changed: {res['achieved']} -> {achieved}")
        return False
    if within(achieved, res["target"]) != bool(res["verdict"]):
        reasons.append("verdict inconsistent with recomputed norms")
        return False
    return True


def _verify_weaver(payload, reasons):
    d = _load_input(payload, "frame", reasons)
    if d is None:
        return False
    res = payload["results"]
    fr = frame_from_json(d)
    part = Partition.from_json(res["partition"])
    per = []
    for blk in part.blocks():
        sub = fr.synthesis[:, blk]
        w = np.linalg.eigvalsh(sub @ sub.conj().T)
        per.append(float(max(w[-1], 0.0)))
    if not _close(max(per), res["achieved"]):
        reasons.append("recomputed block bound differs from the report")
        return False
    if within(max(per), res["target"]) != bool(res["verdict"]):
        reasons.append("verdict inconsistent with recomputed bounds")
        return False
    return True


def _verify_decompose(payload, reasons):
    d = _load_input(payload, "frame", reasons)
    if d is None:
        return False
    fr = frame_from_json(d)
    config = payload["config"]
    res = payload["results"]
    if not res.get("verdict"):
        return True  # a negative result certifies nothing to recompute
    part = Partition.from_json(res["partition"])
    crit = config["criterion"]
    if crit == "tp1":
        if not _need_seed(config, reasons):
            return False
        for blk, stored in zip(part.blocks(), res["per_block_delta"]):
            sub = Frame(fr.synthesis[:, blk])
            dlt, _ = restricted_isometry(sub, min(config["s"], len(blk)))
            if not _close(dlt, stored) or dlt > config["delta"] + 1e-9:
                reasons.append(f"block {blk} fails its recorded delta")
                return False
        return True
    lo_t, hi_t = res["target"]
    for blk, stored in zip(part.blocks(), res["per_block"]):
        sub = fr.synthesis[:, blk]
        g = sub.conj().T @ sub
        w = np.linalg.eigvalsh(0.5 * (g + g.conj().T))
        lo, hi = float(w[0]), float(w[-1])
        if not (_close(lo, stored[0]) and _close(hi, stored[1])):
            reasons.append(f"block {blk} bounds changed")
            return False
        if lo < lo_t - 1e-9 or (hi_t is not None and hi > hi_t + 1e-9):
            reasons.append(f"block {blk} violates the target range")
            return False
    return True


def _verify_ric(payload, reasons):
    d = _load_input(payload, "frame", reasons)
    if d is None:
        return False
    fr = frame_from_json(d)
    res = payload["results"]
    subset = res["worst_subset"]
    g = fr.synthesis[:, subset].conj().T @ fr.synthesis[:, subset]
    w = np.linalg.eigvalsh(0.5 * (g + g.conj().T))
    dev = max(float(w[-1] - 1.0), float(1.0 - w[0]), 0.0)
    if not _close(dev, res["delta"]):
        reasons.append("worst subset no longer attains the recorded delta")
        return False
    return True


def _verify_radohorn(payload, reasons):
    d = _load_input(payload, "frame", reasons)
    if d is None:
        return False
    fr = frame_from_json(d)
    res = payload["results"]
    if "partition" in res and res["partition"] is not None:
        part = Partition.from_json(res["partition"])
        seen = sorted(i for blk in part.blocks() for i in blk)
        if seen != list(range(fr.M)):
            reasons.append("partition does not cover the index set")
            return False
        from .core import numeric_rank
        for blk in part.blocks():
            if numeric_rank(fr.synthesis[:, blk]) != len(blk):
                reasons.append(f"block {blk} is not linearly independent")
                return False
        return True
    worst = res["worst"]
    from .core import numeric_rank
    rank = numeric_rank(fr.synthesis[:, worst["subset"]])
    if rank != worst["rank"]:
        reasons.append("witness subset rank changed")
        return False
    if bool(res["verdict"]) != (worst["ratio"] <= payload["config"]["r"] + 1e-12):
        reasons.append("verdict inconsistent with the witness ratio")
        return False
    return True


def _verify_subspace(payload, reasons):
    d = _load_input(payload, "basis", reasons)
    if d is None:
        return False
    config = payload["config"]
    mat = matrix_from_json(d)
    sub = Subspace.from_span(mat) if config.get("span") else Subspace(mat)
    res = payload["results"]
    ok = True
    if "largeness" in res:
        got_ok, got_min = is_large(sub, config["a"])
        if not _close(got_min, res["largeness"]["min_norm"]) or \
                bool(got_ok) != bool(res["largeness"]["verdict"]):
            reasons.append("largeness result changed")
            ok = False
    if "decomposable" in res:
        part = Partition.from_json(res["decomposable"]["partition"])
        got_ok, ranks = is_r_decomposable(sub, part)
        if bool(got_ok) != bool(res["decomposable"]["verdict"]) or \
                ranks != res["decomposable"]["ranks"]:
            reasons.append("decomposability result changed")
            ok = False
        if got_ok and "vectors" in res["decomposable"]:
            blocks = decomposition_vectors(sub, part)
            for blk, stored in zip(blocks, res["decomposable"]["vectors"]):
                got = blk["vectors"]
                kept = matrix_from_json(stored)
                if np.abs(got - kept).max() > 1e-8:
                    reasons.append("solved vectors changed")
                    ok = False
                    break
    return ok


def _verify_toeplitz(payload, reasons):
    d = _load_input(payload, "grid", reasons)
    if d is None:
        return False
    g = GridFunction.from_json(d)
    config = payload["config"]
    res = payload["results"]
    for entry in res["per_k"]:
        k = entry["K"]
        ok3, resid = tt3_identity_check(g, k)
        if not ok3 or abs(resid - entry["tt3_residual"]) > 1e-9:
            reasons.append(f"decomposition identity residual changed at K={k}")
            return False
        pav_ok, dev = uniform_paving_criterion(g, k, config["epsilon"])
        fei_ok, mn = uniform_feichtinger_criterion(g, k, config["epsilon"])
        if bool(pav_ok) != bool(entry["paving_ok"]) or \
                not _close(dev, entry["deviation"]) or \
                bool(fei_ok) != bool(entry["feichtinger_ok"]) or \
                not _close(mn, entry["minimum"], 1e-8):
            reasons.append(f"criterion values changed at K={k}")
            return False
    if "distribution" in res and res["distribution"] is not None:
        blocks = [b["freqs"] for b in res["distribution"]["blocks"]]
        rep = distribution_check(g, blocks, config["epsilon"])
        if bool(rep["verdict"]) != bool(res["distribution"]["verdict"]):
            reasons.append("distribution verdict changed")
            return False
    return True


def _verify_kadec(payload, reasons):
    config = payload["config"]
    res = payload["results"]
    bounds = kadec_bounds(config["a"], config["b"], config["gamma"],
                          config["delta"])
    for key in ("L", "lower", "upper"):
        if not _close(bounds[key], res["bounds"][key], 1e-12):
            reasons.append(f"closed-form bound {key} changed")
            return False
    if bool(bounds["valid"]) != bool(res["bounds"]["valid"]):
        reasons.append("validity flag changed")
        return False
    if "empirical" in res and res["empirical"] is not None:
        if not _need_seed(config, reasons):
            return False
        emp = kadec_empirical_check(config["n_max"], config["delta_max"],
                                    config["seed"])
        if not _close(emp["lambda_min"], res["empirical"]["lambda_min"]) or \
                bool(emp["passed"]) != bool(res["empirical"]["passed"]):
            reasons.append("empirical spectrum changed")
            return False
    if "christensen" in res and res["christensen"] is not None:
        got = christensen_bounds(config["a"], config["b"], config["lam"],
                                 config["mu"])
        for key in ("lower", "upper"):
            if not _close(got[key], res["christensen"][key], 1e-12):
                reasons.append(f"perturbation bound {key} changed")
                return False
        if bool(got["valid"]) != bool(res["christensen"]["valid"]):
            reasons.append("perturbation validity flag changed")
            return False
    return True


def _verify_mv_theta(payload, reasons):
    config = payload["config"]
    res = payload["results"]
    rep = montgomery_vaughan_theta(config["freqs"],
                                   [complex(re, im) for re, im
                                    in config["coeffs"]],
                                   config["t_len"], config.get("quad_n"))
    slack = max(1e-9, 4.0 * rep["quad_error_theta"],
                4.0 * res.get("quad_error_theta", 0.0))
    if abs(rep["theta"] - res["theta"]) > slack:
        reasons.append("theta changed beyond quadrature slack")
        return False
    return True


def _verify_erasure(payload, reasons):
    d = _load_input(payload, "frame", reasons)
    if d is None:
        return False
    fr = frame_from_json(d)
    res = payload["results"]
    val = _surviving_lower(fr, set(res["worst_subset"]))
    if not _close(val, res["worst_value"]):
        reasons.append("worst subset no longer attains the recorded value")
        return False
    return True


def _verify_phase(payload, reasons):
    d = _load_input(payload, "frame", reasons)
    if d is None:
        return False
    config = payload["config"]
    if not _need_seed(config, reasons):
        return False
    fr = frame_from_json(d)
    rep = phase_retrieval_check(fr, trials=config["trials"],
                                seed=config["seed"])
    if bool(rep["verdict"]) != bool(payload["results"]["verdict"]):
        reasons.append("recovery verdict changed")
        return False
    return True


_VERIFIERS = {
    "gen": _verify_gen,
    "analyze": _verify_analyze,
    "dilate": _verify_dilate,
    "pave": _verify_pave,
    "weaver": _verify_weaver,
    "decompose": _verify_decompose,
    "ric": _verify_ric,
    "radohorn": _verify_radohorn,
    "subspace": _verify_subspace,
    "toeplitz": _verify_toeplitz,
    "kadec": _verify_kadec,
    "mv-theta": _verify_mv_theta,
    "erasure": _verify_erasure,
    "phase": _verify_phase,
}


def verify(report_or_path):
    """(verified, reasons): recompute every certified quantity in a report.

    Accepts a report dict or a path to one.  Returns False (never raises)
    for structurally broken reports, changed inputs, missing seeds, or any
    certificate that fails to reproduce.
    """
    reasons = []
    report = report_or_path
    if isinstance(report_or_path, str):
        try:
            report = load_report(report_or_path)
        except (OSError, json.JSONDecodeError) as exc:
            return False, [f"unreadable report: {exc}"]
    payload = report.get("payload") if isinstance(report, dict) else None
    if not isinstance(payload, dict) or "command" not in payload:
        return False, ["report has no payload/command"]
    fn = _VERIFIERS.get(payload["command"])
    if fn is None:
        return False, [f"unknown command {payload['command']!r}"]
    try:
        ok = fn(payload, reasons)
    except (ContractViolation, KeyError, TypeError, ValueError) as exc:
        return False, reasons + [f"verification error: {exc!r}"]
    return bool(ok), reasons
