"""Report files: deterministic payloads, content hashes, re-verification.

A report is {"payload": ..., "meta": ...}: everything semantic lives in the
payload (command, config, input hashes, results with certificates) and only
timing lives in meta, so identical runs produce byte-identical canonical
payloads.

verify() rebuilds the whole results of a report from its referenced inputs
with the producer's own code, then compares stored and rebuilt results in
one place, _match.  Each command reads at most one input file, named in
_INPUTS, which the CLI and verify decode alike.  A command that runs no
search is re-run: the CLI and verify build its results with the same
function below.  A search is not
repeated; its certificate (partition, worst subset, witness) is re-priced,
and the fields only the search itself could reproduce (mode, evaluated,
search flags) are rebuilt as UNCHECKED, except that pave and weaver
rebuild their flags and hold the mode to the configured one, tp1's flags
must hold the configured seed and dilate's meta the configured mode.  The
polynomial complement-property decision behind phase is re-run, because
its positive verdict has no short certificate.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import reprlib
import time

import numpy as np

from . import __version__
from .core import (
    BudgetExceeded,
    ContractViolation,
    Partition,
    block_spectrum,
    frame_from_json,
    gen_harmonic_frame,
    gen_random_projection,
    gen_random_unit_frame,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
    subset_ranks,
    within,
)
from .frames import gram_matrix, parseval_normalize, spectral_summary
from .decomposition import (
    RieszReport,
    Subspace,
    Tp1Report,
    _block_bounds,
    _block_deltas,
    _gram_block_bounds,
    _in_range,
    _rado_horn_witness,
    _tp1_mass_bound,
    decomposition_vectors,
    is_large,
    is_r_decomposable,
)
from .erasures import (
    ErasureReport,
    _is_parseval,
    _surviving_lower,
    phase_retrieval_check,
)
from .harmonic import (
    GridFunction,
    ap_blocks,
    christensen_bounds,
    distribution_check,
    example_e1_set,
    kadec_bounds,
    kadec_empirical_check,
    montgomery_vaughan_theta,
    translate_average,
    tt3_identity_check,
    uniform_feichtinger_criterion,
    uniform_paving_criterion,
)
from .paving import _priced, _pricing

__all__ = ["make_report", "canonical_json", "write_report", "load_report",
           "file_sha256", "verify"]


def _numpy_default(x):
    """json fallback: numpy arrays and scalars as their Python values."""
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


# Rows of a pair array formatted per piece of text, so a writer never holds
# the text of a whole large matrix at once.
_PAIR_ROWS = 4096


def _pair_mark(nonce):
    """The string that stands in the skeleton text for a pair array."""
    return f"\0pavekit-pairs-{nonce}\0"


def _skeleton(obj, mark):
    """(parts, arrays): the C encoder's text of obj with mark in place of
    each pair array, an (n, 2) float64 array such as a wire entry list,
    split at the marks, and those arrays in text order."""
    arrays = []

    def default(x):
        if type(x) is np.ndarray and x.dtype == np.float64 and \
                x.ndim == 2 and x.shape[1] == 2:
            arrays.append(x)
            return mark
        return _numpy_default(x)
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=default, allow_nan=False)
    return text.split(json.dumps(mark)), arrays


def _pair_text(a):
    """The JSON text of the rows of a finite pair array, [[re, im], ...], in
    pieces of _PAIR_ROWS rows: each float as float.__repr__, as json.dumps
    writes a.tolist().  A real matrix's imaginary column is all +0.0, so
    its rows take one "[re,0.0]" template."""
    if not len(a):
        yield "[]"
        return
    real = not a[:, 1].any() and not np.signbit(a[:, 1]).any()
    sep = "[["
    for start in range(0, len(a), _PAIR_ROWS):
        rows = a[start:start + _PAIR_ROWS]
        if real:
            text = ",0.0],[".join(map(float.__repr__, rows[:, 0].tolist())) \
                + ",0.0"
        else:
            r = list(map(float.__repr__, rows.ravel().tolist()))
            text = "],[".join(map(",".join, zip(r[::2], r[1::2])))
        yield sep
        yield text
        sep = "],["
    yield "]]"


def _splice(parts, arrays):
    yield parts[0]
    for a, part in zip(arrays, parts[1:]):
        yield from _pair_text(a)
        yield part


def _canonical_pieces(obj):
    """canonical_json's text as an iterator of pieces.  Every check runs
    before this returns, so a writer that opens its file afterwards never
    leaves a partial one.

    The C encoder writes the skeleton, with a marker string in place of
    each pair array, and _pair_text writes the arrays between.  A marker
    that also occurs in the data is retried with the next nonce."""
    for nonce in itertools.count():
        parts, arrays = _skeleton(obj, _pair_mark(nonce))
        if len(parts) == len(arrays) + 1:
            break
    for a in arrays:
        if not np.isfinite(a).all():    # raise the C encoder's own error
            json.dumps(float(a[~np.isfinite(a)][0]), allow_nan=False)
    return _splice(parts, arrays)


def canonical_json(obj):
    """The one JSON text pavekit writes or hashes: sorted keys, no
    whitespace, numpy values as their Python values, byte for byte the
    text json.dumps gives with those options.  The C encoder writes all of
    it but the pair arrays (_canonical_pieces).  NaN and infinities raise
    ValueError, since RFC 8259 JSON has no text for them."""
    return "".join(_canonical_pieces(obj))


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


def _write_text(path, pieces):
    """Write a canonical JSON text, given as an iterable of pieces, and one
    trailing newline."""
    with open(path, "w") as fh:
        fh.writelines(pieces)
        fh.write("\n")


def write_report(path, report):
    """canonical_json of report and a newline, written piece by piece
    without joining the whole text first."""
    _write_text(path, _canonical_pieces(report))


def load_report(path):
    with open(path) as fh:
        return json.load(fh)


def file_sha256(data):
    """The sha256 of a file's contents, data: the bytes read once to be
    both hashed and parsed."""
    return hashlib.sha256(data).hexdigest()


def input_record(path, data):
    """The record of an input file at path whose contents are data."""
    return {"path": str(path), "sha256": file_sha256(data)}


# ---------------------------------------------------------------------------
# results builders: the CLI writes a command's results with these, and
# verify rebuilds them with the same function from the stored config and
# certificate
# ---------------------------------------------------------------------------

def _object_hash(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _regenerate(config, out=None):
    """The results of gen, which record the frame, projection or grid
    symbol that config describes: object_sha256 hashes its canonical JSON
    text, which is also written to the path out when one is given."""
    kind = config["kind"]
    results = {"kind": kind}
    if kind == "harmonic":
        fr = gen_harmonic_frame(config["n"], config["M"])
        if config["parseval"]:
            fr = parseval_normalize(fr)
        obj = matrix_to_json(fr.synthesis)
    elif kind == "random-unit":
        obj = matrix_to_json(gen_random_unit_frame(
            config["n"], config["M"], config["seed"],
            config["field"]).synthesis)
    elif kind == "projection":
        obj = matrix_to_json(gen_random_projection(
            config["M"], config["n"], config["seed"]))
    elif kind == "e1-grid":
        g, book = example_e1_set(config["N"], config["levels"], config["c"])
        obj = g.to_json()
        results.update(bookkeeping=book, semantics="grid-uniform")
    else:
        raise ContractViolation(f"unknown generator kind {kind!r}")
    text = canonical_json(obj)
    results["object_sha256"] = _object_hash(text)
    if out is not None:
        _write_text(out, (text,))
    return results


def _analyze(config, fr):
    return {"summary": spectral_summary(fr).to_json()}


def _subspace(config, mat):
    """Largeness at config["a"] and decomposability over config["blocks"],
    each when configured, of the subspace mat spans or bases."""
    sub = Subspace.from_span(mat) if config["span"] else Subspace(mat)
    results = {"ambient": sub.ambient, "dim": sub.dim}
    if "a" in config:
        ok, mn = is_large(sub, config["a"])
        results["largeness"] = {"verdict": bool(ok), "min_norm": mn,
                                "a": config["a"]}
    if "blocks" in config:
        part = Partition.from_blocks(config["blocks"], M=sub.ambient)
        ok, ranks = is_r_decomposable(sub, part)
        entry = {"verdict": bool(ok), "ranks": list(ranks),
                 "partition": part.to_json()}
        if ok:
            solved = decomposition_vectors(sub, part)
            entry["vectors"] = [matrix_to_json(b["vectors"]) for b in solved]
            entry["bessel"] = [b["bessel"] for b in solved]
        results["decomposable"] = entry
    return results


def _toeplitz(config, g):
    """Identity residual and both uniform criteria per modulus, and the
    progression sections when a stride is configured."""
    per_k = []
    eps = config["epsilon"]
    for k in config["k_list"]:
        avg = translate_average(g, k)
        ok3, resid = tt3_identity_check(g, k, avg)
        pav_ok, dev = uniform_paving_criterion(g, k, eps, avg)
        fei_ok, mn = uniform_feichtinger_criterion(g, k, eps, avg)
        per_k.append({"K": int(k), "tt3_ok": bool(ok3),
                      "tt3_residual": resid, "paving_ok": bool(pav_ok),
                      "deviation": dev, "feichtinger_ok": bool(fei_ok),
                      "minimum": mn})
    # measure statements hold grid-uniformly, not almost-everywhere
    results = {"per_k": per_k, "distribution": None,
               "semantics": "grid-uniform"}
    if "stride" in config:
        lo, hi, bound = config["freq_min"], config["freq_max"], g.N // 2 - 1
        # an empty range (lo > hi) is left to distribution_check to refuse
        for option, f in (("--freq-min", lo), ("--freq-max", hi)):
            if lo <= hi and abs(f) > bound:
                raise ContractViolation(f"{option} {f} lies past the alias "
                                        f"bound {bound} of the grid")
        freqs = range(lo, hi + 1)
        results["distribution"] = distribution_check(
            g, ap_blocks(freqs, config["stride"]), config["epsilon"])
    return results


def _kadec(config, _=None):
    """Closed-form bounds, plus the seeded empirical spectrum and the
    perturbation bounds when configured."""
    results = {"bounds": kadec_bounds(config["a"], config["b"],
                                      config["gamma"], config["delta"]),
               "empirical": None, "christensen": None}
    if "n_max" in config:
        results["empirical"] = kadec_empirical_check(
            config["n_max"], config["delta_max"], config["seed"])
    if "lam" in config:
        results["christensen"] = christensen_bounds(
            config["a"], config["b"], config["lam"], config["mu"])
    return results


def _mv_theta(config):
    return montgomery_vaughan_theta(
        config["freqs"], [complex(re, im) for re, im in config["coeffs"]],
        config["t_len"], config["quad_n"])


def _phase(config, fr):
    return phase_retrieval_check(fr, trials=config["trials"],
                                 seed=config["seed"])


def _ric(config, fr, subset):
    """delta_s at the worst subset: the largest deviation of its Gram
    block's spectrum from one."""
    w = block_spectrum(gram_matrix(fr), subset)
    return {"s": config["s"],
            "delta": max(float(w[-1] - 1.0), float(1.0 - w[0]), 0.0),
            "worst_subset": subset}


def _radohorn(part, witness):
    """A partition into independent blocks, or else a witness subset."""
    return {"verdict": part is not None,
            "partition": None if part is None else part.to_json(),
            "witness": witness}


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

_MATCH_TOL = 1e-9
# Float slack of _match per command, as (bound, relative); see _close.  The
# closed forms of kadec are re-evaluated to 1e-12.  Subspace vectors and
# toeplitz residuals are compared absolutely, since their size is not a
# scale for their rounding.
_SLACK = {"kadec": (1e-12, True), "subspace": (1e-9, False),
          "toeplitz": (1e-9, False)}

# Stands in the rebuilt results for a field no certificate can re-derive,
# a record of the search that produced it; it matches any stored value.
UNCHECKED = object()


def _close(x, y, bound=_MATCH_TOL, relative=True):
    """|x - y| <= bound, times max(1, |x|, |y|) when relative."""
    x, y = float(x), float(y)
    return abs(x - y) <= bound * (max(1.0, abs(x), abs(y)) if relative else 1.0)


def _match(stored, got, slack=(_MATCH_TOL, True), path="results"):
    """None when a stored value matches the rebuilt one, else a reason that
    names the first field that differs.

    Dicts need the same keys and lists the same length.  Floats match when
    equal or _close; every other value must be equal and of the same type,
    so true is not 1.  UNCHECKED matches anything, and so does the stored
    value itself, which a verifier hands back for a part it checked by
    other means.  got is what a producer would write: numpy values count
    as their Python values, tuples as lists and non-string keys as their
    JSON text.
    """
    if got is UNCHECKED or got is stored:
        return None
    if isinstance(got, (np.ndarray, np.generic)):
        got = got.tolist()
    if isinstance(got, dict) and type(stored) is dict:
        got = {k if type(k) is str else json.dumps(k): v
               for k, v in got.items()}
        if stored.keys() != got.keys():
            return (f"{path} has fields {sorted(stored)}, rebuilt "
                    f"{sorted(got)}")
        pairs = ((stored[k], got[k], f"{path}.{k}") for k in got)
    elif isinstance(got, (list, tuple)) and type(stored) is list:
        if len(stored) != len(got):
            return f"{path} has {len(stored)} entries, rebuilt {len(got)}"
        pairs = ((s, g, f"{path}[{i}]")
                 for i, (s, g) in enumerate(zip(stored, got)))
    elif type(stored) is type(got) and (
            stored == got or type(got) is float and
            _close(stored, got, *slack)):
        return None
    else:
        return (f"{path} differs: stored {reprlib.repr(stored)}, rebuilt "
                f"{reprlib.repr(got)}")
    for s, g, p in pairs:
        reason = _match(s, g, slack, p)
        if reason:
            return reason
    return None


def _malformed(payload):
    """Why a payload lacks the structure verify reads, or None."""
    if not isinstance(payload, dict) or \
            type(payload.get("command")) is not str:
        return "report has no payload/command"
    if any(type(payload.get(k)) is not dict
           for k in ("config", "inputs", "results")):
        return "payload config, inputs and results must be objects"
    for name, rec in payload["inputs"].items():
        if type(rec) is not dict or type(rec.get("path")) is not str or \
                type(rec.get("sha256")) is not str:
            return f"input record {name!r} needs a string path and sha256"
    return None


# command -> the name its report records its one input file under.  The
# CLI reads and records that file and verify reads and checks it, and both
# decode it with _decode.
_INPUTS = {"analyze": "frame", "dilate": "input", "pave": "matrix",
           "weaver": "frame", "decompose": "frame", "ric": "frame",
           "radohorn": "frame", "subspace": "basis", "toeplitz": "grid",
           "erasure": "frame", "phase": "frame"}


def _decode(name, doc):
    """The object the JSON of input `name` holds: a grid symbol, a matrix
    (dilate reads either mode's input as one) or a frame.  The decoders are
    looked up here, at call time, so a rebound module name is seen."""
    if name == "grid":
        return GridFunction.from_json(doc)
    if name == "frame":
        return frame_from_json(doc)
    return matrix_from_json(doc)


def _load_input(payload, name):
    """The JSON of input `name`, which must still hash as recorded: the
    bytes read once are hashed and then parsed, so what is parsed is what
    was checked."""
    rec = payload["inputs"].get(name)
    if rec is None:
        raise ContractViolation(f"missing input record {name!r}")
    if not os.path.isfile(rec["path"]):
        raise ContractViolation(f"input {name!r} is not a regular file")
    try:
        with open(rec["path"], "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ContractViolation(f"input {name!r} unreadable: {exc}")
    if file_sha256(data) != rec["sha256"]:
        raise ContractViolation(
            f"input {name!r} changed since the report was written")
    return json.loads(data)


def _index_subset(subset, m, sizes, what):
    """subset, which must be a sorted list of distinct indices in range(m)
    with a length in the range sizes."""
    if type(subset) is list and len(subset) in sizes and \
            all(type(i) is int and 0 <= i < m for i in subset) and \
            sorted(set(subset)) == subset:
        return subset
    raise ContractViolation(
        f"{what} is not a sorted list of {sizes.start} to {sizes.stop - 1} "
        "distinct input indices")


def _partition(res, m, r_max):
    """The stored partition of range(m), which has at most r_max blocks."""
    part = Partition.from_json(res["partition"], m)
    if part.r > r_max:
        raise ContractViolation(
            f"partition has {part.r} blocks, more than {r_max}")
    return part


def _verify_mv_theta(payload, _):
    res = payload["results"]
    got = _mv_theta(payload["config"])
    # theta is a quadrature: another platform may round it anywhere within
    # the quadrature error
    slack = max(1e-9, 4.0 * got["quad_error_theta"],
                4.0 * res.get("quad_error_theta", 0.0))
    if type(res.get("theta")) is float and \
            _close(got["theta"], res["theta"], slack, relative=False):
        got["theta"] = res["theta"]
    return got


def _verify_dilate(payload, original):
    """Checks that the stored projection dilates the input instead of
    re-running the dilation, hands the checked matrices back and rebuilds meta."""
    mode = payload["config"].get("mode")
    if mode not in ("naimark", "operator"):
        raise ContractViolation("dilate mode must be naimark or operator")
    res = payload["results"]
    p, emb, fr = (matrix_from_json(res[key])
                  for key in ("projection", "embedding", "frame"))
    if np.abs(p - p.conj().T).max() > 1e-9 or np.abs(p @ p - p).max() > 1e-8:
        raise ContractViolation(
            "stored projection is not an orthogonal projection")
    if np.abs(p - emb @ fr).max() > 1e-8:
        raise ContractViolation("projection does not dilate the stored family")
    # in both modes the dilated family starts with the input columns
    k = original.shape[1]
    if fr.shape[1] < k or np.abs(fr[:, :k] - original).max() > 1e-12:
        raise ContractViolation(
            "dilated family does not extend the input columns")
    rank = original.shape[0]
    if not _close(np.real(np.trace(p)), rank, 1e-6):
        raise ContractViolation("projection trace does not match the rank")
    added = fr[:, k:]
    meta = {"mode": mode, "n": rank, "M": fr.shape[1]}
    if mode == "operator":      # norm one leaves the top eigenvector out
        meta.update(norm_one=added.shape[1] == rank - 1,
                    operator_norm=operator_norm(original))
    return {"ambient_dim": p.shape[0], "projection": res["projection"],
            "embedding": res["embedding"], "frame": res["frame"],
            "added_vectors": matrix_to_json(added) if added.size else None,
            "meta": meta, "rank": rank}


def _repaved(payload, form, a, bound=None):
    """Paving results re-priced from the stored partition with the
    producer's block cost and flags.  The verdict is judged against the
    stored target, which must itself match the one the config gives, and
    the mode must be the configured one (either one under auto)."""
    config, res = payload["config"], payload["results"]
    cost, target, scale, flags = _pricing(form, a, config["epsilon"], bound)
    part = _partition(res, a.shape[0], config["r_max"])
    mode = config.get("mode", "auto")       # weaver always runs auto
    if mode == "auto":
        mode = "local" if res["mode"] == "local" else "exhaustive"
    if mode == "local":
        flags["seed"] = config["seed"]
    got = _priced(form, cost, part, target, scale, mode, UNCHECKED,
                  flags).to_json()
    got["verdict"] = within(got["achieved"], res["target"])
    return got


def _verify_pave(payload, t):
    return _repaved(payload, payload["config"]["form"], t,
                    payload["config"].get("delta"))


def _verify_weaver(payload, fr):
    got = _repaved(payload, "weaver", gram_matrix(fr),
                   payload["config"]["bessel"])
    # The worst block priced a second way, through the partial frame
    # operator T_S T_S*, so a fault in the Gram route shows as an achieved
    # value that differs from the stored one.
    worst = got["partition"]["blocks"][int(np.argmax(got["per_block"]))]
    got["achieved"] = float(max(
        block_spectrum(fr.synthesis, worst, frame=True)[-1], 0.0))
    return got


def _verify_decompose(payload, fr):
    """A True verdict is re-priced from its partition and judged against
    the stored target (tp1: the configured and the recorded delta).  A
    False one is not re-decided, so only the fields it derives from the
    config are rebuilt."""
    config, res = payload["config"], payload["results"]
    part = _partition(res, fr.M, config["r_max"]) \
        if res["verdict"] is True else None
    criterion = config["criterion"]
    if criterion == "tp1":
        delta = res["delta_target"]
        bessel, k, mass_bound = _tp1_mass_bound(gram_matrix(fr), config["s"],
                                                delta)
        per = _block_deltas(fr, part, config["s"]) if part else []
        ok = bool(per) and all(within(d, config["delta"]) and within(d, delta)
                               for d in per)
        return Tp1Report(ok, part, UNCHECKED if part else 0, k, bessel, delta,
                         per, mass_bound,
                         dict(res["flags"], seed=config["seed"])).to_json()
    if criterion == "riesz":
        wanted = (1.0 - config["epsilon"], 1.0 + config["epsilon"])
    elif criterion == "feichtinger":
        wanted = (config["a_target"], None)
    else:
        raise ContractViolation(f"unknown criterion {criterion!r}")
    # a stored target range inside the configured one is a stronger claim
    lo_t, hi_t = res["target"]
    target = (lo_t, hi_t) if _in_range((lo_t, hi_t), *wanted) else wanted
    per = _block_bounds(_gram_block_bounds(gram_matrix(fr)), part) \
        if part else []
    ok = bool(per) and all(_in_range(b, lo_t, hi_t) for b in per)
    return RieszReport(ok, part, per, target, UNCHECKED, UNCHECKED).to_json()


def _verify_ric(payload, fr):
    config = payload["config"]
    subset = _index_subset(payload["results"]["worst_subset"], fr.M,
                           range(1, config["s"] + 1), "worst subset")
    return _ric(config, fr, subset)


def _verify_radohorn(payload, fr):
    """A True verdict is certified by independent blocks, a False one by
    a witness subset J with |J| > r * rank J."""
    r = payload["config"]["r"]
    res = payload["results"]
    if res["verdict"] is True:
        part = _partition(res, fr.M, r)
        blocks = part.blocks()
        for blk, rank in zip(blocks, subset_ranks(fr.synthesis, blocks)):
            if rank != len(blk):
                raise ContractViolation(
                    f"block {blk} is not linearly independent")
        return _radohorn(part, None)
    subset = _index_subset(res["witness"]["subset"], fr.M,
                           range(1, fr.M + 1), "witness subset")
    witness = _rado_horn_witness(fr, subset)
    if witness["size"] <= r * witness["rank"]:
        raise ContractViolation("witness does not violate |J| <= r * rank J")
    return _radohorn(None, witness)


def _verify_erasure(payload, fr):
    k = payload["config"]["k"]
    subset = _index_subset(payload["results"]["worst_subset"], fr.M,
                           range(k, k + 1), "worst subset")
    val = _surviving_lower(fr, set(subset))
    return ErasureReport(k=k, worst_value=val, worst_subset=subset,
                         is_parseval=_is_parseval(fr),
                         identity_checked=UNCHECKED,
                         subsets_scanned=math.comb(fr.M, k), value_min=val,
                         value_max=UNCHECKED, flags={}).to_json()


# Commands that run no search: verify re-runs the results builder the CLI
# ran, on the stored config and the decoded input (None without one, so
# _regenerate writes no file).
_REBUILT = {
    "gen": _regenerate,
    "analyze": _analyze,
    "subspace": _subspace,
    "toeplitz": _toeplitz,
    "kadec": _kadec,
    "phase": _phase,
}

# The others: their verifier, on the payload and the decoded input,
# re-prices the stored certificate.
_VERIFIERS = {
    "dilate": _verify_dilate,
    "pave": _verify_pave,
    "weaver": _verify_weaver,
    "decompose": _verify_decompose,
    "ric": _verify_ric,
    "radohorn": _verify_radohorn,
    "mv-theta": _verify_mv_theta,
    "erasure": _verify_erasure,
}


def verify(report_or_path):
    """(verified, reasons): rebuild a report's results and match them.

    Accepts a report dict or a path to one.  Returns False (never raises)
    for structurally broken reports, changed inputs, missing or non-integer
    seeds, or any results that the rebuild does not reproduce.
    """
    report = report_or_path
    if isinstance(report_or_path, str):
        try:
            report = load_report(report_or_path)
        except (OSError, json.JSONDecodeError) as exc:
            return False, [f"unreadable report: {exc}"]
    payload = report.get("payload") if isinstance(report, dict) else None
    malformed = _malformed(payload)
    if malformed:
        return False, [malformed]
    command, config = payload["command"], payload["config"]
    rebuild, verifier = _REBUILT.get(command), _VERIFIERS.get(command)
    if rebuild is None and verifier is None:
        return False, [f"unknown command {command!r}"]
    seed = config.get("seed", 0)
    if type(seed) is not int:
        return False, ["missing seed" if seed is None
                       else "config seed must be an integer"]
    try:
        name = _INPUTS.get(command)
        obj = None if name is None else \
            _decode(name, _load_input(payload, name))
        got = rebuild(config, obj) if rebuild else verifier(payload, obj)
    except (ContractViolation, BudgetExceeded) as exc:
        return False, [str(exc)]
    except (KeyError, TypeError, ValueError) as exc:
        return False, [f"verification error: {exc!r}"]
    mismatch = _match(payload["results"], got,
                      _SLACK.get(command, (_MATCH_TOL, True)))
    return mismatch is None, [mismatch] if mismatch else []
