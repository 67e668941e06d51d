"""Report files: deterministic payloads, content hashes, re-verification.

A report is {"payload": ..., "meta": ...}: everything semantic lives in the
payload (command, config, input hashes, results with certificates) and only
timing lives in meta, so identical runs produce byte-identical canonical
payloads.

verify() rebuilds the whole results of a report from its referenced inputs
with the producer's own code, then compares stored and rebuilt results in
one place, _match.  A wire matrix there is held to the rebuilt one by its
decoded values, in either wire form, with the command's float slack, and
not by its text, so a report written on another BLAS still verifies.
Each command reads at most one input file, named in _INPUTS, which the
CLI and verify decode alike.  _BUILDERS holds the one function per
command that the CLI builds its results with, from the config and the
decoded input.  A command that runs no search is re-run: verify
calls that same builder.  A search is not repeated; its certificate
(partition, worst subset, witness) is re-priced by its entry in _VERIFIERS
and handed to the results builder its producer returns through, so each
results schema is written once.  The
fields only the search itself could reproduce (mode, evaluated, search
flags) go in as UNCHECKED, except that pave and weaver rebuild their
flags and hold the mode to the configured one and dilate's meta the
configured mode.  Two polynomial searches are re-run instead: the seeded
tp1 decomposition, so its escalations and a False verdict are checked
too, and the complement-property decision behind phase, whose positive
verdict has no short certificate.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import reprlib
import stat
import time

import numpy as np

from . import __version__
from .core import (
    BudgetExceeded,
    ContractViolation,
    Frame,
    check_blocks,
    frame_from_json,
    gen_harmonic_frame,
    gen_random_projection,
    gen_random_unit_frame,
    in_range,
    matrix_from_json,
    matrix_to_json,
    stack_spectra,
    subset_ranks,
    within,
)
from .dilation import _dilation_results, dilate_operator, naimark_dilate
from .frames import (
    _is_parseval,
    gram_matrix,
    parseval_normalize,
    spectral_summary,
)
from .decomposition import (
    Subspace,
    _gram_block_bounds,
    _rado_horn_witness,
    _riesz_results,
    decomposition_vectors,
    epsilon_riesz_partition,
    feichtinger_partition,
    is_large,
    is_r_decomposable,
    rado_horn_check,
    restricted_isometry,
    tp1_partition,
)
from .erasures import (
    _erasure_results,
    _surviving_lower,
    erasure_robustness,
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
from .paving import (
    _priced,
    _pricing,
    pave_matrix_check,
    pave_projection_check,
    weaver_check,
)

__all__ = ["make_report", "canonical_json", "write_report", "load_report",
           "file_sha256", "verify"]


def canonical_json(obj):
    """The one JSON text pavekit writes or hashes: sorted keys, no
    whitespace.  Wire matrices and grids are base64 strings, so the C
    encoder writes all of it.  A value JSON has no type for raises
    TypeError, and NaN and infinities raise ValueError, since RFC 8259 JSON
    has no text for them."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


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


def _write_text(path, text):
    """Write the ASCII bytes of a canonical JSON text and one trailing
    newline over the file's old bytes, then trim a regular file that was
    longer to their length.  The file is never truncated to zero: on ext4,
    whose auto_da_alloc default starts writeback of a file truncated to
    zero and rewritten when it is closed, the next truncate of that path
    waits for it.  The inode, its links and mode bits stay, and a new file
    gets 0o666 less the umask, as with open(path, "w").  Nothing is synced:
    an interrupted write leaves the new text cut short or followed by old
    bytes, where a truncating write left it cut short."""
    data = text.encode("ascii")     # raises before the file is opened
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        for chunk in (memoryview(data), b"\n"):
            while chunk:
                chunk = chunk[os.write(fd, chunk):]
        st = os.fstat(fd)
        if stat.S_ISREG(st.st_mode) and st.st_size > len(data) + 1:
            os.ftruncate(fd, len(data) + 1)
    finally:
        os.close(fd)


def write_report(path, report):
    """canonical_json of report and a newline.  The text is built before
    the file is opened, so a report that cannot be encoded leaves none."""
    _write_text(path, canonical_json(report))


def _parse_json(data, path):
    """The JSON value of data, the bytes read from path.  Text that is not
    JSON, or is nested past the parser's recursion limit, is bad input,
    not a fault of the program: ContractViolation naming the file."""
    try:
        return json.loads(data)
    except RecursionError:
        raise ContractViolation(f"{path}: JSON nested too deeply") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ContractViolation(f"{path}: not a JSON text: {exc}") from None


def load_report(path):
    with open(path, "rb") as fh:
        return _parse_json(fh.read(), path)


def file_sha256(data):
    """The sha256 of a file's contents, data: the bytes read once to be
    both hashed and parsed."""
    return hashlib.sha256(data).hexdigest()


def input_record(path, data):
    """The record of an input file at path whose contents are data."""
    return {"path": str(path), "sha256": file_sha256(data)}


# ---------------------------------------------------------------------------
# results builders: _BUILDERS holds the one the CLI runs per command, on the
# config and the decoded input; verify rebuilds results with the same
# functions from the stored config and certificate
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
        _write_text(out, text)
    return results


def _analyze(config, fr):
    return {"summary": spectral_summary(fr)}


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
        blocks = check_blocks(config["blocks"], sub.ambient)
        ok, ranks = is_r_decomposable(sub, blocks)
        entry = {"verdict": bool(ok), "ranks": list(ranks),
                 "partition": {"blocks": blocks}}
        if ok:
            solved = decomposition_vectors(sub, blocks)
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


def _mv_theta(config, _=None):
    return montgomery_vaughan_theta(
        config["freqs"], [complex(re, im) for re, im in config["coeffs"]],
        config["t_len"])


def _phase(config, fr):
    return phase_retrieval_check(fr)


def _ric_results(config, fr, subset):
    """delta_s at the worst subset: the largest deviation of its Gram
    block's spectrum from one."""
    w = stack_spectra(gram_matrix(fr), np.array([subset], dtype=np.intp))[0]
    return {"s": config["s"],
            "delta": max(float(w[-1] - 1.0), float(1.0 - w[0]), 0.0),
            "worst_subset": subset}


def _ric(config, fr):
    _, worst = restricted_isometry(fr, config["s"])
    return _ric_results(config, fr, list(worst))


def _radohorn_results(blocks, witness):
    """A partition into independent blocks, or else a witness subset."""
    return {"verdict": blocks is not None,
            "partition": None if blocks is None else {"blocks": blocks},
            "witness": witness}


def _radohorn(config, fr):
    _, blocks, witness = rado_horn_check(fr, config["r"])
    return _radohorn_results(blocks, witness)


def _dilate(config, mat):
    if config["mode"] == "naimark":
        return naimark_dilate(Frame(mat))
    return dilate_operator(mat)


def _pave(config, t):
    search = dict(mode=config["mode"], seed=config["seed"])
    if config["form"] == "projection":
        return pave_projection_check(t, config["r_max"], config["epsilon"],
                                     delta=config["delta"], **search)
    return pave_matrix_check(t, config["r_max"], config["epsilon"], **search)


def _weaver(config, fr):
    return weaver_check(fr, config["bessel"], config["epsilon"],
                        config["r_max"], seed=config["seed"])


def _decompose(config, fr):
    criterion, r_max = config["criterion"], config["r_max"]
    if criterion == "riesz":
        return epsilon_riesz_partition(fr, config["epsilon"], r_max)
    if criterion == "feichtinger":
        return feichtinger_partition(fr, config["a_target"], r_max)
    return tp1_partition(fr, config["s"], config["delta"],
                         seed=config["seed"], r_max=r_max)


def _erasure(config, fr):
    return erasure_robustness(fr, config["k"])


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


# The keys of a wire matrix as matrix_to_json writes it.
_WIRE_MATRIX = {"rows", "cols", "field", "base64"}


def _match_matrix(stored, got, slack, path):
    """_match of a rebuilt wire matrix: the stored one, in either wire
    form, must decode to its shape and field, with each real and imaginary
    part _close to the rebuilt one's."""
    try:
        s, g = matrix_from_json(stored), matrix_from_json(got)
    except ContractViolation as exc:
        return f"{path} is not a wire matrix: {exc}"
    if stored.keys() - {"entries", "base64"} != got.keys() - {"base64"} or \
            s.shape != g.shape or s.dtype != g.dtype:
        return (f"{path} differs: stored {reprlib.repr(stored)}, rebuilt "
                f"{reprlib.repr(got)}")
    x, y = np.stack([s.real, s.imag]), np.stack([g.real, g.imag])
    bound, relative = slack
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.maximum(1.0, np.maximum(abs(x), abs(y))) if relative else 1
        bad = np.argwhere(~(np.abs(x - y) <= bound * scale))
    if bad.size:
        i = tuple(map(int, bad[0]))
        return (f"{path} differs in the {('real', 'imaginary')[i[0]]} part "
                f"of entry {i[1:]}: stored {float(x[i])!r}, rebuilt "
                f"{float(y[i])!r}")
    return None


def _match(stored, got, slack=(_MATCH_TOL, True), path="results"):
    """None when a stored value matches the rebuilt one, else a reason that
    names the first field that differs.

    Dicts need the same keys and lists the same length.  Floats match when
    equal or _close; every other value must be equal and of the same type,
    so true is not 1.  UNCHECKED matches anything, and so does the stored
    value itself, which a verifier hands back for a part it checked by
    other means.  A wire matrix matches by value (_match_matrix), not by
    its text.  got is what a producer would write: tuples count as lists
    and non-string keys as their JSON text.
    """
    if got is UNCHECKED or got is stored:
        return None
    if isinstance(got, dict) and got.keys() == _WIRE_MATRIX:
        return _match_matrix(stored, got, slack, path)
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
    return _parse_json(data, rec["path"])


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
    """The blocks of the stored partition of range(m), which has at most
    r_max of them."""
    blocks = check_blocks(res["partition"]["blocks"], m)
    if len(blocks) > r_max:
        raise ContractViolation(
            f"partition has {len(blocks)} blocks, more than {r_max}")
    return blocks


def _verify_dilate(payload, original):
    """Holds the input and the stored completion to the producer's
    certificate instead of re-running the dilation, and hands the checked
    columns back as stored."""
    mode = payload["config"].get("mode")
    if mode not in ("naimark", "operator"):
        raise ContractViolation("dilate mode must be naimark or operator")
    added = payload["results"]["added_vectors"]
    got = _dilation_results(
        mode, original, None if added is None else matrix_from_json(added))
    got["added_vectors"] = added
    return got


def _repaved(payload, form, a, bound=None):
    """Paving results re-priced from the stored partition with the
    producer's block cost and flags.  The verdict is judged against the
    stored target, which must itself match the one the config gives, and
    the mode must be the configured one (either one under auto)."""
    config, res = payload["config"], payload["results"]
    cost, target, scale, flags = _pricing(form, a, config["epsilon"], bound)
    blocks = _partition(res, a.shape[0], config["r_max"])
    mode = config.get("mode", "auto")       # weaver always runs auto
    if mode == "auto":
        mode = "local" if res["mode"] == "local" else "exhaustive"
    if mode == "local":
        flags["seed"] = config["seed"]
    got = _priced(form, cost, blocks, target, scale, mode, UNCHECKED, flags)
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
    got["achieved"] = float(max(stack_spectra(
        fr.synthesis, np.array([worst], dtype=np.intp), frame=True)[0, -1],
        0.0))
    return got


def _verify_decompose(payload, fr):
    """tp1 is seeded and polynomial, so it is re-run.  A True Riesz or
    Feichtinger verdict is re-priced from its partition, judged against
    the stored target where that range lies inside the configured one, a
    stronger claim, else against the configured one.  A False one is not
    re-decided, so only the fields it derives from the config are
    rebuilt."""
    config, res = payload["config"], payload["results"]
    criterion = config["criterion"]
    if criterion == "tp1":
        return _decompose(config, fr)
    if criterion == "riesz":
        wanted = (1.0 - config["epsilon"], 1.0 + config["epsilon"])
    elif criterion == "feichtinger":
        wanted = (config["a_target"], None)
    else:
        raise ContractViolation(f"unknown criterion {criterion!r}")
    blocks = _partition(res, fr.M, config["r_max"]) \
        if res["verdict"] is True else None
    stored = tuple(res["target"])
    target = stored if in_range(stored, *wanted) else wanted
    return _riesz_results(_gram_block_bounds(gram_matrix(fr)), blocks,
                          target, UNCHECKED, UNCHECKED)


def _verify_ric(payload, fr):
    config = payload["config"]
    subset = _index_subset(payload["results"]["worst_subset"], fr.M,
                           range(1, config["s"] + 1), "worst subset")
    return _ric_results(config, fr, subset)


def _verify_radohorn(payload, fr):
    """A True verdict is certified by independent blocks, a False one by
    a witness subset J with |J| > r * rank J."""
    r = payload["config"]["r"]
    res = payload["results"]
    if res["verdict"] is True:
        blocks = _partition(res, fr.M, r)
        for blk, rank in zip(blocks, subset_ranks(fr.synthesis, blocks)):
            if rank != len(blk):
                raise ContractViolation(
                    f"block {blk} is not linearly independent")
        return _radohorn_results(blocks, None)
    subset = _index_subset(res["witness"]["subset"], fr.M,
                           range(1, fr.M + 1), "witness subset")
    witness = _rado_horn_witness(fr, subset)
    if witness["size"] <= r * witness["rank"]:
        raise ContractViolation("witness does not violate |J| <= r * rank J")
    return _radohorn_results(None, witness)


def _verify_erasure(payload, fr):
    k = payload["config"]["k"]
    subset = _index_subset(payload["results"]["worst_subset"], fr.M,
                           range(k, k + 1), "worst subset")
    value = float(_surviving_lower(fr, np.array([subset], dtype=np.intp))[0])
    return _erasure_results(k, _is_parseval(fr), value, subset,
                            math.comb(fr.M, k), UNCHECKED)


# command -> the builder of its results, on its config and its decoded input
# (None without one; gen's is the --out path, so _regenerate writes the
# object there, and under verify writes no file).  The CLI runs it, and so
# does verify for a command with no entry in _VERIFIERS.
_BUILDERS = {
    "gen": _regenerate,
    "analyze": _analyze,
    "dilate": _dilate,
    "pave": _pave,
    "weaver": _weaver,
    "decompose": _decompose,
    "ric": _ric,
    "radohorn": _radohorn,
    "subspace": _subspace,
    "toeplitz": _toeplitz,
    "kadec": _kadec,
    "mv-theta": _mv_theta,
    "erasure": _erasure,
    "phase": _phase,
}

# The commands whose verifier verify runs in place of the builder, on the
# payload and the decoded input: each re-prices a search's stored
# certificate.
_VERIFIERS = {
    "dilate": _verify_dilate,
    "pave": _verify_pave,
    "weaver": _verify_weaver,
    "decompose": _verify_decompose,
    "ric": _verify_ric,
    "radohorn": _verify_radohorn,
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
        except (OSError, ValueError) as exc:    # UTF-8, JSON, nesting
            return False, [f"unreadable report: {exc}"]
    payload = report.get("payload") if isinstance(report, dict) else None
    malformed = _malformed(payload)
    if malformed:
        return False, [malformed]
    command, config = payload["command"], payload["config"]
    if command not in _BUILDERS:
        return False, [f"unknown command {command!r}"]
    seed = config.get("seed", 0)
    if type(seed) is not int:
        return False, ["missing seed" if seed is None
                       else "config seed must be an integer"]
    try:
        name = _INPUTS.get(command)
        obj = None if name is None else \
            _decode(name, _load_input(payload, name))
        verifier = _VERIFIERS.get(command)
        got = verifier(payload, obj) if verifier else \
            _BUILDERS[command](config, obj)
    except (ContractViolation, BudgetExceeded) as exc:
        return False, [str(exc)]
    except (KeyError, TypeError, ValueError) as exc:
        return False, [f"verification error: {exc!r}"]
    mismatch = _match(payload["results"], got,
                      _SLACK.get(command, (_MATCH_TOL, True)))
    return mismatch is None, [mismatch] if mismatch else []
