"""Spans and counters around pavekit's layers, installed from outside.

The program has no tracing of its own yet, so the benchmark wraps each
layer's entry points in place while a traced segment runs and restores
them afterwards.  Modules import names with `from .core import ...`, so one
function object is bound under its name in several module namespaces;
`rebind` replaces every such binding, not just the defining one.

Spans are kept in memory as (name, layer, role, start, end, parent, job).
A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "core", "frames", "dilation", "paving", "decomposition",
          "harmonic", "erasures", "reports")

# name -> role for entry points whose time is also reported by role.  Roles:
# load (JSON text from disk), decode/encode (pavekit's matrix codec),
# grid_decode, write (JSON to disk), hash, verify.
_ROLES = {
    "cli._read_json": "load", "cli._write_json": "write",
    "cli._object_sha256": "hash",
    "core.matrix_from_json": "decode", "core.frame_from_json": "decode",
    "core.matrix_to_json": "encode", "core.frame_to_json": "encode",
    "harmonic.GridFunction.from_json": "grid_decode",
    "reports.load_report": "load", "reports._load_input": "load",
    "reports.write_report": "write", "reports.file_sha256": "hash",
    "reports._object_hash": "hash", "reports.payload_hash": "hash",
    "reports.verify": "verify",
}

# Entry points beyond each module's __all__: core has no __all__, and a few
# private helpers are imported across modules (erasures reuses the paving
# search, reports reuses erasures' survivor bound).
_EXTRA = {
    "cli": ("main", "_read_json", "_write_json", "_object_sha256"),
    "core": ("matrix_from_json", "matrix_to_json", "frame_from_json",
             "frame_to_json", "sym_eig", "operator_norm", "numeric_rank",
             "gen_random_unit_frame", "gen_harmonic_frame",
             "gen_random_projection"),
    "paving": ("_exhaustive_search", "_local_search"),
    "erasures": ("_surviving_lower",),
    "reports": ("input_record", "_load_input", "_object_hash",
                "_regenerate"),
}

_EIG = ("eigh", "eigvalsh", "eig", "eigvals")
# lstsq (gelsd), pinv and matrix_rank all factor through an SVD.
_SVD = ("svd", "pinv", "lstsq", "matrix_rank")


class Tracer:
    """Spans and counters, kept in memory until drained."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(int)
        self.job = None
        self._stack = []

    def open(self, name, layer, role=None):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, role, self.clock(), None, parent,
                           self.job])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx):
        self.spans[idx][4] = self.clock()
        self._stack.pop()

    def add(self, name, n=1):
        self.counts[name] += n

    def wrap(self, fn, name, layer, role=None, after=None):
        """fn inside a span; after(args, result) runs once the span ends."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, layer, role)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, result)
            return result
        return traced

    def drain(self):
        """Return and forget the spans and counts recorded so far.

        Call between jobs, when no span is open."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(int)
        return spans, counts


def interval_union(intervals, lo, hi):
    """Length of the union of [a, b) intervals clipped to [lo, hi)."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Per-span duration minus the union of its direct children."""
    children = defaultdict(list)
    for s in spans:
        if s[5] >= 0:
            children[s[5]].append((s[3], s[4]))
    return [s[4] - s[3] - interval_union(children[i], s[3], s[4])
            for i, s in enumerate(spans)]


def _has_ancestor(spans, i, pred):
    p = spans[i][5]
    while p >= 0:
        if pred(spans[p]):
            return True
        p = spans[p][5]
    return False


# role -> (metric for the role's outermost span time, metric for its self time)
_ROLE_METRICS = {
    "load": (None, "reports.load_s"),
    "decode": ("core.decode_s", None),
    "encode": ("core.encode_s", None),
    "grid_decode": ("harmonic.grid_decode_s", None),
    "write": ("reports.write_s", None),
    "hash": ("reports.hash_s", None),
    "verify": ("reports.verify_s", "reports.reprice_self_s"),
    "eig": ("linalg.eig_s", None),
    "svd": ("linalg.svd_s", None),
}


def summarize(spans):
    """Per-layer and per-role seconds, and linalg call counts, of one job.

    `<layer>.s` sums the spans of a layer that sit under no other span of
    the same layer, so recursion and same-layer helpers count once; role
    times likewise.
    """
    own = self_times(spans)
    out = defaultdict(float)
    for i, s in enumerate(spans):
        layer, role = s[1], s[2]
        out[f"{layer}.self_s"] += own[i]
        if not _has_ancestor(spans, i, lambda p: p[1] == layer):
            out[f"{layer}.s"] += s[4] - s[3]
        if role is None:
            continue
        outer_name, self_name = _ROLE_METRICS[role]
        if outer_name and not _has_ancestor(spans, i,
                                            lambda p: p[2] == role):
            out[outer_name] += s[4] - s[3]
        if self_name:
            out[self_name] += own[i]
        if layer == "linalg":
            out[f"linalg.{role}_calls"] += 1
            for host in ("decomposition", "erasures"):
                if _has_ancestor(spans, i, lambda p: p[1] == host):
                    out[f"{host}.linalg_calls"] += 1
    return dict(out)


# ---------------------------------------------------------------------------
# installing the wrappers
# ---------------------------------------------------------------------------

def rebind(modules, original, replacement):
    """Point every name bound to `original` in `modules` at `replacement`.

    Returns the (module, name, original) triples needed to undo it."""
    undo = []
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)
                undo.append((mod, name, original))
    return undo


def restore(undo):
    for mod, name, original in reversed(undo):
        setattr(mod, name, original)


def _entry_points(mod, layer):
    names = list(getattr(mod, "__all__", ())) + list(_EXTRA.get(layer, ()))
    for name in dict.fromkeys(names):
        fn = getattr(mod, name)
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
            yield name, fn


def _linalg_size(args):
    """Sum of m*n*min(m, n) over the stacked matrices of the first argument:
    k^3 for a k x k solve.  A computed operation size, not a measurement."""
    shape = getattr(args[0], "shape", None) if args else None
    if not shape or len(shape) < 2:
        return 0
    m, n = shape[-2], shape[-1]
    return math.prod(shape[:-2]) * m * n * min(m, n)


def _report_bytes(args, result):
    """Size of a written report less the digits of the floats in its meta
    (timestamp, wall time), which differ from run to run."""
    path, report = args[0], args[1]
    varying = sum(len(json.dumps(v)) for v in report.get("meta", {}).values()
                  if isinstance(v, float))
    return os.path.getsize(path) - varying


class _CountingSha256:
    """hashlib.sha256 stand-in that counts the bytes it digests."""

    def __init__(self, tracer, real, data=b""):
        self._tracer = tracer
        self._h = real(data)
        tracer.add("reports.hash_bytes", len(data))

    def update(self, data):
        self._tracer.add("reports.hash_bytes", len(data))
        self._h.update(data)

    def hexdigest(self):
        return self._h.hexdigest()


def install(tracer, package):
    """Wrap every layer's entry points; returns the undo list for restore."""
    import numpy as np

    mods = _package_modules(package)
    layer_mods = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
    undo = []
    add = tracer.add

    def size_hook(count, pick):
        return lambda args, result: add(count, int(pick(args, result)))

    hooks = {
        "core.matrix_from_json": size_hook("core.decode_entries",
                                           lambda a, r: r.size),
        "core.matrix_to_json": size_hook("core.encode_entries",
                                         lambda a, r: np.size(a[0])),
        "reports.write_report": size_hook("reports.write_bytes",
                                          _report_bytes),
        "cli._write_json": size_hook("reports.write_bytes",
                                     lambda a, r: os.path.getsize(a[0])),
    }
    for layer in LAYERS:
        mod = layer_mods[layer]
        for attr, fn in _entry_points(mod, layer):
            name = f"{layer}.{attr}"
            wrapped = tracer.wrap(fn, name, layer, _ROLES.get(name),
                                  hooks.get(name))
            undo += rebind(mods, fn, wrapped)

    grid = layer_mods["harmonic"].GridFunction
    raw = grid.__dict__["from_json"]
    grid.from_json = classmethod(tracer.wrap(
        raw.__func__, "harmonic.GridFunction.from_json", "harmonic",
        "grid_decode"))
    undo.append((grid, "from_json", raw))

    core = layer_mods["core"]
    enum = core.enumerate_partitions

    def enumerate_partitions(*args, **kwargs):
        for p in enum(*args, **kwargs):
            add("core.partitions")
            yield p
    undo += rebind(mods, enum, enumerate_partitions)

    paving = layer_mods["paving"]
    cache = paving._block_cost_cache

    def block_cost_cache(cost):
        def counted(blk):
            add("paving.kernel_calls")
            return cost(blk)
        return cache(counted)
    undo += rebind(mods, cache, block_cost_cache)

    for attr in _EIG + _SVD:
        fn = getattr(np.linalg, attr)
        role = "eig" if attr in _EIG else "svd"
        wrapped = tracer.wrap(
            fn, f"linalg.{attr}", "linalg", role,
            lambda args, r: add("linalg.flops_computed", _linalg_size(args)))
        undo += rebind([np.linalg], fn, wrapped)

    norm = np.linalg.norm
    spectral = tracer.wrap(
        norm, "linalg.norm2", "linalg", "svd",
        lambda args, r: add("linalg.flops_computed", _linalg_size(args)))

    def traced_norm(x, ord=None, axis=None, keepdims=False):
        if ord in (2, -2) and axis is None and np.ndim(x) == 2:
            return spectral(x, ord, axis, keepdims)
        return norm(x, ord, axis, keepdims)
    undo += rebind([np.linalg], norm, traced_norm)

    real = hashlib.sha256
    undo += rebind([hashlib], real,
                   lambda data=b"": _CountingSha256(tracer, real, data))
    return undo


def _package_modules(package):
    prefix = package.__name__ + "."
    return [package] + [m for n, m in sorted(sys.modules.items())
                        if n.startswith(prefix) and m is not None]
