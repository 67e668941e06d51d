"""Seeded workload decks: the inputs and pavekit command lines of one job.

A job is a short list of producing subcommands, each of which writes a
report that the runner then hands to `pavekit verify`.  Job i of a run with
workload seed s draws every input from numpy's generator seeded with
(s, i), so the same seed always yields the same inputs, report payloads and
work counts.  Inputs are written in pavekit's JSON wire format by this
module, never by pavekit itself, so building them costs the program
nothing; they land under fixed relative paths, because report payloads
record input paths and must hash the same from run to run.
"""

from __future__ import annotations

import json
import os

import numpy as np

WORK_DIR = os.path.join(".perfbench", "work")


def matrix_json(a):
    """pavekit's matrix format: column-major [re, im] pairs plus shape."""
    a = np.asarray(a)
    cols = a.T.reshape(-1)
    entries = [[float(z.real), float(z.imag)] for z in cols] \
        if np.iscomplexobj(a) else [[float(x), 0.0] for x in cols]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]),
            "field": "complex" if np.iscomplexobj(a) else "real",
            "entries": entries}


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def unit_frame(rng, n, m):
    """Real n x m family of Gaussian columns scaled to unit length."""
    a = rng.standard_normal((n, m))
    return a / np.linalg.norm(a, axis=0)


def parseval_frame(rng, n, m):
    """Real n x m family with orthonormal rows, so T T* = I exactly enough
    for pavekit's Parseval checks (1e-8)."""
    q, _ = np.linalg.qr(rng.standard_normal((m, n)))
    return q.T.copy()


def hermitian_zero_diag(rng, m):
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    h = g + g.conj().T
    np.fill_diagonal(h, 0.0)
    return h


def projection(rng, m, rank):
    """Rank-`rank` orthogonal projection on C^m."""
    a = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
    q, _ = np.linalg.qr(a)
    return q @ q.conj().T


def _steps(work, specs):
    """[(argv, report path)] with --report appended to each command."""
    out = []
    for name, argv in specs:
        report = os.path.join(work, f"{name}.report.json")
        out.append((argv + ["--report", report], report))
    return out


def pave_search(rng, work):
    """Partition enumeration: exhaustive pave, projection pave, weaver and
    riesz decomposition on 10 indices."""
    matrix = os.path.join(work, "matrix.json")
    proj = os.path.join(work, "projection.json")
    frame = os.path.join(work, "frame.json")
    _write(matrix, matrix_json(hermitian_zero_diag(rng, 10)))
    _write(proj, matrix_json(projection(rng, 10, 4)))
    _write(frame, matrix_json(unit_frame(rng, 4, 10)))
    return _steps(work, [
        ("pave", ["pave", "--input", matrix, "--mode", "exhaustive",
                  "--r-max", "3", "--epsilon", "0.5"]),
        ("pave-projection", ["pave", "--input", proj, "--form", "projection",
                             "--r-max", "3", "--epsilon", "0.2"]),
        ("weaver", ["weaver", "--input", frame, "--bessel", "4",
                    "--epsilon", "0.5", "--r-max", "3"]),
        ("decompose", ["decompose", "--input", frame, "--criterion", "riesz",
                       "--epsilon", "0.5", "--r-max", "5"]),
    ])


def subset_scan(rng, work):
    """One small LAPACK call per visited subset, no shared work."""
    parseval = os.path.join(work, "parseval.json")
    unit6 = os.path.join(work, "unit6.json")
    unit4 = os.path.join(work, "unit4.json")
    _write(parseval, matrix_json(parseval_frame(rng, 5, 20)))
    _write(unit6, matrix_json(unit_frame(rng, 6, 20)))
    _write(unit4, matrix_json(unit_frame(rng, 4, 13)))
    return _steps(work, [
        ("erasure", ["erasure", "--input", parseval, "--k", "3"]),
        ("ric", ["ric", "--input", unit6, "--s", "3"]),
        ("radohorn", ["radohorn", "--input", unit4, "--r", "4",
                      "--partition"]),
        ("phase", ["phase", "--input", unit4, "--trials", "500",
                   "--seed", str(int(rng.integers(2**31)))]),
    ])


def wide_frames(rng, work):
    """Large reads and writes around one eigensolve or FFT pass each."""
    frame = os.path.join(work, "frame.json")
    parseval = os.path.join(work, "parseval.json")
    grid = os.path.join(work, "grid.json")
    _write(parseval, matrix_json(parseval_frame(rng, 12, 192)))
    values = rng.uniform(0.5, 1.5, 7680)
    _write(grid, {"N": 7680, "values": [[float(v), 0.0] for v in values]})
    return _steps(work, [
        ("gen", ["gen", "--kind", "random-unit", "--n", "32", "--M", "1024",
                 "--seed", str(int(rng.integers(2**31))), "--out", frame]),
        ("analyze", ["analyze", "--input", frame]),
        ("dilate", ["dilate", "--input", parseval, "--mode", "naimark"]),
        ("toeplitz", ["toeplitz", "--input", grid, "--k-list", "2,4,8,16",
                      "--epsilon", "0.5", "--stride", "4",
                      "--freq-max", "63"]),
    ])


WORKLOADS = {
    "pave-search": pave_search,
    "subset-scan": subset_scan,
    "wide-frames": wide_frames,
}


def build_job(workload, seed, job):
    """Write job `job`'s inputs for `workload` and return its steps."""
    work = os.path.join(WORK_DIR, workload)
    os.makedirs(work, exist_ok=True)
    rng = np.random.default_rng([seed, job])
    return WORKLOADS[workload](rng, work)
