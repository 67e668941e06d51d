"""One small run of every pavekit command, and its report written through
the CLI."""

import contextlib
import io

import numpy as np

from pavekit.cli import main
from pavekit.core import matrix_to_json
from pavekit.reports import canonical_json


def _write(path, a):
    path.write_text(canonical_json(matrix_to_json(a)))
    return str(path)


def commands(tmp):
    """{case: argv} over every command, with inputs written to tmp; run in
    order, since toeplitz reads the grid gen-grid writes.

    Both verdicts of radohorn and of phase are covered; dilate is covered in both modes,
    decompose with each criterion and pave in both forms and both search
    modes.  gen makes every kind, subspace also takes a spanning set,
    analyze also reads a frame in the [re, im] pair form, and riesz also
    runs past EXHAUSTIVE_INDEX_MAX vectors, where its walk stops at the first
    feasible partition."""
    rng = np.random.default_rng(5)

    def unit(n, m):
        a = rng.standard_normal((n, m))
        return a / np.linalg.norm(a, axis=0)

    a37 = unit(3, 7)
    f37 = _write(tmp / "f37.json", a37)
    f39 = _write(tmp / "f39.json", unit(3, 9))
    sym = rng.standard_normal((6, 6))
    matrix = _write(tmp / "matrix.json", sym + sym.T)
    q, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    proj = _write(tmp / "proj.json", q @ q.T)
    q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
    parseval = _write(tmp / "parseval.json", q.T)
    q, _ = np.linalg.qr(rng.standard_normal((4, 3)))
    basis = _write(tmp / "basis.json", q)
    op = rng.standard_normal((3, 3))
    operator = _write(tmp / "operator.json", op / np.linalg.norm(op, 2))
    grid = str(tmp / "grid.json")
    span = _write(tmp / "span.json", rng.standard_normal((4, 3)))
    f315 = _write(tmp / "f315.json", unit(3, 15))
    # a37's first four vectors and its first again: no Cholesky certificate,
    # and the scan finds the flat {0, 1, 4} and a complement of two
    repeated = _write(tmp / "repeated.json", a37[:, [0, 1, 2, 3, 0]])
    pairs = tmp / "pairs.json"      # a37 in the [re, im] pair form
    pairs.write_text(canonical_json({
        "rows": 3, "cols": 7, "field": "real",
        "entries": [[x, 0.0] for x in a37.T.ravel().tolist()]}))
    return {
        "gen": ["gen", "--kind", "harmonic", "--n", "2", "--M", "4",
                "--out", str(tmp / "harmonic.json")],
        "gen-grid": ["gen", "--kind", "e1-grid", "--N", "360",
                     "--levels", "3", "--out", grid],
        "analyze": ["analyze", "--input", f37],
        "dilate": ["dilate", "--input", parseval],
        "dilate-operator": ["dilate", "--input", operator, "--mode",
                            "operator"],
        "pave": ["pave", "--input", matrix, "--r-max", "2",
                 "--epsilon", "0.7"],
        "pave-local": ["pave", "--input", matrix, "--r-max", "2",
                       "--epsilon", "0.7", "--mode", "local", "--seed", "3"],
        "pave-projection": ["pave", "--input", proj, "--form", "projection",
                            "--r-max", "2", "--epsilon", "0.2",
                            "--delta", "0.5"],
        "weaver": ["weaver", "--input", f37, "--bessel", "4",
                   "--epsilon", "0.5", "--r-max", "3"],
        "riesz": ["decompose", "--input", f37, "--criterion", "riesz",
                  "--epsilon", "0.95", "--r-max", "7"],
        "feichtinger": ["decompose", "--input", f37,
                        "--criterion", "feichtinger", "--a-target", "0.01",
                        "--r-max", "7"],
        "tp1": ["decompose", "--input", f39, "--criterion", "tp1",
                "--s", "2", "--delta", "0.9"],
        "ric": ["ric", "--input", f37, "--s", "2"],
        "radohorn": ["radohorn", "--input", f37, "--r", "3"],
        "radohorn-false": ["radohorn", "--input", f37, "--r", "2"],
        "subspace": ["subspace", "--input", basis, "--a", "0.05",
                     "--blocks", "0,1;2,3"],
        "toeplitz": ["toeplitz", "--input", grid, "--k-list", "2,3",
                     "--epsilon", "0.5", "--stride", "2", "--freq-max", "6"],
        "kadec": ["kadec", "--a", "1", "--b", "2", "--gamma", "3",
                  "--delta", "0.1", "--empirical", "--n-max", "3",
                  "--delta-max", "0.2", "--seed", "3", "--lam", "0.1",
                  "--mu", "0.1"],
        "mv-theta": ["mv-theta", "--freqs", "0,1.5,3.2",
                     "--coeffs", "1,0.5-0.2j,2", "--t-len", "2.0"],
        "erasure": ["erasure", "--input", parseval, "--k", "1"],
        "phase": ["phase", "--input", f37, "--trials", "20", "--seed", "1"],
        "phase-witness": ["phase", "--input", repeated],
        "gen-random-unit": ["gen", "--kind", "random-unit", "--n", "3",
                            "--M", "5", "--seed", "2", "--field", "complex",
                            "--out", str(tmp / "random-unit.json")],
        "gen-projection": ["gen", "--kind", "projection", "--M", "6",
                           "--n", "2", "--seed", "1",
                           "--out", str(tmp / "projection.json")],
        "gen-parseval": ["gen", "--kind", "harmonic", "--n", "2", "--M", "5",
                         "--parseval", "--out", str(tmp / "parseval-h.json")],
        "subspace-span": ["subspace", "--input", span, "--span",
                          "--a", "0.05", "--blocks", "0,1;2,3"],
        "analyze-pairs": ["analyze", "--input", str(pairs)],
        "riesz-15": ["decompose", "--input", f315, "--criterion", "riesz",
                     "--epsilon", "0.9", "--r-max", "15"],
    }


def make_reports(tmp):
    """{case: report path} of every case of commands(tmp)."""
    reports = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for case, argv in commands(tmp).items():
            rep = tmp / f"{case}.report.json"
            assert main(argv + ["--report", str(rep)]) == 0, case
            reports[case] = rep
    return reports
