"""End-to-end acceptance gate: twelve independent criteria, one line each.

Every criterion re-derives its expected answers from scratch (brute-force
enumeration, closed forms, or an independent formula) and checks the package
against them at fixed tolerances.  Run with -s to see the PASS/FAIL lines.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np

from oracles import mv_theta_by_quadrature
from pavekit import (
    Frame,
    GridFunction,
    dilate_operator,
    erasure_robustness,
    example_e1_set,
    gen_harmonic_frame,
    gen_random_unit_frame,
    gram_matrix,
    kadec_bounds,
    kadec_empirical_check,
    matrix_from_json,
    matrix_to_json,
    mixed_norm,
    montgomery_vaughan_theta,
    naimark_dilate,
    parseval_normalize,
    pave_matrix_check,
    rado_horn_check,
    restricted_isometry,
    tp1_partition,
    tt3_identity_check,
    uniform_feichtinger_criterion,
    uniform_paving_criterion,
    wkhb_partition,
)
from pavekit.cli import main as cli_main
from pavekit.reports import canonical_json, load_report, verify


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {name}: FAIL", flush=True)
        raise
    print(f"[criterion {num:02d}] {name}: PASS", flush=True)


def _dilation(original, dil):
    """The projection P = F* F and the embedding E = F* of the Parseval
    family F = [input | added_vectors] a dilation stores."""
    added = dil["added_vectors"]
    f = original if added is None else \
        np.hstack([original, matrix_from_json(added)])
    return f.conj().T @ f, f.conj().T


def test_criterion_01_projection_dilation():
    with criterion(1, "tight families dilate to coordinate projections"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        for trial in range(100):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(n, 17))
            field = "complex" if trial % 2 else "real"
            fr = parseval_normalize(
                gen_random_unit_frame(n, m, seed=trial, field=field))
            dil = naimark_dilate(fr)
            p, _ = _dilation(fr.synthesis, dil)
            assert np.max(np.abs(p - gram_matrix(fr))) <= 1e-12
            assert np.max(np.abs(p - p.conj().T)) <= 1e-10
            assert abs(np.trace(p).real - n) <= 1e-8
            assert np.linalg.norm(p @ p - p) <= 1e-9
            assert np.linalg.matrix_rank(p) == n
            ips = p.conj().T @ p          # entry (i, j) is <P e_i, P e_j>
            assert np.max(np.abs(ips - gram_matrix(fr))) <= 1e-9
        assert time.perf_counter() - start < 10.0


def test_criterion_02_operator_dilation():
    with criterion(2, "norm-one operators compress from 2n-1 dimensions"):
        rng = np.random.default_rng(202)
        for trial in range(100):
            n = 1 + trial % 8
            x = rng.standard_normal((n, n))
            if trial % 2:
                x = x + 1j * rng.standard_normal((n, n))
            t = x / np.linalg.norm(x, 2)
            dil = dilate_operator(t)
            assert dil["ambient_dim"] == 2 * n - 1
            p, emb = _dilation(t, dil)
            assert np.max(np.abs(p - p.conj().T)) <= 1e-10
            assert np.linalg.norm(p @ p - p) <= 1e-9
            assert abs(np.trace(p).real - n) <= 1e-8
            assert np.linalg.matrix_rank(p) == n
            for i in range(n):
                assert np.linalg.norm(p[:, i] - emb @ t[:, i]) <= 1e-9


def _min_paving_oracle(t0, r):
    """Minimum over all partitions into at most r blocks, enumerated as
    deduplicated labelings, with per-block norms cached by index set."""
    m = t0.shape[0]
    cache = {}

    def cost(key):
        if key not in cache:
            blk = sorted(key)
            cache[key] = np.linalg.norm(t0[np.ix_(blk, blk)], 2)
        return cache[key]

    best = math.inf
    seen = set()
    for labels in itertools.product(range(r), repeat=m):
        fam = frozenset(
            frozenset(i for i in range(m) if labels[i] == b)
            for b in range(r)) - {frozenset()}
        if fam in seen:
            continue
        seen.add(fam)
        best = min(best, max(cost(key) for key in fam))
    return best


def test_criterion_03_exhaustive_paving():
    with criterion(3, "exhaustive paving is exactly optimal"):
        rng = np.random.default_rng(303)
        for _ in range(50):
            a = rng.standard_normal((8, 8))
            a = a + a.T
            np.fill_diagonal(a, 0.0)
            rep = pave_matrix_check(a, r_max=3, epsilon=0.5,
                                    mode="exhaustive")
            assert rep["achieved"] == _min_paving_oracle(a, 3)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        rep = pave_matrix_check(swap, r_max=2, epsilon=0.5,
                                mode="exhaustive")
        assert rep["achieved"] == 0.0
        assert sorted(tuple(b) for b in rep["partition"]["blocks"]) == \
            [(0,), (1,)]


def test_criterion_04_mass_partition():
    with criterion(4, "row-mass partitions terminate with valid certificates"):
        rng = np.random.default_rng(404)
        for trial in range(30):
            a = np.abs(rng.standard_normal((30, 30)))
            a = 0.5 * (a + a.T)
            np.fill_diagonal(a, 0.0)
            row_tot = a.sum(axis=1)
            for r in (2, 3, 4):
                res = wkhb_partition(a, r, seed=trial)
                assert res["certified"]
                labels = res["labels"]
                onehot = np.zeros((30, r))
                onehot[np.arange(30), labels] = 1.0
                masses = a @ onehot
                in_mass = masses[np.arange(30), labels]
                assert np.all(in_mass <= masses.min(axis=1) + 1e-12)
                assert np.all(in_mass <= row_tot / r + 1e-12)
                # same inequalities from scalar sums, looser float slack
                for i in range(30):
                    mine = sum(a[i, j] for j in range(30)
                               if labels[j] == labels[i])
                    assert mine <= row_tot[i] / r + 1e-9


def test_criterion_05_sparse_block_decomposition():
    with criterion(5, "unions of two bases split into near-isometric blocks"):
        start = time.perf_counter()
        rng = np.random.default_rng(505)
        for trial in range(20):
            q1 = np.linalg.qr(rng.standard_normal((10, 10)))[0]
            q2 = np.linalg.qr(rng.standard_normal((10, 10)))[0]
            fr = Frame(np.hstack([q1, q2]))
            s_op = fr.synthesis @ fr.synthesis.conj().T
            assert np.linalg.eigvalsh(s_op)[-1] <= 4.0 + 1e-9
            rep = tp1_partition(fr, s=3, delta=0.6, seed=trial)
            assert rep["verdict"]
            for blk in rep["partition"]["blocks"]:
                if not blk:
                    continue
                d, _ = restricted_isometry(Frame(fr.synthesis[:, blk]),
                                           min(3, len(blk)))
                assert d <= 0.6 + 1e-9
        assert time.perf_counter() - start < 60.0


def test_criterion_06_spanning_partitions():
    with criterion(6, "character families split into independent spanning sets"):
        for n, k in ((2, 2), (3, 3), (4, 2)):
            fr = parseval_normalize(gen_harmonic_frame(n, n * k))
            ok, part, _ = rado_horn_check(fr, k)
            assert ok
            blocks = [blk for blk in part if blk]
            assert len(blocks) == k
            for blk in blocks:
                assert len(blk) == n
                assert np.linalg.matrix_rank(fr.synthesis[:, blk]) == n


def _trig_poly(rng, n, terms=6):
    freqs = rng.choice(np.arange(-(n // 2 - 1), n // 2), size=terms,
                       replace=False)
    coeffs = rng.standard_normal(terms) + 1j * rng.standard_normal(terms)
    x = np.arange(n) / n
    vals = np.zeros(n, dtype=np.complex128)
    for f, c in zip(freqs, coeffs):
        vals += c * np.exp(2j * np.pi * f * x)
    return GridFunction(vals)


def test_criterion_07_grid_identities_and_counterexample():
    with criterion(7, "translate identities hold; the thin set defeats both "
                      "uniform criteria"):
        rng = np.random.default_rng(707)
        for _ in range(50):
            g = _trig_poly(rng, 720)
            for k in (2, 3, 4, 6, 9):
                ok, _ = tt3_identity_check(g, k)
                assert ok
        e1, _book = example_e1_set(20160, 9, 0.5)
        for k in (2, 3, 4, 6, 9):
            ok_f, mn = uniform_feichtinger_criterion(e1, k, 0.25)
            assert not ok_f and mn == 0.0
            ok_p, dev = uniform_paving_criterion(e1, k, 0.5)
            assert not ok_p and dev >= 0.5


def test_criterion_08_perturbed_exponentials():
    with criterion(8, "quarter-threshold closed forms and empirical spectra"):
        for a in (1.0, 2.5):
            res = kadec_bounds(a, a, math.pi, 0.0)
            assert res["L"] == 0.25
            assert res["lower"] == a and res["upper"] == a
        for seed in range(50):
            assert kadec_empirical_check(32, 0.2, seed=seed)["passed"]


def test_criterion_09_frequency_separation():
    with criterion(9, "separation-scaled energy deviation stays within one"):
        rng = np.random.default_rng(909)
        for _ in range(100):
            m = int(rng.integers(2, 7))
            freqs = np.cumsum(rng.uniform(0.3, 2.0, size=m)) + rng.uniform(-5, 5)
            coeffs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            t_len = float(rng.uniform(1.0, 5.0))
            res = montgomery_vaughan_theta(freqs, coeffs, t_len)
            assert res["within_unit"]
            theta, err = mv_theta_by_quadrature(freqs, coeffs, t_len)
            assert abs(res["theta"] - theta) <= 4.0 * err + 1e-12


def test_criterion_10_mixed_norm_construction():
    with criterion(10, "flat averages of paired-coordinate vectors hit the "
                       "closed-form mixed norm"):
        root2 = math.sqrt(2.0)
        for n in (4, 16, 64):
            x = np.zeros(2 * n)
            for i in range(n):
                f = np.zeros(2 * n)
                f[2 * i] = f[2 * i + 1] = 1.0 / (root2 + 1.0)
                x += f / math.sqrt(n)
            want = (root2 + 1.0 / math.sqrt(n)) / (root2 + 1.0)
            assert abs(mixed_norm(x) - want) <= 1e-12


def test_criterion_11_erasure_minima():
    with criterion(11, "worst-case erasure minima match re-enumeration"):
        cases = [(2, 5, 1), (2, 6, 2), (3, 7, 1), (3, 9, 3),
                 (4, 8, 2), (4, 12, 3), (3, 6, 0)]
        for n, m, k in cases:
            fr = parseval_normalize(gen_harmonic_frame(n, m))
            rep = erasure_robustness(fr, k)
            t = fr.synthesis
            best = math.inf
            for erased in itertools.combinations(range(m), k):
                keep = [i for i in range(m) if i not in erased]
                s_op = t[:, keep] @ t[:, keep].conj().T
                lam = np.linalg.eigvalsh(0.5 * (s_op + s_op.conj().T))[0]
                best = min(best, float(lam))
            assert abs(rep["worst_value"] - best) <= 1e-9


def test_criterion_12_report_verification(tmp_path):
    with criterion(12, "reports verify clean and flag tampering"):
        frame = tmp_path / "frame.json"
        assert cli_main(["gen", "--kind", "harmonic", "--n", "2", "--M", "6",
                         "--out", str(frame)]) == 0
        pframe = tmp_path / "pframe.json"
        assert cli_main(["gen", "--kind", "harmonic", "--n", "2", "--M", "6",
                         "--parseval", "--out", str(pframe)]) == 0
        rframe = tmp_path / "rframe.json"
        assert cli_main(["gen", "--kind", "random-unit", "--n", "3", "--M", "7",
                         "--seed", "5", "--out", str(rframe)]) == 0
        grid = tmp_path / "grid.json"
        assert cli_main(["gen", "--kind", "e1-grid", "--N", "360",
                         "--levels", "3", "--out", str(grid)]) == 0
        mat = tmp_path / "swap.json"
        mat.write_text(canonical_json(
            matrix_to_json(np.array([[0.0, 1.0], [1.0, 0.0]]))))

        runs = [
            ("analyze", ["analyze", "--input", str(pframe)]),
            ("dilate", ["dilate", "--input", str(pframe), "--mode", "naimark"]),
            ("pave", ["pave", "--input", str(mat), "--r-max", "2",
                      "--epsilon", "0.5"]),
            ("weaver", ["weaver", "--input", str(frame), "--bessel", "3.0",
                        "--epsilon", "0.4", "--r-max", "3"]),
            ("riesz", ["decompose", "--input", str(frame),
                       "--criterion", "riesz", "--epsilon", "0.95",
                       "--r-max", "4"]),
            ("ric", ["ric", "--input", str(frame), "--s", "2"]),
            ("radohorn", ["radohorn", "--input", str(frame), "--r", "3",
                          "--partition"]),
            ("toeplitz", ["toeplitz", "--input", str(grid), "--k-list", "2,3",
                          "--epsilon", "0.5", "--stride", "2",
                          "--freq-max", "6"]),
            ("kadec", ["kadec", "--a", "1", "--b", "1",
                       "--gamma", str(math.pi), "--delta", "0.1",
                       "--empirical", "--n-max", "6", "--delta-max", "0.2",
                       "--seed", "3"]),
            ("mv", ["mv-theta", "--freqs", "0,1.5,3.2",
                    "--coeffs", "1,0.5-0.2j,2", "--t-len", "2.0"]),
            ("erasure", ["erasure", "--input", str(pframe), "--k", "1"]),
            ("phase", ["phase", "--input", str(rframe), "--trials", "500",
                       "--seed", "1"]),
        ]
        reports = {}
        for name, argv in runs:
            rep = tmp_path / f"report-{name}.json"
            assert cli_main(argv + ["--report", str(rep)]) == 0, name
            reports[name] = rep
        for name, rep in reports.items():
            ok, reasons = verify(str(rep))
            assert ok, (name, reasons)
        # the swap matrix paves to 0.0 by singletons; a merged block costs 1.0
        doc = load_report(str(reports["pave"]))
        doc["payload"]["results"]["partition"]["blocks"] = [[0, 1]]
        ok, reasons = verify(doc)
        assert not ok and reasons
