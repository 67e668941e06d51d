import itertools
import warnings

import numpy as np
import pytest

from frame_cases import oracle_frames
from oracles import phase_by_side_ranks
from pavekit import core, erasures
from pavekit.core import (
    RANK_TOL,
    BudgetExceeded,
    ContractViolation,
    Frame,
    gen_harmonic_frame,
    gen_random_unit_frame,
    numeric_rank,
    subset_ranks,
)
from pavekit.erasures import erasure_robustness, phase_retrieval_check
from pavekit.frames import parseval_normalize


def _slow_worst(fr, k):
    worst = np.inf
    for erased in itertools.combinations(range(fr.M), k):
        keep = [i for i in range(fr.M) if i not in erased]
        t = fr.synthesis[:, keep]
        w = np.linalg.eigvalsh(t @ t.conj().T)
        worst = min(worst, max(float(w[0]), 0.0))
    return worst


def test_erasure_matches_slow_oracle():
    for n, m in [(2, 5), (3, 6)]:
        fr = gen_random_unit_frame(n, m, 1)
        for k in (0, 1, 2):
            rep = erasure_robustness(fr, k)
            assert abs(rep["worst_value"] - _slow_worst(fr, k)) < 1e-12
            assert rep["subsets_scanned"] == len(
                list(itertools.combinations(range(m), k)))
            assert rep["value_min"] <= rep["value_max"] + 1e-15


def test_erasure_parseval_identity_runs():
    fr = parseval_normalize(gen_harmonic_frame(3, 6))
    rep = erasure_robustness(fr, 2)
    assert rep["is_parseval"]
    # complementarity, re-derived here for the worst witness
    sub = rep["worst_subset"]
    g = fr.synthesis.conj().T @ fr.synthesis
    w = np.linalg.eigvalsh(g[np.ix_(sub, sub)])
    assert abs((1.0 - w[-1]) - rep["worst_value"]) < 1e-9


def test_erasure_k_zero_and_validation():
    fr = gen_random_unit_frame(2, 4, 0)
    rep = erasure_robustness(fr, 0)
    assert rep["worst_value"] == rep["value_min"] == rep["value_max"]
    with pytest.raises(ContractViolation):
        erasure_robustness(fr, 4)


def test_phase_retrieval_positive():
    # generic 3 vectors in the plane: every bipartition leaves a spanning side
    fr = gen_random_unit_frame(2, 3, 4)
    rep = phase_retrieval_check(fr)
    assert rep == {"verdict": True, "witness": None}
    _, solvable, failures = _trials_oracle(fr.synthesis, 300, 0)
    assert solvable >= 2      # the two uniform patterns always solve
    assert failures == 0


def test_phase_retrieval_negative_witness():
    fr = Frame(np.eye(2))
    rep = phase_retrieval_check(fr)
    assert not rep["verdict"]
    assert rep["witness"] == {"side": [0], "complement": [1]}


def _bipartition_oracle(t):
    """First bipartition, index 0 on side, with neither side spanning."""
    n, m = t.shape
    for size in range(m):
        for extra in itertools.combinations(range(1, m), size):
            side = [0, *extra]
            comp = [i for i in range(m) if i not in side]
            if numeric_rank(t[:, side]) < n and \
                    (not comp or numeric_rank(t[:, comp]) < n):
                return side, comp
    return None


def test_phase_retrieval_matches_bipartition_oracle():
    verdicts = set()
    for fr in oracle_frames(0, 60):
        rep = phase_retrieval_check(fr)
        t, n = fr.synthesis, fr.n
        assert rep["verdict"] == (_bipartition_oracle(t) is None), t
        verdicts.add(rep["verdict"])
        if not rep["verdict"]:
            side, comp = rep["witness"]["side"], rep["witness"]["complement"]
            assert 0 in side and sorted(side + comp) == list(range(fr.M))
            assert numeric_rank(t[:, side]) < n
            assert not comp or numeric_rank(t[:, comp]) < n
    assert verdicts == {True, False}


def test_phase_retrieval_contracts():
    with pytest.raises(ContractViolation):
        phase_retrieval_check(gen_random_unit_frame(2, 4, 0, field="complex"))
    # C(60, 7) candidate hyperplanes are past the subset budget
    with pytest.raises(BudgetExceeded):
        phase_retrieval_check(gen_random_unit_frame(8, 60, 0))
    assert phase_retrieval_check(gen_random_unit_frame(2, 23, 0))["verdict"]


def test_phase_retrieval_rank_deficient():
    fr = Frame(np.array([[1.0, 0.5], [0.0, 0.0]]))
    rep = phase_retrieval_check(fr)
    assert not rep["verdict"]
    assert rep["witness"]["side"] == [0, 1]


# ---------------------------------------------------------------------------
# the per-subset scan the stacked phase route replaced, and the randomized
# recovery trials phase once ran after it, kept as oracles
# ---------------------------------------------------------------------------

def _complement_witness_oracle(t):
    n, m = t.shape
    seen = set()
    for s in itertools.combinations(range(m), n - 1):
        s = list(s)
        if s and numeric_rank(t[:, s]) != n - 1:
            continue
        stacks = np.empty((m, n, n))
        stacks[:, :, :n - 1] = t[:, s]
        stacks[:, :, n - 1] = t.T
        sv = np.linalg.svd(stacks, compute_uv=False)
        ranks = np.sum(sv > RANK_TOL * sv[:, :1] * n, axis=1)
        flat = tuple(np.flatnonzero(ranks == n - 1).tolist())
        if flat in seen:
            continue
        seen.add(flat)
        inside = set(flat)
        rest = [i for i in range(m) if i not in inside]
        side, comp = (list(flat), rest) if 0 in inside else (rest, list(flat))
        if numeric_rank(t[:, side]) < n and \
                (not comp or numeric_rank(t[:, comp]) < n):
            return {"side": side, "complement": comp}
    return None


def _trials_oracle(t, trials, seed):
    n, m = t.shape
    rng = np.random.default_rng(seed)
    analysis = t.T
    solvable = failures = 0
    for trial in range(trials):
        f = rng.standard_normal(n)
        c = analysis @ f
        if trial == 0:
            signs = np.ones(m)
        elif trial == 1:
            signs = -np.ones(m)
        else:
            signs = rng.choice([-1.0, 1.0], size=m)
        target = signs * c
        gvec, *_ = np.linalg.lstsq(analysis, target, rcond=None)
        resid = float(np.abs(analysis @ gvec - target).max())
        if resid > 1e-9 * max(1.0, float(np.abs(c).max())):
            continue
        solvable += 1
        gap = min(float(np.linalg.norm(gvec - f)),
                  float(np.linalg.norm(gvec + f)))
        if gap > 1e-6 * (1.0 + float(np.linalg.norm(f))):
            failures += 1
    return trials, solvable, failures


def _phase_oracle(fr):
    t = fr.synthesis
    witness = {"side": list(range(fr.M)), "complement": []} \
        if numeric_rank(t) < fr.n else _complement_witness_oracle(t)
    return {"verdict": witness is None, "witness": witness}


def _assert_trials_recover(t):
    """Every solvable sign pattern of 37 random inputs, at seeds 0 to 4,
    recovers its input up to a global sign; the number solved."""
    solved = 0
    for seed in range(5):
        _, solvable, failures = _trials_oracle(t, 37, seed)
        assert failures == 0, (t, seed)
        solved += solvable
    return solved


def _sign_blind_frames():
    yield from oracle_frames(0, 60)
    yield gen_random_unit_frame(4, 13, 5)       # the benchmark's shape
    yield Frame(np.tile(np.eye(3), 2))          # each side spans too little
    yield Frame(np.ones((1, 3)))                # n = 1, no zero column


def test_phase_does_not_depend_on_scale():
    """Scaled near 1e200, the Cholesky certificate scales the family back
    by a power of two before its Gram products, and where it refuses, the
    flat tests overflow their norms and bounds and fall to subset_ranks;
    so phase gives the unscaled answer, and numpy warns of nothing."""
    verdicts = set()
    for fr in itertools.chain(oracle_frames(7, 60),
                              [gen_random_unit_frame(4, 13, 5)]):
        want = phase_retrieval_check(fr)
        for scale in (1e200, 2.0 ** 600):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = phase_retrieval_check(Frame(scale * fr.synthesis))
            assert got == want, (scale, fr.synthesis)
        verdicts.add(want["verdict"])
    assert verdicts == {True, False}


def test_phase_matches_per_subset_and_per_trial_oracle():
    verdicts, solved = set(), 0
    for fr in _sign_blind_frames():
        rep = phase_retrieval_check(fr)
        assert rep == _phase_oracle(fr), fr.synthesis
        verdicts.add(rep["verdict"])
        if rep["verdict"]:
            solved += _assert_trials_recover(fr.synthesis)
    assert verdicts == {True, False} and solved > 0


def _near_cutoff_families():
    """Families near the rank cutoff.  First, n - 1 vectors with singular
    values 1 to 1e-3 beside their top singular vector, scaled so that the
    cutoff RANK_TOL * n * sigma_max of [S, f] is d * 1e-3 for d in (0.25,
    0.5, 2, 4): in span S, but of rank n - 2 once d > 1.  Then vectors
    c * RANK_TOL * n * sigma_max off the hyperplane of the first n - 1
    vectors for c in (0.5, 1, 2, 4), beside a repeated and a scaled copy
    of those.  Every other family adds two generic vectors."""
    rng = np.random.default_rng(11)
    for n in (3, 4):
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        v = np.linalg.qr(rng.standard_normal((n - 1, n - 1)))[0]
        s = q[:, :n - 1] * np.geomspace(1.0, 1e-3, n - 1) @ v
        scales = 1e-3 * np.array([0.25, 0.5, 2.0, 4.0]) / (RANK_TOL * n)
        for extra in (0, 2):
            yield np.hstack([s, np.outer(q[:, 0], scales),
                             rng.standard_normal((n, extra))])
    for n in (2, 3, 4):
        for scale in (1.0, 1e-3, 1e3):
            for extra in (0, 2):
                s = scale * rng.standard_normal((n, n - 1))
                nu = np.linalg.svd(s)[0][:, -1]
                cols = [s, s[:, :1], 3.0 * s[:, -1:]]
                for c in (0.5, 1.0, 2.0, 4.0):
                    g = s @ rng.standard_normal(n - 1)
                    top = np.linalg.svd(np.column_stack([s, g]),
                                        compute_uv=False)[0]
                    cols.append((g + c * RANK_TOL * n * top * nu)[:, None])
                cols.append(scale * rng.standard_normal((n, extra)))
                yield np.hstack(cols)


def _witness_and_band(monkeypatch, t):
    """_complement_witness(t) and the counts of flat tests and of S that
    hyperplane_flats handed to subset_ranks (the sides whose basis
    certificate falls short reach subset_ranks too, and are not counted)."""
    n, band = t.shape[0], []

    def counted(t, subsets):
        subsets = [tuple(s) for s in subsets]
        assert all(len(s) in (n - 1, n) for s in subsets)
        band.extend(subsets)
        return subset_ranks(t, subsets)

    def flats(t, subsets):
        with monkeypatch.context() as patch:
            patch.setattr(core, "subset_ranks", counted)
            return core.hyperplane_flats(t, subsets)

    with monkeypatch.context() as patch:
        patch.setattr(erasures, "hyperplane_flats", flats)
        witness = erasures._complement_witness(t)
    sizes = [len(s) for s in band]
    return witness, sizes.count(n), sizes.count(n - 1)


def _flats_oracle(t):
    """The (n - 1)-subsets S of t, whether each has rank n - 1, and the
    flat rows of those that do, all from subset_ranks."""
    n, m = t.shape
    subsets = list(itertools.combinations(range(m), n - 1))
    good = [s for s, r in zip(subsets, subset_ranks(t, subsets))
            if r == n - 1]
    rows = subset_ranks(t, [(*s, i) for s in good for i in range(m)]) \
        .reshape(len(good), m) == n - 1
    return subsets, [s in good for s in subsets], rows


def _assert_flats(t):
    subsets, good, rows = _flats_oracle(t)
    got_good, got_rows = core.hyperplane_flats(t, subsets)
    assert got_good.tolist() == good, t
    assert np.array_equal(got_rows, rows), t


def test_hyperplane_flats_match_subset_ranks_near_the_cutoff(monkeypatch):
    witnesses = 0
    for t in _near_cutoff_families():
        _assert_flats(t)
        witness, band, _ = _witness_and_band(monkeypatch, t)
        assert witness == _complement_witness_oracle(t), t
        assert band > 0, t
        witnesses += witness is not None
    assert 0 < witnesses < 22


def test_hyperplane_flats_on_oracle_frames_and_the_deck_frame(monkeypatch):
    t = gen_random_unit_frame(4, 13, 5).synthesis
    assert _witness_and_band(monkeypatch, t) == (None, 0, 0)
    for fr in oracle_frames(2, 40):
        _assert_flats(fr.synthesis)


def _rank_band_families():
    """Families with an (n - 1)-subset S of orthogonal columns of length
    1 and RANK_TOL * n * (1 -+ 1e-3): sigma_(n-1)(S) sits just under and
    just over S's cutoff RANK_TOL * n * sigma_max, as in
    test_block_spectra's near-cutoff columns.  The first n - 2 basis
    columns, the small one, the last basis column and generic vectors."""
    rng = np.random.default_rng(17)
    for n in (3, 4):
        base = np.linalg.qr(rng.standard_normal((n, n)))[0]
        for off in (1 - 1e-3, 1 + 1e-3):
            for extra in (0, 1, 3):
                yield np.column_stack(
                    [base[:, :n - 2], RANK_TOL * n * off * base[:, n - 2],
                     base[:, n - 1:], rng.standard_normal((n, extra))])


def test_phase_rank_band_matches_the_oracle(monkeypatch):
    verdicts, ranks = set(), set()
    for t in _rank_band_families():
        n = t.shape[0]
        s = tuple(range(n - 1))
        ranks.add(n - 1 - int(subset_ranks(t, [s])[0]))
        _assert_flats(t)
        _, _, rank_band = _witness_and_band(monkeypatch, t)
        assert rank_band > 0, t
        rep = phase_retrieval_check(Frame(t))
        assert rep == _phase_oracle(Frame(t)), t
        verdicts.add(rep["verdict"])
        if rep["verdict"]:
            _assert_trials_recover(t)
    assert ranks == {0, 1} and verdicts == {True, False}


def _tiny_families():
    """Frames whose entries' squares underflow: 2 x 5, 3 x 5, 3 x 7 and
    4 x 8 frames whose third vector is the sum of the first two plus 1e-13
    of a generic one, as they are and with the last vector shrunk by
    2^-300, each scaled by 2^-560, 2^-1000 and 2^-1060 (entries
    subnormal)."""
    rng = np.random.default_rng(560)
    for n, m in ((2, 5), (3, 5), (3, 7), (4, 8)):
        t = rng.standard_normal((n, m))
        t[:, 2] = t[:, 0] + t[:, 1] + 1e-13 * rng.standard_normal(n)
        for last in (1.0, 2.0 ** -300):
            t[:, -1] *= last
            for scale in (2.0 ** -560, 2.0 ** -1000, 2.0 ** -1060):
                yield t * scale


def test_tiny_frames_keep_subset_ranks_answers():
    """A norm taken from underflowing squares reads 0 and would certify a
    near-degenerate basis or misplace a flat test; the flats and the
    complement witness still match subset_ranks."""
    witnesses = 0
    for t in _tiny_families():
        _assert_flats(t)
        witness = erasures._complement_witness(t)
        assert witness == _complement_witness_oracle(t), t
        witnesses += witness is not None
    assert witnesses >= 3


# ---------------------------------------------------------------------------
# the Cholesky certificate phase tries before the flat scan
# ---------------------------------------------------------------------------

def _certificate_frames():
    """Real families for the certificate: generic unit ones, the real parts
    of harmonic ones (repeated and antipodal columns among them), ones
    with a repeated vector, rank-deficient ones, and near-cut ones, whose
    third vector lies 10^-9 to 10^-5 off the plane of the first two, so
    that one basis's sigma_n sits on either side of the certificate's
    threshold; M from 2n - 1 up, and one below."""
    rng = np.random.default_rng(33)
    for n, m in ((1, 3), (2, 3), (2, 9), (3, 5), (3, 8), (4, 7), (4, 13),
                 (5, 9), (3, 4)):
        unit = gen_random_unit_frame(n, m, 10 * n + m).synthesis
        yield unit
        yield np.real(gen_harmonic_frame(n, m).synthesis)
        yield unit[:, [*range(m - 1), 0]]
        if n > 1:
            yield rng.standard_normal((n, n - 1)) @ \
                rng.standard_normal((n - 1, m))
        if n > 2:
            nu = np.linalg.svd(unit[:, :2])[0][:, -1]
            for off in (1e-9, 1e-8, 1e-7, 1e-6, 1e-5):
                near = unit.copy()
                near[:, 2] = 0.6 * unit[:, 0] - 0.8 * unit[:, 1] + off * nu
                yield near


def test_certificate_route_matches_the_side_rank_scan(monkeypatch):
    """phase, which tries core.every_basis_clears before the flat scan,
    gives tests/oracles.py's scan of side ranks the same results on every
    family above at scales 1 and 2^+-500, and on the 3 x 5 frame at 2^-560
    whose near-degenerate basis a norm of 0 would certify; the certificate
    decides some families and refuses others, numpy warns of nothing."""
    decided = []

    def recorded(t, cut):
        decided.append(core.every_basis_clears(t, cut))
        return decided[-1]

    monkeypatch.setattr(erasures, "every_basis_clears", recorded)
    rng = np.random.default_rng(560)
    near = rng.standard_normal((3, 5))
    near[:, 2] = near[:, 0] + near[:, 1] + 1e-13 * rng.standard_normal(3)
    cases = [scale * t for t in _certificate_frames()
             for scale in (1.0, 2.0 ** 500, 2.0 ** -500)]
    for t in cases + [near * 2.0 ** -560]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = phase_retrieval_check(Frame(t))
        assert got == phase_by_side_ranks(Frame(t)), t
    assert set(decided) == {True, False}
    assert decided[-1] is False
    assert sum(decided) >= 3 * 15


def _least_basis_sigma(t):
    n, m = t.shape
    bases = np.array(list(itertools.combinations(range(m), n)))
    return np.linalg.svd(t[:, bases].transpose(1, 0, 2),
                         compute_uv=False)[:, -1].min()


@pytest.mark.parametrize("cap", [None, 200])
def test_every_basis_clears_holds_to_the_least_sigma(monkeypatch, cap):
    """Against one svd per basis: a cut 0.1% under the least sigma_n of
    every n-column basis is certified, and one 0.1% over it never is, in
    one stack or in stacks of a few bases, at scales 1 and 2^+-500."""
    if cap is not None:
        monkeypatch.setattr(core, "BLOCK_STACK_BYTES", cap)
    for n, m in ((1, 4), (2, 6), (3, 7), (4, 9), (5, 8)):
        t = gen_random_unit_frame(n, m, n + m).synthesis
        least = _least_basis_sigma(t)
        assert least > 1e-3
        for scale in (1.0, 2.0 ** 500, 2.0 ** -500):
            assert core.every_basis_clears(scale * t,
                                           scale * least * (1 - 1e-3))
            assert not core.every_basis_clears(scale * t,
                                               scale * least * (1 + 1e-3))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_every_basis_clears_covers_the_rounding_of_its_proof(n):
    """An n x n basis whose Gram matrix diag(1, ..., 1, L) is exact, and
    which a Cholesky factorization shifted by s decides exactly by L > s:
    the certificate refuses it where L - c^2 stays under 0.9 of the
    rounding its proof covers, Higham's gamma_n for the Gram products and
    Rump's gamma_(n+1) / (1 - gamma_(n+1)) for the factorization, each
    times n - 1, the trace less L, and takes it at 4 times that."""
    u = np.finfo(float).eps / 2

    def gamma(k):
        return k * u / (1 - k * u)

    cut = 1e-9
    for share, want in ((0.9, False), (4.0, True)):
        trace = n - 1.0
        lam = cut ** 2 + share * (gamma(n) + gamma(n + 1) /
                                  (1 - gamma(n + 1))) * trace
        t = np.diag([1.0] * (n - 1) + [np.sqrt(lam)])
        assert core.every_basis_clears(t, cut) is want, share
