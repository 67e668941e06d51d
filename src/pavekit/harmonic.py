"""Periodic grid functions: translate averages, frequency components,
Toeplitz sections, and perturbation bounds for exponential systems.

Functions on the circle are sampled on a uniform N-point grid and every
translate is by a fraction k/K with K dividing N, so all operations stay
exact on the grid (no interpolation anywhere).  The K-fold translate
average of |g|^2 splits exactly into the squared moduli of the K frequency
components of g (residues mod K); that identity is the keystone the tests
lean on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    QUADRATURE_BUDGET,
    BudgetExceeded,
    ContractViolation,
    _complex_to_pairs,
    _pairs_to_complex,
    check_entries,
    within,
)

TT3_REL_TOL = 1e-10     # slack of tt3_identity_check, times 1 + sup|g|^2
KADEC_MARGIN = 0.05     # how far lambda_min may fall below the Kadec bound

__all__ = [
    "GridFunction", "grid_indicator", "translate_average", "gk_component",
    "tt3_identity_check", "uniform_paving_criterion",
    "uniform_feichtinger_criterion", "example_e1_set", "toeplitz_section",
    "ap_blocks", "distribution_check", "montgomery_vaughan_theta",
    "kadec_bounds", "christensen_bounds", "kadec_empirical_check",
]


@dataclass
class GridFunction:
    """Samples g(j / N) for j = 0..N-1 of a 1-periodic function."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 1 or v.size < 1:
            raise ContractViolation("grid function needs a 1-d sample vector")
        if not np.all(np.isfinite(v)):
            raise ContractViolation("grid samples must be finite")
        self.values = v.astype(np.complex128, copy=False) \
            if np.iscomplexobj(v) else v.astype(np.float64, copy=False)

    @property
    def N(self):
        return self.values.size

    def norm_sq_mean(self):
        """Mean of |g|^2 over the grid: the squared L2([0,1]) norm."""
        return float(np.mean(np.abs(self.values) ** 2))

    def sup_sq(self):
        return float(np.abs(self.values).max() ** 2)

    def to_json(self):
        return {"N": int(self.N), "values": _complex_to_pairs(self.values)}

    @classmethod
    def from_json(cls, d):
        try:
            n = d["N"]
            vals = d["values"]
        except (KeyError, TypeError) as exc:
            raise ContractViolation(f"malformed grid JSON: {exc}")
        if type(n) is not int:
            raise ContractViolation(f"malformed grid JSON: N {n!r} must be "
                                    "an integer")
        v = _pairs_to_complex(vals, n, "grid")
        if not np.any(v.imag):
            v = v.real
        return cls(v)


def grid_indicator(n, mask):
    """Indicator grid function from a boolean mask of length n."""
    m = np.asarray(mask, dtype=bool)
    if m.shape != (n,):
        raise ContractViolation("mask length must equal the grid size")
    return GridFunction(m.astype(np.float64))


def _orbits(g, k):
    """(K, N/K) view of the samples whose columns are the translate orbits:
    column c holds g(c + u N/K) for u = 0..K-1."""
    if k < 1 or g.N % k != 0:
        raise ContractViolation(f"translate modulus {k} must divide N = {g.N}")
    return g.values.reshape(k, -1)


def translate_average(g, k):
    """(1/K) sum_j |g(t - j/K)|^2, a real grid function: the mean of |g|^2
    over the orbit of t."""
    orbit_mean = (np.abs(_orbits(g, k)) ** 2).mean(axis=0)
    return GridFunction(np.tile(orbit_mean, k))


def gk_component(g, k, res):
    """Frequency component of g for residue res mod K, via translates:
    (1/K) sum_j g(t - j/K) exp(2 pi i j res / K).  On row u of the orbit
    view that is exp(2 pi i u res / K) times the orbits' K-point DFT at
    res, over K."""
    orbits = _orbits(g, k)
    if not (0 <= res < k):
        raise ContractViolation("residue must lie in 0..K-1")
    spec = np.fft.fft(orbits, axis=0)[res] / k
    phase = np.exp(2j * np.pi * np.arange(k) * res / k)
    return GridFunction(np.outer(phase, spec).reshape(-1))


def tt3_identity_check(g, k, avg=None):
    """sum_res |g_res|^2 == translate_average(g, K) exactly on the grid.

    Each component's phase has modulus one, so the sum is the squared
    moduli of the orbits' DFT summed over residues, over K^2, and constant
    along each orbit.  Returns (ok, residual); the slack is
    TT3_REL_TOL * (1 + sup|g|^2).  avg, when given, is
    translate_average(g, K), computed once for every check of one K.
    """
    if avg is None:
        avg = translate_average(g, k)
    spec = np.fft.fft(_orbits(g, k), axis=0)
    acc = (np.abs(spec) ** 2).sum(axis=0) / k ** 2
    resid = float(np.abs(avg.values.reshape(k, -1) - acc).max())
    return resid <= TT3_REL_TOL * (1.0 + g.sup_sq()), resid


def uniform_paving_criterion(g, k, epsilon, avg=None):
    """(ok, deviation): translate average within epsilon of the mean of
    |g|^2; avg as in tt3_identity_check."""
    if epsilon <= 0.0:
        raise ContractViolation("epsilon must be positive")
    if avg is None:
        avg = translate_average(g, k)
    dev = float(np.abs(avg.values - g.norm_sq_mean()).max())
    return dev < epsilon, dev


def uniform_feichtinger_criterion(g, k, epsilon, avg=None):
    """(ok, minimum): translate average bounded below by epsilon; avg as in
    tt3_identity_check."""
    if epsilon <= 0.0:
        raise ContractViolation("epsilon must be positive")
    if avg is None:
        avg = translate_average(g, k)
    mn = float(avg.values.min())
    return mn >= epsilon, mn


def example_e1_set(n, levels, c=0.5):
    """Build the union-of-translated-pieces set whose complement indicator
    defeats both uniform criteria at every constructed modulus.

    Level m contributes a piece F_m of measure a_m = c / (m 2^m) inside
    [0, 1/m) together with all its translates by multiples of 1/m; the
    translate average of the complement indicator then vanishes somewhere
    for every modulus up to `levels`, while the mean stays at 1 - |E| >= 1/2
    for c <= 1/2.  Pieces are placed greedily on the grid so that all
    translated copies stay disjoint (high levels first, level one takes
    leftovers), which keeps the measure bookkeeping exact.

    Returns (indicator of the complement, bookkeeping dict).
    """
    if levels < 1:
        raise ContractViolation("need at least one level")
    if levels > int(n).bit_length():    # 2^levels > 2N: the top piece is empty
        raise ContractViolation(
            f"--levels {levels} is more than a grid of {n} points can "
            f"carve, at most {int(n).bit_length()}")
    if not (0.0 < c <= 0.5):
        raise ContractViolation("c must lie in (0, 1/2] for the mean bound")
    check_entries(n, "a grid")
    lcm = math.lcm(*range(1, levels + 1))
    if n % lcm != 0:
        raise ContractViolation(f"grid size must be divisible by {lcm}")
    used = np.zeros(n, dtype=bool)
    cells = {}
    starts = {}
    for m in range(levels, 0, -1):
        want = round(c * n / (m * 2 ** m))
        if want < 1:
            raise ContractViolation(
                f"grid too small to carve a level-{m} piece; increase N")
        # column j of the view is the orbit of j under translates by 1/m
        orbits = used.reshape(m, -1)
        free = np.flatnonzero(~orbits.any(axis=0))[:want]
        if free.size < want:
            raise ContractViolation(
                "no room left for the base level" if m == 1 else
                f"could not place level {m} disjointly; lower c or levels")
        orbits[:, free] = True
        cells[m] = want
        starts[m] = free.tolist()
    measure_e = float(used.mean())
    book = {
        "N": int(n), "levels": int(levels), "c": float(c),
        "cells_per_level": {int(m): int(cells[m]) for m in cells},
        "piece_measure": {int(m): cells[m] / n for m in cells},
        "target_piece_measure": {m: c / (m * 2 ** m)
                                 for m in range(1, levels + 1)},
        "level_starts": {int(m): starts[m] for m in starts},
        "measure_set": measure_e,
        "measure_complement": 1.0 - measure_e,
        "sum_weighted": float(sum(m * cells[m] for m in cells) / n),
    }
    # disjoint placement makes the union measure exactly the weighted sum
    if abs(book["sum_weighted"] - measure_e) > 1e-12:
        raise ContractViolation("union measure bookkeeping is inconsistent")
    return grid_indicator(n, ~used), book


# ---------------------------------------------------------------------------
# Toeplitz sections of a symbol
# ---------------------------------------------------------------------------

def _check_freqs(g, freqs):
    f = [int(x) for x in freqs]
    if len(f) == 0:
        raise ContractViolation("need at least one frequency")
    if len(set(f)) != len(f):
        raise ContractViolation("frequencies must be distinct")
    if max(abs(x) for x in f) > g.N // 2 - 1:
        raise ContractViolation("frequencies must stay below the alias bound")
    return f


def toeplitz_section(g, freqs, coeffs=None):
    """Matrix of the multiplication-by-g operator compressed onto the given
    exponential frequencies: entry (a, b) = (1/N) sum_j g(j)
    exp(+2 pi i (freqs[a] - freqs[b]) j / N), the inverse DFT of the
    samples at freqs[a] - freqs[b] mod N.  Diagonal = mean of g.  coeffs,
    when given, is that inverse DFT, np.fft.ifft(g.values), taken once for
    every section of one symbol."""
    f = _check_freqs(g, freqs)
    if np.iscomplexobj(g.values) and np.abs(g.values.imag).max() > 0.0:
        raise ContractViolation("section symbol must be real-valued")
    if coeffs is None:
        coeffs = np.fft.ifft(g.values)
    out = coeffs[np.subtract.outer(f, f) % g.N]
    return 0.5 * (out + out.conj().T)


def ap_blocks(freqs, stride):
    """Partition frequencies into arithmetic-progression blocks by residue."""
    if stride < 1:
        raise ContractViolation("stride must be at least one")
    blocks = {}
    for x in freqs:
        blocks.setdefault(int(x) % stride, []).append(int(x))
    return [sorted(b) for _, b in sorted(blocks.items())]


def distribution_check(g, freq_blocks, epsilon):
    """Check that every block section has spectrum within a relative epsilon
    of the mean of g.  Returns a report dict with per-block extremes."""
    if not freq_blocks:
        raise ContractViolation("need at least one frequency")
    if epsilon <= 0.0:
        raise ContractViolation("epsilon must be positive")
    mean = float(np.real(np.mean(g.values)))
    if mean <= 0.0:
        raise ContractViolation("symbol must have positive mean")
    coeffs = np.fft.ifft(g.values)
    per = []
    ok = True
    for blk in freq_blocks:
        sec = toeplitz_section(g, blk, coeffs)
        w = np.linalg.eigvalsh(sec)
        lo, hi = float(w[0]), float(w[-1])
        inside = within((1.0 - epsilon) * mean, lo) and \
            within(hi, (1.0 + epsilon) * mean)
        ok = ok and inside
        per.append({"freqs": [int(x) for x in blk], "min": lo, "max": hi,
                    "inside": bool(inside)})
    return {"verdict": ok, "mean": mean, "epsilon": float(epsilon),
            "blocks": per}


# ---------------------------------------------------------------------------
# exponential sums on an interval
# ---------------------------------------------------------------------------

def _simpson(vals, h):
    return h / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum()
                      + 2.0 * vals[2:-1:2].sum())


def montgomery_vaughan_theta(freqs, coeffs, t_len, quad_n=None):
    """theta = delta * (I / sum|a|^2 - T) for I the energy of the exponential
    sum over [0, T] and delta the minimum frequency separation.

    The integral uses composite Simpson at quad_n panels with a doubled-
    resolution Richardson check; the report carries the quadrature error
    estimate mapped into theta units.  A single frequency short-circuits to
    theta = 0 (the integrand is constant).
    """
    lam = np.asarray(freqs, dtype=float).reshape(-1)
    a = np.asarray(coeffs, dtype=complex).reshape(-1)
    if lam.size != a.size or lam.size == 0:
        raise ContractViolation("frequencies and coefficients must pair up")
    if not np.all(np.isfinite(lam)) or not np.all(np.isfinite(a)):
        raise ContractViolation("inputs must be finite")
    if not t_len > 0.0:
        raise ContractViolation("interval length must be positive")
    energy = float(np.sum(np.abs(a) ** 2))
    if energy == 0.0:
        raise ContractViolation("coefficients must not all vanish")
    if lam.size == 1:
        return {"theta": 0.0, "integral": t_len * energy, "separation": None,
                "quad_n": 0, "quad_error_theta": 0.0, "within_unit": True}
    sep = float(np.diff(np.sort(lam)).min())
    if sep <= 0.0:
        raise ContractViolation("frequencies must be distinct")
    need = 64.0 * t_len * float(np.abs(lam).max())
    # the finer Simpson run evaluates every frequency at 2n + 1 points
    terms = 2.0 * max(need, 256.0 if quad_n is None else float(quad_n)) \
        * lam.size
    if terms > QUADRATURE_BUDGET:
        raise BudgetExceeded(
            f"a quadrature of {terms:.3g} (panel, frequency) terms exceeds "
            f"the {QUADRATURE_BUDGET} budget")
    need = math.ceil(need)
    n = quad_n if quad_n is not None else max(256, need)
    n += n % 2
    if n < need:
        raise ContractViolation(f"quad_n must be at least {need}")

    def integral(panels):
        t = np.linspace(0.0, t_len, panels + 1)
        vals = np.abs(np.exp(2j * np.pi * np.outer(t, lam)) @ a) ** 2
        return _simpson(vals, t_len / panels)

    i_n = integral(n)
    i_2n = integral(2 * n)
    err = abs(i_2n - i_n) / 15.0
    theta = sep * (i_2n / energy - t_len)
    return {
        "theta": float(theta), "integral": float(i_2n), "separation": sep,
        "quad_n": int(n), "quad_error_theta": float(sep * err / energy),
        "within_unit": bool(abs(theta) <= 1.0 + 1e-3),
    }


# ---------------------------------------------------------------------------
# perturbation bounds for exponential systems
# ---------------------------------------------------------------------------

def _check_bounds_finite(lower, upper, a_option, b_option):
    """Refuse an infinite perturbed bound, naming the option that set it."""
    for option, bound in ((a_option, lower), (b_option, upper)):
        if not math.isfinite(bound):
            raise ContractViolation(f"{option} puts the perturbed bounds out "
                                    "of float range")


def kadec_bounds(a, b, gamma, delta):
    """Stability radius and perturbed bounds for frequency perturbations.

    L is the largest uniform frequency shift (in the 2-pi-exponential
    convention, scaled by gamma) under which a system with bounds (a, b)
    stays Riesz; below it the perturbed system keeps the reported bounds.
    At a == b and gamma == pi this reduces to the classical quarter
    threshold with bounds (cos pi d - sin pi d)^2 and (2 - cos pi d +
    sin pi d)^2.
    """
    if not (0.0 < a <= b):
        raise ContractViolation("need 0 < a <= b")
    if gamma <= 0.0 or delta < 0.0:
        raise ContractViolation("need gamma > 0 and delta >= 0")
    ratio = math.sqrt(a / b)
    level = math.pi / (4.0 * gamma) - math.asin((1.0 - ratio) / math.sqrt(2.0)) / gamma
    if not math.isfinite(x := gamma * delta):
        raise ContractViolation(f"--delta {delta} times --gamma {gamma} is "
                                "out of float range")
    lower = a * (1.0 - ratio * (1.0 - math.cos(x) + math.sin(x))) ** 2
    upper = b * (2.0 - math.cos(x) + math.sin(x)) ** 2
    _check_bounds_finite(lower, upper, f"--a {a}", f"--b {b}")
    return {"L": level, "valid": delta < level, "lower": lower, "upper": upper}


def christensen_bounds(a, b, lam, mu):
    """Frame bounds surviving a (lambda, mu)-relative perturbation.

    Valid exactly when lambda + mu / sqrt(a) < 1; the perturbed family then
    has bounds a (1 - lambda - mu/sqrt(a))^2 and b (1 + lambda + mu/sqrt(b))^2.
    """
    if not (0.0 < a <= b):
        raise ContractViolation("need 0 < a <= b")
    if lam < 0.0 or mu < 0.0:
        raise ContractViolation("need lambda >= 0 and mu >= 0")
    slack = lam + mu / math.sqrt(a)
    for option, term in ((f"--lam {lam}", lam), (f"--mu {mu}", slack - lam)):
        if not term < 1e150:    # past it, a squared bound would overflow
            raise ContractViolation(f"{option} puts the perturbed bounds out "
                                    "of float range")
    lower = a * (1.0 - slack) ** 2
    upper = b * (1.0 + lam + mu / math.sqrt(b)) ** 2
    both = f"with --lam {lam} and --mu {mu}"
    _check_bounds_finite(lower, upper, f"--a {a} {both}", f"--b {b} {both}")
    return {"valid": slack < 1.0, "lower": lower, "upper": upper}


def kadec_empirical_check(n_max, delta_max=None, seed=0, deltas=None):
    """Gram spectrum of a perturbed exponential system on the unit interval
    against the predicted lower bound.

    Frequencies are n + delta_n for |n| <= n_max with |delta_n| <= delta_max
    (seeded uniform draws unless explicit deltas are given).  Gram entries
    come from the closed-form integral of a unimodular exponential, so the
    only numerics here are one Hermitian eigensolve.  Passes when
    lambda_min >= predicted lower - KADEC_MARGIN.  A Gram matrix of more
    than ENTRY_BUDGET entries raises BudgetExceeded before any is built.
    """
    if n_max < 0:
        raise ContractViolation("need n_max >= 0")
    if deltas is None and (delta_max is None or
                           not (0.0 <= delta_max < 0.25)):
        raise ContractViolation("need 0 <= delta_max < 1/4")
    check_entries((2 * n_max + 1) ** 2, "a Kadec Gram matrix")
    base = np.arange(-n_max, n_max + 1, dtype=float)
    if deltas is not None:
        d = np.asarray(deltas, dtype=float).reshape(-1)
        if d.size != base.size:
            raise ContractViolation("need one delta per frequency")
    else:
        rng = np.random.default_rng(seed)
        d = rng.uniform(-delta_max, delta_max, size=base.size)
    mu = base + d
    diff = mu[None, :] - mu[:, None]
    gram = np.ones(diff.shape, dtype=np.complex128)
    nz = diff != 0.0
    gram[nz] = (np.exp(2j * np.pi * diff[nz]) - 1.0) / (2j * np.pi * diff[nz])
    gram = 0.5 * (gram + gram.conj().T)
    w = np.linalg.eigvalsh(gram)
    sup = float(np.abs(d).max())
    bound = kadec_bounds(1.0, 1.0, math.pi, sup)
    return {
        "lambda_min": float(w[0]), "lambda_max": float(w[-1]),
        "delta_sup": sup, "predicted_lower": bound["lower"],
        "predicted_upper": bound["upper"], "valid_radius": bound["valid"],
        "passed": bool(w[0] >= bound["lower"] - KADEC_MARGIN),
        "seed": None if deltas is not None else int(seed),
    }
