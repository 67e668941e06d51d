"""Closed-form counts the partition tests compare the package against, and
the roll-loop, per-difference, per-set and quadrature routes that the grid
transforms and the closed-form energy of pavekit.harmonic and the
Rado-Horn exchange search replaced, the full scans that the threshold
erasure, restricted-isometry and complement-property scans replaced, kept
as second routes, and a per-value encoder of the base64 wire form."""

import base64
import itertools
import math
import struct

import numpy as np

from pavekit.core import (
    hyperplane_flats,
    index_stacks,
    numeric_rank,
    stack_spectra,
    subset_ranks,
)
from pavekit.erasures import (
    _erasure_results,
    _surviving_lower,
    _true_columns,
)
from pavekit.frames import _is_parseval, gram_matrix


def count_partitions(M, r):
    """Number of partitions of an M-set into at most r nonempty blocks, from
    Stirling numbers of the second kind S[m][j]."""
    S = [[0] * (r + 1) for _ in range(M + 1)]
    S[0][0] = 1
    for m in range(1, M + 1):
        for j in range(1, r + 1):
            S[m][j] = j * S[m - 1][j] + S[m - 1][j - 1]
    return sum(S[M][j] for j in range(1, r + 1))


def translate_average_by_rolls(g, k):
    """(1/K) sum_j |g(t - j/K)|^2 as K rolls of |g|^2 by multiples of N/K."""
    step = g.N // k
    a = np.abs(g.values) ** 2
    acc = np.zeros(g.N)
    for j in range(k):
        acc += np.roll(a, j * step)
    return acc / k


def toeplitz_section_by_sums(g, freqs):
    """Hermitian part of the matrix (1/N) sum_j g(j) exp(2 pi i (f_a - f_b)
    j / N), one N-term exponential sum per frequency difference."""
    f = [int(x) for x in freqs]
    j = np.arange(g.N)
    diffs = {d for a in f for d in (a - b for b in f)}
    coeff = {d: complex(np.sum(g.values * np.exp(2j * np.pi * d * j / g.N)) / g.N)
             for d in diffs}
    out = np.array([[coeff[a - b] for b in f] for a in f])
    return 0.5 * (out + out.conj().T)


def exchange_chains_by_sets(fr, r):
    """Edmonds' matroid partition as pavekit.decomposition ran it before its
    search steps were stacked: one numeric_rank per candidate set, in scan
    order.  (blocks, None) with the nonempty independent blocks, or (None,
    J) with the elements a stalled search reached."""
    blocks = [[] for _ in range(min(r, fr.M))]
    where, cache = {}, {}

    def indep(blk):
        key = frozenset(blk)
        if key not in cache:
            cols = sorted(key)
            cache[key] = not cols or \
                numeric_rank(fr.synthesis[:, cols]) == len(cols)
        return cache[key]

    for e in range(fr.M):
        parent = {e: None}        # element -> (displacer, block it vacates)
        queue = [e]
        terminal = None
        while queue and terminal is None:
            x = queue.pop(0)
            for b, blk in enumerate(blocks):
                if x in blk:
                    continue
                if indep(blk + [x]):
                    terminal = (x, b)
                    break
                for y in blk:
                    if y not in parent and \
                            indep([z for z in blk if z != y] + [x]):
                        parent[y] = (x, b)
                        queue.append(y)
        if terminal is None:
            return None, sorted(parent)
        x, b = terminal
        while x is not None:
            if x in where:
                blocks[where[x]].remove(x)
            blocks[b].append(x)
            where[x] = b
            x, b = parent[x] if parent[x] is not None else (None, None)
        assert all(indep(blk) for blk in blocks)
    return [blk for blk in blocks if blk], None


def mv_theta_by_quadrature(freqs, coeffs, t_len):
    """(theta, error estimate) of montgomery_vaughan_theta's energy
    correction with the energy integrated numerically, as pavekit.harmonic
    did before it summed the closed form: composite Simpson on |sum a_j
    exp(2 pi i lambda_j t)|^2 at n >= max(256, 64 T max|lambda|) even
    panels and at 2n, theta from the 2n run, and the Richardson estimate
    |I_2n - I_n| / 15 mapped into theta units."""
    lam = np.asarray(freqs, dtype=float)
    a = np.asarray(coeffs, dtype=complex)
    energy = float(np.sum(np.abs(a) ** 2))
    sep = float(np.diff(np.sort(lam)).min())
    n = max(256, int(np.ceil(64.0 * t_len * np.abs(lam).max())))
    n += n % 2

    def integral(panels):
        t = np.linspace(0.0, t_len, panels + 1)
        vals = np.abs(np.exp(2j * np.pi * np.outer(t, lam)) @ a) ** 2
        return t_len / panels / 3.0 * (
            vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum()
            + 2.0 * vals[2:-1:2].sum())

    i_n, i_2n = integral(n), integral(2 * n)
    return sep * (i_2n / energy - t_len), sep * abs(i_2n - i_n) / 15.0 / energy


def base64_by_struct(m):
    """The base64 wire string of a matrix, one struct.pack('<d', x) per
    value in column-major order, a complex value as re then im: an encoder
    that shares nothing with numpy's byte layout."""
    m = np.asarray(m)
    rows, cols = m.shape
    values = []
    for j in range(cols):
        for i in range(rows):
            z = m[i, j]
            values.append(float(z.real))
            if np.iscomplexobj(m):
                values.append(float(z.imag))
    return base64.b64encode(
        b"".join(struct.pack("<d", x) for x in values)).decode()


def erasure_by_full_scan(fr, k):
    """erasure_robustness's results with every erasure eigen-priced: the
    stacked scan it ran before it bounded each erasure first."""
    parseval = _is_parseval(fr)
    vmin, vmax, worst_subset, scanned = math.inf, -math.inf, [], 0
    row_bytes = fr.synthesis.itemsize * fr.n * max(fr.n, fr.M - k)
    for erased in index_stacks(itertools.combinations(range(fr.M), k),
                               lambda _: row_bytes):
        val = _surviving_lower(fr, erased)
        scanned += len(val)
        lo, hi = int(np.argmin(val)), int(np.argmax(val))
        if val[lo] < vmin:
            vmin, worst_subset = float(val[lo]), erased[lo].tolist()
        vmax = max(vmax, float(val[hi]))
    return _erasure_results(k, parseval, vmin, worst_subset, scanned, vmax)


def restricted_isometry_by_full_scan(fr, s):
    """restricted_isometry's (delta, worst_subset) with every subset of
    size 1..s eigen-priced, in stacks: the scan it ran before it bounded
    each subset first."""
    s = min(s, fr.M)
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(fr.M), k) for k in range(1, s + 1))
    g, worst, worst_subset = gram_matrix(fr), -1.0, None
    for idx in index_stacks(subsets, lambda k: g.itemsize * k * k):
        w = stack_spectra(g, idx)
        dev = np.maximum(w[:, -1] - 1.0, 1.0 - w[:, 0])
        i = int(np.argmax(dev))
        if dev[i] > worst:
            worst, worst_subset = float(dev[i]), idx[i].tolist()
    return max(worst, 0.0), worst_subset


def phase_by_side_ranks(fr):
    """phase_retrieval_check's results with the rank of every side of n or
    more vectors from subset_ranks: the complement-property scan before
    its sides were certified by a basis."""
    t = np.real(fr.synthesis)
    (n, m), seen = t.shape, set()
    if numeric_rank(t) < n:
        return {"verdict": False,
                "witness": {"side": list(range(m)), "complement": []}}
    for idx in index_stacks(itertools.combinations(range(m), n - 1),
                            lambda _: 4 * t.itemsize * n * (n + m)):
        rows = hyperplane_flats(t, idx)[1]
        pairs = [p for p in dict.fromkeys(zip(_true_columns(rows),
                                              _true_columns(~rows)))
                 if p[0] not in seen]
        seen.update(p[0] for p in pairs)
        wide = sorted({s for p in pairs for s in p if len(s) >= n},
                      key=lambda s: (len(s), s))
        low = dict(zip(wide, subset_ranks(t, wide) < n))
        for flat, rest in pairs:
            if low.get(flat, True) and low.get(rest, True):
                side, comp = (flat, rest) if 0 in flat else (rest, flat)
                return {"verdict": False,
                        "witness": {"side": list(side),
                                    "complement": list(comp)}}
    return {"verdict": True, "witness": None}
