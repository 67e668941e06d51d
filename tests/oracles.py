"""Closed-form counts the partition tests compare the package against, and
the roll-loop and per-difference routes the grid transforms of
pavekit.harmonic replaced, kept as second routes."""

import numpy as np


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


def gk_component_by_rolls(g, k, res):
    """(1/K) sum_j g(t - j/K) exp(2 pi i j res / K) as K phased rolls."""
    step = g.N // k
    acc = np.zeros(g.N, dtype=np.complex128)
    for j in range(k):
        acc += np.roll(g.values, j * step) * np.exp(2j * np.pi * j * res / k)
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
