"""Small real families for the brute-force oracle tests."""

import numpy as np

from pavekit.core import Frame


def oracle_frames(seed, count):
    """Real n x M families with n <= 4 and M <= 10: generic ones, ones with
    repeated columns, and ones with most columns in a hyperplane (zero
    columns when n = 1)."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 11))
        a = rng.standard_normal((n, m))
        if i % 3 == 1:
            a = a[:, rng.integers(max(1, m // 2), size=m)]
        elif i % 3 == 2:
            plane = rng.standard_normal((n, n - 1))
            flat = plane @ rng.standard_normal((n - 1, m))
            keep = rng.random(m) < 0.6
            a[:, keep] = flat[:, keep]
        yield Frame(a)
