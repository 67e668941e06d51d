"""Order statistics the benchmark reports."""

from __future__ import annotations

import bisect
import statistics


def tail(samples, beyond=10):
    """The highest sample with at least `beyond` samples strictly above it.

    Returns (value, percentile) where percentile is the share of samples at
    or below the value, in percent, or None when there are too few samples.
    """
    xs = sorted(samples)
    for k in range(len(xs) - beyond - 1, -1, -1):
        if len(xs) - bisect.bisect_right(xs, xs[k]) >= beyond:
            return xs[k], 100.0 * (k + 1) / len(xs)
    return None


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
