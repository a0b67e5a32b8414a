"""Order statistics with the benchmark's percentile rule.

A percentile is only as good as the samples above it. The benchmark
reports the highest percentile with at least ``TAIL`` samples beyond it:
asking for p90 of 40 samples yields p75 (10 samples beyond), and any
request on fewer than ``2 * TAIL`` samples falls back to the median.
Every reported percentile carries the percentile actually used and the
sample count behind it.
"""

import statistics

TAIL = 10


def supported_percentile(n, requested):
    """The percentile reported for ``requested`` over ``n`` samples."""
    if n < 1:
        raise ValueError("no samples")
    highest = 100.0 * (1.0 - TAIL / n)
    return min(float(requested), max(50.0, highest))


def percentile(values, requested):
    """``(value, percentile_used, n)`` by linear interpolation between
    closest ranks, with the percentile clamped by the rule above."""
    xs = sorted(values)
    n = len(xs)
    p = supported_percentile(n, requested)
    pos = (n - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    value = xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return value, p, n


def spread(values):
    """Inter-quartile range as a share of the median: how steady a metric is
    across runs, to be compared with its bound in BENCHMARK.json."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
