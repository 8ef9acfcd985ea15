"""Order statistics shared by the harness and the steadiness report."""

import math
import statistics

# Percentiles a tail may be reported at, in tenths of a percent, highest
# first (integers, so the samples-beyond test is exact).
TAIL_LADDER = (999, 990, 950, 900, 750, 500)
# Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def percentile(values, p):
    """The p-th percentile (0..100) of `values`, interpolating linearly
    between the two closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    s = sorted(values)
    k = (len(s) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def tail_percentile(n):
    """The highest percentile of the ladder with at least MIN_BEYOND of
    `n` samples beyond it, or None when even the median has too few."""
    for tenths in TAIL_LADDER:
        if n * (1000 - tenths) >= MIN_BEYOND * 1000:
            return tenths / 10
    return None


def quartiles(values):
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them;
    a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf
