"""Pure arithmetic behind the benchmark's reported numbers.

Kept free of psygat imports so the tests next to it run without the
program and so each rule is stated once.
"""

from __future__ import annotations

import math
import statistics

TAIL_LEVEL = 95.0
MIN_TAIL_SAMPLES = 10


def tail_percentile(values):
    """(value, percentile) of the highest percentile, at most TAIL_LEVEL,
    with at least MIN_TAIL_SAMPLES samples above it.

    Nearest-rank: the p-th percentile of n sorted samples is the sample at
    1-based rank ceil(p/100 * n). When no rank above the median leaves
    MIN_TAIL_SAMPLES samples above it, the median is returned at level 50,
    so the tail never reads below the median.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    n = len(ordered)
    rank = min(math.ceil(TAIL_LEVEL / 100.0 * n), n - MIN_TAIL_SAMPLES)
    if rank <= n / 2:
        return statistics.median(ordered), 50.0
    return ordered[rank - 1], 100.0 * rank / n


def error_rate(attempted, failed):
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError(f"error rate needs at least one attempt, got {attempted}")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed count {failed} outside [0, {attempted}]")
    return failed / attempted


def quartile_spread(values):
    """Distance between first and third quartile as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def self_times(spans, charged=()):
    """Self time of each span: its duration minus its children's durations
    and minus the time charged to it.

    spans: sequence of (name, start, end, parent) with parent an index into
    spans or None; spans come from one call stack, so children nest inside
    their parent one after another. charged: (parent, seconds) pairs of time
    measured inside a span without a span of its own (backward closures).
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            out[parent] -= end - start
    for parent, seconds in charged:
        out[parent] -= seconds
    return out


def random_order_mrr(instances):
    """Expected MRR when each instance's candidates are shuffled uniformly.

    instances: (candidates, positives) pairs, 1 <= positives <= candidates.
    The first positive lands at rank r with probability
    C(c - r, m - 1) / C(c, m).
    """
    if not instances:
        raise ValueError("random-order MRR of no instances")
    total = 0.0
    for c, m in instances:
        if not 1 <= m <= c:
            raise ValueError(f"{m} positives among {c} candidates")
        ways = math.comb(c, m)
        total += sum(math.comb(c - r, m - 1) / ways / r for r in range(1, c - m + 2))
    return total / len(instances)
