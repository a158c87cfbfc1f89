"""Summary statistics for benchmark timings.

A timing is reported as its median plus a high percentile, and a
percentile is only reported when at least ten samples lie beyond it, so
that one stray sample cannot set it.  Percentiles use the nearest-rank
rule: the q-th percentile of n sorted samples is the one at rank
ceil(q * n / 100), with n - rank samples beyond it.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-th percentile and the sample count.

    Raises ``ValueError`` when fewer than ten samples lie beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    rank = max(1, math.ceil(q * n / 100.0))
    if n - rank < MIN_BEYOND:
        raise ValueError(f"p{q:g} of {n} samples has only {n - rank} beyond it; "
                         f"need {MIN_BEYOND}")
    return xs[rank - 1], n


def highest_percentile(values) -> tuple[float, float, int]:
    """(percentile, value, count) for the highest percentile with ten beyond.

    That is the sample at rank n - 10, the (100 * (n - 10) / n)-th
    percentile.  Raises ``ValueError`` for fewer than eleven samples.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= MIN_BEYOND:
        raise ValueError(f"{n} samples leave no percentile with {MIN_BEYOND} beyond it")
    rank = n - MIN_BEYOND
    return 100.0 * rank / n, xs[rank - 1], n


def median(values) -> float:
    return float(statistics.median(values))


def wall_ref(walls, refs) -> float:
    """Median over iterations of wall time divided by reference probe time."""
    if len(walls) != len(refs) or not walls:
        raise ValueError("need one reference time per iteration")
    return median(w / r for w, r in zip(walls, refs))
