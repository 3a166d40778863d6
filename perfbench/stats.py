"""The benchmark's own arithmetic: percentiles, interval cover, failure counts.

Kept free of NumPy and of the program under test so that
``perfbench/test_perfbench.py`` can pin every rule down exactly.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from fractions import Fraction
from typing import Iterable, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; below that, one outlier more or less moves it arbitrarily.
MIN_SAMPLES_BEYOND = 10
#: The percentiles a run may report, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def nearest_rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile among ``n`` samples."""
    if n < 1:
        raise ValueError("a percentile needs at least one sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    # Fraction(str(q)) keeps 99.9 exact: 99.9 * 1000 / 100 must be 999.
    return max(1, math.ceil(Fraction(str(q)) * n / 100))


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank strictly above the ``q``-th percentile."""
    return n - nearest_rank(n, q)


def highest_percentile(values: Sequence[float]) -> tuple[float, float] | None:
    """``(q, value)`` for the highest of :data:`PERCENTILES` that leaves at
    least :data:`MIN_SAMPLES_BEYOND` samples beyond it (nearest rank), or
    ``None`` when even the median does not."""
    n = len(values)
    for q in PERCENTILES:
        if n and samples_beyond(n, q) >= MIN_SAMPLES_BEYOND:
            return q, sorted(values)[nearest_rank(n, q) - 1]
    return None


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("a median needs at least one sample")
    return float(statistics.median(values))


def merge_intervals(
    intervals: Iterable[tuple[float, float]],
) -> list[tuple[float, float]]:
    """Sorted, disjoint union of ``(start, end)`` intervals."""
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def covered(
    intervals: Iterable[tuple[float, float]],
    lo: float = -math.inf,
    hi: float = math.inf,
) -> float:
    """Length of ``[lo, hi]`` that the union of ``intervals`` covers.

    Overlapping intervals count once: two children that ran at the same
    time (coroutines on one loop, or a chip thread beside it) cover their
    parent's interval once, not twice.
    """
    clipped = ((max(start, lo), min(end, hi)) for start, end in intervals)
    return sum(end - start for start, end in merge_intervals(clipped))


def uncovered_fraction(
    outer: Iterable[tuple[float, float]], inner: Iterable[tuple[float, float]]
) -> float:
    """Share of the union of ``outer`` that no ``inner`` interval covers."""
    outer = merge_intervals(outer)
    inner = list(inner)
    total = sum(end - start for start, end in outer)
    if total <= 0.0:
        return 0.0
    hit = sum(covered(inner, start, end) for start, end in outer)
    return (total - hit) / total


class Outcomes:
    """Attempted and failed operations, with every miss counted once.

    An operation fails when it raises, is shed or times out, or when any
    of its outputs misses its check.  One operation can produce several
    outputs (a reconfiguration cycle makes five calls); it still counts
    as one failed operation, and each distinct reason is kept for the
    report.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter[str] = Counter()

    def record(self, misses: Iterable[str] = ()) -> bool:
        """Count one attempted operation; ``misses`` names what went
        wrong (empty for a correct operation).  Returns whether it passed."""
        misses = sorted(set(misses))
        self.attempted += 1
        if misses:
            self.failed += 1
            self.reasons.update(misses)
        return not misses

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
