"""The benchmark's own arithmetic: percentiles, per-job ratios, self time.

Kept apart from the run scripts so that ``test_arith.py`` can check it
without building a database.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; with fewer it would describe a handful of outliers.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``values``.

    The median (q = 50) is always reported. Any higher percentile needs
    ``MIN_TAIL_SAMPLES`` samples strictly beyond its rank, otherwise
    ``ValueError`` is raised: for p90 that means at least 100 samples.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if q > 50 and len(ordered) - rank < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {len(ordered) - rank} "
            f"beyond it; {MIN_TAIL_SAMPLES} are needed"
        )
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the two middle values for even counts)."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def per_job(total: float, jobs: int) -> float:
    """``total`` spread over ``jobs`` jobs; a run without jobs is an error."""
    if jobs < 1:
        raise ValueError("per-job figure over zero jobs")
    return total / jobs


def covered(intervals: Iterable[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted(
        (max(lo, start), min(hi, end)) for lo, hi in intervals if hi > start and lo < end
    )
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in clipped:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[tuple[float, float, int]]) -> list[float]:
    """Self time of each span: its duration minus what its children cover.

    ``spans`` holds ``(start, end, parent)`` with ``parent`` the index of
    the enclosing span in the same sequence, or -1 for a root.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (start, end, _parent) in enumerate(spans):
        out.append((end - start) - covered(children.get(index, ()), start, end))
    return out

