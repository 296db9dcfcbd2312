"""Statistics and due-time accounting for the gateway benchmark.

Every statistic here is computed from one run's samples.  A tail
percentile is only reported when the run holds at least
``MIN_BEYOND`` samples beyond it, so a "p99" is never the maximum of a
small sample; callers report the sample count beside it.  Across runs
the harness reports medians and quartiles (``statistics.quantiles``
with ``n=4``, the same rule the acceptance check applies) and never a
best-of-rounds.

Standard library only: the orchestrator imports this module before any
numerical package is loaded.
"""

from __future__ import annotations

import bisect
import math
import statistics
from typing import Sequence

#: Samples a percentile must leave beyond it to be reported.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of fewer samples than it needs."""


def min_samples(q: int) -> int:
    """Fewest samples that leave ``MIN_BEYOND`` beyond the ``q``-th
    percentile (``q`` in whole percent, 0 < q < 100)."""
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    return math.ceil(MIN_BEYOND * 100 / (100 - q))


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile by linear interpolation between order
    statistics (NumPy's default method).

    Raises :class:`InsufficientSamples` when fewer than
    :func:`min_samples` values are given.
    """
    n = len(values)
    need = min_samples(q)
    if n < need:
        raise InsufficientSamples(
            f"p{q} needs at least {need} samples, got {n}"
        )
    ordered = sorted(values)
    pos = (n - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def percentile_or_none(values: Sequence[float], q: int) -> float | None:
    """:func:`percentile`, or ``None`` when the sample is too small."""
    try:
        return percentile(values, q)
    except InsufficientSamples:
        return None


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        raise InsufficientSamples("quartiles need at least 2 values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        raise ValueError("relative spread of values whose median is 0")
    return (q3 - q1) / abs(median)


def latencies(due: Sequence[float], received: Sequence[float]) -> list[float]:
    """Per-packet latency from due time to receipt.

    Charging from the due time (not from when the gateway happened to
    pull the packet) bills a stall to every packet queued behind it.
    """
    if len(due) != len(received):
        raise ValueError("due and received times must pair up")
    return [r - d for d, r in zip(due, received)]


def lateness(due: Sequence[float], handed: Sequence[float]) -> list[float]:
    """How late the generator handed each packet over (never negative:
    a packet handed early would be a generator bug, clipped here so it
    cannot offset real lateness)."""
    return [max(0.0, h - d) for d, h in zip(due, handed)]


def backlog_at(due: Sequence[float], received: Sequence[float], t: float) -> int:
    """Packets due by time ``t`` but not yet received by then."""
    offered = bisect.bisect_right(sorted(due), t)
    delivered = bisect.bisect_right(sorted(received), t)
    return offered - delivered


def backlog_limit(n_offered: int) -> int:
    """Largest end-of-schedule backlog a run may carry and still count
    as keeping up: 5 % of the packets offered, at least 25 packets (a
    stable queue at 60 % load rarely holds more than a dozen)."""
    return max(25, math.ceil(0.05 * n_offered))


def backlogged(due: Sequence[float], received: Sequence[float]) -> tuple[bool, int]:
    """Whether delivery fell behind the offered load over the run.

    Measured at the last due time: a run that keeps up has delivered
    all but a queue's worth of what was offered by then, while a run
    whose backlog grows carries a share of the whole schedule.
    """
    if not due:
        return False, 0
    behind = backlog_at(due, received, max(due))
    return behind > backlog_limit(len(due)), behind


class ReferenceClock:
    """Wall-clock time converted to seconds at a reference host speed.

    Built from calibration samples ``(start, end, kernel_s)``: a fixed
    kernel that takes ``reference_s`` at the reference speed took
    ``kernel_s`` between ``start`` and ``end``.  Between two samples the
    host's speed is taken as the mean of their kernel times, before the
    first and after the last as that sample's; time spent inside a
    sample counts as zero.  ``clock(b) - clock(a)`` is then the interval
    ``[a, b]`` as it would have lasted at the reference speed.
    """

    def __init__(
        self, samples: Sequence[tuple[float, float, float]], reference_s: float
    ) -> None:
        if not samples:
            raise ValueError("a reference clock needs at least one calibration sample")
        self._t: list[float] = []
        self._ref: list[float] = []
        ref = 0.0
        prev_end = prev_kernel = None
        for start, end, kernel_s in samples:
            if prev_end is not None:
                if start < prev_end:
                    raise ValueError("calibration samples overlap or are out of order")
                ref += (start - prev_end) * reference_s / ((prev_kernel + kernel_s) / 2)
            self._t += [start, end]
            self._ref += [ref, ref]
            prev_end, prev_kernel = end, kernel_s
        self._head = reference_s / samples[0][2]
        self._tail = reference_s / samples[-1][2]

    def __call__(self, t: float) -> float:
        ts, refs = self._t, self._ref
        if t <= ts[0]:
            return refs[0] - (ts[0] - t) * self._head
        if t >= ts[-1]:
            return refs[-1] + (t - ts[-1]) * self._tail
        i = bisect.bisect_right(ts, t) - 1
        return refs[i] + (refs[i + 1] - refs[i]) * (t - ts[i]) / (ts[i + 1] - ts[i])
