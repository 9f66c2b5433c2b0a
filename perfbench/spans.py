"""In-memory span tracer and the arithmetic the benchmark reports.

A span is one timed call: its name, start, end, the span that was open
when it began (its parent) and a trace id shared by every span of one
request (here: one sampled world, or one driver-side query). Spans stay
in memory and are written once, when the run ends.
"""
from __future__ import annotations

import functools
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator


@dataclass
class Span:
    sid: int
    trace: str
    name: str
    start: float
    end: float
    parent: int | None
    count: int | None = None  # work the call returned, where it is countable

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans from one thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.trace = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        sp = Span(len(self.spans), self.trace, name, time.perf_counter(), math.nan, parent)
        self.spans.append(sp)
        self._open.append(sp.sid)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``count(result)`` is stored on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
                if count is not None:
                    sp.count = count(out)
                return out

        return traced


class NullTracer:
    """Tracing off: spans cost one no-op context manager."""

    trace = ""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield None


def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id → its duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.seconds - _covered(children.get(s.sid, ()), s.start, s.end)
        for s in spans
    }


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated q-th percentile (0 for no values)."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    i = int(pos)
    j = min(i + 1, len(v) - 1)
    return v[i] + (v[j] - v[i]) * (pos - i)


def tail_percentile(values: list[float], beyond: int = 10) -> tuple[int, float] | None:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns (percentile, value), where the value is the sample of rank
    n − beyond − 1 and the percentile is the share of samples at or below
    it. None when that percentile would sit below the median, i.e. the
    run has fewer than 2 × ``beyond`` samples.
    """
    n = len(values)
    if n < 2 * beyond:
        return None
    rank = n - beyond - 1
    return math.floor(100 * (rank + 1) / n), sorted(values)[rank]


def partition_skew(partition_seconds: list[float]) -> float:
    """Slowest partition over the median partition."""
    med = statistics.median(partition_seconds)
    return max(partition_seconds) / med if med > 0 else 0.0


def parallel_efficiency(busy_seconds: float, wall_seconds: float, cores: int) -> float:
    """Share of the cores' wall time spent in traced work."""
    return busy_seconds / (wall_seconds * cores)
