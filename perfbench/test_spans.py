"""The benchmark's own arithmetic, on synthetic spans.

    python3 -m pytest perfbench/test_spans.py
"""
import math

import pytest

from spans import Span, Tracer, parallel_efficiency, partition_skew, self_times, tail_percentile


def _span(sid, name, start, end, parent=None):
    return Span(sid, "t", name, start, end, parent)


def test_self_time_subtracts_children():
    spans = [
        _span(0, "all_densest", 0.0, 10.0),
        _span(1, "goldberg_search", 1.0, 7.0, parent=0),
        _span(2, "max_flow", 2.0, 3.0, parent=1),
        _span(3, "max_flow", 4.0, 6.5, parent=1),
        _span(4, "charikar_peel", 7.0, 8.0, parent=0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.5, 2: 1.0, 3: 2.5, 4: 1.0})
    # Self times of a tree add up to its root.
    assert sum(own.values()) == pytest.approx(spans[0].seconds)


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 5.0, parent=0),
        _span(2, "b", 3.0, 8.0, parent=0),
        _span(3, "c", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_tracer_nests_and_wraps():
    tr = Tracer()
    tr.trace = "world-3"
    inner = tr.wrap("list_cliques", lambda n: list(range(n)), count=len)
    with tr.span("all_densest"):
        assert inner(4) == [0, 1, 2, 3]
    root, child = tr.spans
    assert (root.parent, child.parent) == (None, root.sid)
    assert child.count == 4 and child.trace == "world-3"
    assert root.start <= child.start <= child.end <= root.end


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile([1.0] * 19) is None
    assert tail_percentile(list(range(20))) == (50, 9)
    values = [float(v) for v in range(100, 0, -1)]  # order must not matter
    pct, value = tail_percentile(values)
    assert (pct, value) == (90, 90.0)
    assert sum(v > value for v in values) == 10
    assert tail_percentile(list(range(1000))) == (99, 989)


def test_partition_skew_is_max_over_median():
    assert partition_skew([1.0, 2.0, 3.0, 9.0]) == pytest.approx(9.0 / 2.5)
    assert partition_skew([2.0, 2.0, 2.0]) == 1.0


def test_parallel_efficiency():
    # 6 s of kernel work on 4 cores in a 3 s query: half the cores' time.
    assert parallel_efficiency(6.0, 3.0, 4) == pytest.approx(0.5)
    assert math.isclose(parallel_efficiency(1.0, 1.0, 1), 1.0)
