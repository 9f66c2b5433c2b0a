"""Unit tests for repro.graphs.graph helpers."""
import numpy as np
import pytest

from repro.graphs.graph import (
    adjacency_sets,
    canonical_edges,
    degrees,
    induced_edge_count,
    nodes_of,
    relabel,
)


def test_canonical_orders_and_dedups():
    e = np.array([[2, 1], [1, 2], [3, 3], [0, 5]])
    out = canonical_edges(e)
    assert out.tolist() == [[0, 5], [1, 2]]


def test_canonical_empty():
    assert canonical_edges(np.empty((0, 2))).shape == (0, 2)


def test_canonical_removes_self_loops():
    out = canonical_edges(np.array([[4, 4], [4, 5]]))
    assert out.tolist() == [[4, 5]]


@pytest.mark.parametrize("seed", range(5))
def test_canonical_idempotent(seed):
    g = np.random.default_rng(seed)
    e = g.integers(0, 10, size=(30, 2))
    once = canonical_edges(e)
    assert np.array_equal(once, canonical_edges(once))


def _canonical_reference(edges):
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if e.size == 0:
        return e.reshape(0, 2)
    e = e[e[:, 0] != e[:, 1]]
    lo = np.minimum(e[:, 0], e[:, 1])
    hi = np.maximum(e[:, 0], e[:, 1])
    return np.unique(np.stack([lo, hi], axis=1), axis=0)


def _relabel_reference(edges):
    ids = np.unique(np.asarray(edges, dtype=np.int64))
    if ids.size == 0:
        return np.empty((0, 2), dtype=np.int64), ids
    return np.searchsorted(ids, edges).astype(np.int64), ids


def _assert_matches_reference(e):
    out, ref = canonical_edges(e), _canonical_reference(e)
    assert out.dtype == np.int64 and out.shape == ref.shape
    assert np.array_equal(out, ref)
    (ce, ids), (rce, rids) = relabel(e), _relabel_reference(e)
    assert ce.dtype == np.int64 and ce.shape == rce.shape
    assert np.array_equal(ce, rce) and np.array_equal(ids, rids)


BIG = 2**40


@pytest.mark.parametrize(
    "edges",
    [
        np.empty((0, 2), dtype=np.int64),
        [[3, 3], [7, 7], [3, 3]],
        [[0, 1], [0, 2], [1, 2], [2, 9]],
        [[0, 1], [0, 2], [0, 2], [1, 2]],
        [[2, 1], [1, 2], [3, 3], [0, 5], [5, 0]],
        # ids near 2**40: an id-sized array or a pair code u*(max+1)+v
        # would exhaust memory or overflow int64.
        [[BIG + 5, BIG - 3], [BIG - 3, BIG + 5], [BIG + 1, BIG + 1], [BIG + 9, BIG]],
        [[BIG - 3, BIG], [BIG - 3, BIG + 5], [BIG, BIG + 9]],
    ],
    ids=[
        "empty", "self-loops-only", "sorted", "sorted-with-duplicate",
        "dups-reversed-loops", "near-2^40", "near-2^40-sorted",
    ],
)
def test_normalisation_matches_reference_cases(edges):
    _assert_matches_reference(np.asarray(edges, dtype=np.int64).reshape(-1, 2))


def test_normalisation_matches_reference_random():
    """500 random arrays with duplicates, reversed pairs and self-loops;
    a third are already canonical (the O(m) fast path); half use ids
    near 2**40."""
    g = np.random.default_rng(0)
    for _ in range(500):
        base = BIG - 20 if g.random() < 0.5 else 0
        span = int(g.integers(1, 30))  # span 1: only self-loops
        e = base + g.integers(0, span, size=(int(g.integers(0, 40)), 2))
        if g.random() < 1 / 3:
            e = _canonical_reference(e)
        _assert_matches_reference(e)


def test_nodes_of():
    e = np.array([[5, 2], [2, 9]])
    assert nodes_of(e).tolist() == [2, 5, 9]


def test_relabel_roundtrip():
    e = canonical_edges(np.array([[10, 20], [20, 30]]))
    ce, ids = relabel(e)
    assert ids.tolist() == [10, 20, 30]
    back = ids[ce]
    assert np.array_equal(back, e)


def test_relabel_empty():
    ce, ids = relabel(np.empty((0, 2), dtype=np.int64))
    assert len(ce) == 0 and len(ids) == 0


def test_degrees_triangle():
    e = np.array([[0, 1], [1, 2], [0, 2]])
    assert degrees(e, 3).tolist() == [2, 2, 2]


def test_degrees_isolated_node():
    e = np.array([[0, 1]])
    assert degrees(e, 4).tolist() == [1, 1, 0, 0]


def test_adjacency_sets():
    e = np.array([[0, 2], [0, 1]])
    adj = adjacency_sets(e, 3)
    assert adj[0] == {1, 2} and adj[1] == {0} and adj[2] == {0}


def test_induced_edge_count():
    e = np.array([[0, 1], [1, 2], [0, 2], [2, 3]])
    assert induced_edge_count(e, {0, 1, 2}) == 3
    assert induced_edge_count(e, {2, 3}) == 1
    assert induced_edge_count(e, {3}) == 0


@pytest.mark.parametrize("seed", range(4))
def test_degree_sum_is_twice_edges(seed):
    g = np.random.default_rng(seed)
    e = canonical_edges(g.integers(0, 20, size=(60, 2)))
    assert degrees(e, 20).sum() == 2 * len(e)
