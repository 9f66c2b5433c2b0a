"""Clique listing and pattern instance enumeration vs itertools brute force."""
from itertools import combinations

import numpy as np
import pytest

from repro.graphs.alldense import instances
from repro.graphs.cliques import degeneracy_order, list_cliques
from repro.graphs.graph import adjacency_sets, canonical_edges
from repro.graphs.patterns import (
    PATTERNS,
    enumerate_instances,
    group_instances,
    instance_edge_ids,
    instance_pairs,
)


def brute_cliques(edges, n, h):
    adj = adjacency_sets(edges, n)
    out = []
    for combo in combinations(range(n), h):
        if all(b in adj[a] for a, b in combinations(combo, 2)):
            out.append(tuple(combo))
    return sorted(out)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("h", [2, 3, 4, 5])
def test_list_cliques_matches_brute(seed, h):
    g = np.random.default_rng(seed)
    n = 9
    e = canonical_edges(g.integers(0, n, size=(25, 2)))
    got = sorted(list_cliques(e, n, h))
    assert got == brute_cliques(e, n, h)


def test_list_cliques_k4():
    e = canonical_edges(
        np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
    )
    assert list_cliques(e, 4, 4) == [(0, 1, 2, 3)]
    assert len(list_cliques(e, 4, 3)) == 4
    assert len(list_cliques(e, 4, 2)) == 6


def test_list_cliques_empty_graph():
    assert list_cliques(np.empty((0, 2), dtype=np.int64), 0, 3) == []


def test_degeneracy_order_is_permutation():
    e = canonical_edges(np.array([[0, 1], [1, 2], [2, 3]]))
    order = degeneracy_order(e, 4)
    assert sorted(order.tolist()) == [0, 1, 2, 3]


# ---- pattern brute forces ---------------------------------------------------

def brute_pattern_count(edges, n, name):
    adj = adjacency_sets(edges, n)
    cnt = 0
    if name == "2-star":
        for c in range(n):
            d = len(adj[c])
            cnt += d * (d - 1) // 2
    elif name == "3-star":
        for c in range(n):
            d = len(adj[c])
            cnt += d * (d - 1) * (d - 2) // 6
    elif name == "c3-star":
        for tri in combinations(range(n), 3):
            a, b, c = tri
            if b in adj[a] and c in adj[a] and c in adj[b]:
                for x in tri:
                    cnt += len(adj[x] - set(tri))
    elif name == "diamond":
        for u, v in edges:
            cnt += len(adj[int(u)] & adj[int(v)]) * (len(adj[int(u)] & adj[int(v)]) - 1) // 2
    return cnt


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", list(PATTERNS))
def test_pattern_counts_match_brute(seed, name):
    g = np.random.default_rng(seed)
    n = 9
    e = canonical_edges(g.integers(0, n, size=(22, 2)))
    insts = enumerate_instances(e, n, name)
    assert len(insts) == brute_pattern_count(e, n, name)
    # no duplicate instances
    assert len(set(insts)) == len(insts)


def test_pattern_sizes():
    assert PATTERNS["2-star"].n_nodes == 3
    for name in ("3-star", "c3-star", "diamond"):
        assert PATTERNS[name].n_nodes == 4


def test_instances_on_k4():
    e = canonical_edges(
        np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
    )
    assert len(enumerate_instances(e, 4, "2-star")) == 12  # 4 centers x C(3,2)
    assert len(enumerate_instances(e, 4, "3-star")) == 4
    assert len(enumerate_instances(e, 4, "diamond")) == 6  # per edge 1 pair
    # c3-star: 4 triangles x 3 centers x 1 external neighbor
    assert len(enumerate_instances(e, 4, "c3-star")) == 12


def test_group_instances():
    insts = [(0, 1, 2), (1, 0, 2), (0, 1, 3)]
    groups = group_instances(insts)
    assert groups[frozenset({0, 1, 2})] == 2
    assert groups[frozenset({0, 1, 3})] == 1


def test_instance_pattern_edges_within_instance():
    # a diamond (K4 minus 2-3) with a pendant: every pattern has instances
    e = canonical_edges(np.array([[0, 1], [0, 2], [1, 2], [0, 3], [1, 3], [3, 4]]))
    have = {(int(u), int(v)) for u, v in e}
    for name in [*PATTERNS, "clique:3"]:
        insts = instances(e, 5, name)
        assert len(insts) > 0
        rows = instance_edge_ids(insts, e, name)
        assert rows.shape == (len(insts), len(instance_pairs(name)))
        # every declared pair is a real graph edge, and its row is that edge
        for inst, row in zip(insts.tolist(), rows.tolist()):
            for (i, j), r in zip(instance_pairs(name), row):
                a, b = inst[i], inst[j]
                assert (min(a, b), max(a, b)) in have
                assert tuple(e[r].tolist()) == (min(a, b), max(a, b))


def test_instance_pattern_edges_clique():
    assert instance_pairs("clique:3") == ((0, 1), (0, 2), (1, 2))
    assert instance_pairs("edge") == ((0, 1),)
    e = canonical_edges(np.array([[0, 1], [1, 2], [0, 2], [2, 5], [3, 4]]))
    # edge maps each row to itself
    np.testing.assert_array_equal(
        instance_edge_ids(e, e, "edge"), np.arange(len(e))[:, None]
    )


def test_unknown_pattern_raises():
    with pytest.raises(ValueError):
        enumerate_instances(np.array([[0, 1]]), 2, "hexagon")
