"""Clique listing and pattern instance enumeration vs itertools brute force."""
from itertools import combinations

import numpy as np
import pytest

from repro.baselines import utruss
from repro.graphs.alldense import instance_groups, instances
from repro.graphs.cliques import list_cliques
from repro.graphs.graph import canonical_edges
from repro.graphs.patterns import (
    PATTERNS,
    enumerate_instances,
    instance_edge_ids,
    instance_pairs,
)

# The random graphs (seeds 0-5), then a hub of degree 40 amid sparse
# edges and a planted K5, a graph whose ids 0, 6 and 13 are isolated,
# and no edge at all.
CASES = [*range(6), "hub", "isolated", "empty"]


def case_graph(case, n_pairs):
    """``(canonical edges, n)`` of one of ``CASES``."""
    g = np.random.default_rng(case if isinstance(case, int) else 0)
    if isinstance(case, int):
        n = 9
        return canonical_edges(g.integers(0, n, size=(n_pairs, 2))), n
    if case == "hub":
        n, hub = 41, 17
        spokes = [(hub, v) for v in range(n) if v != hub]
        k5 = list(combinations([3, 9, 25, 33, 38], 2))
        rest = g.integers(0, n, size=(60, 2))
        return canonical_edges(np.vstack([spokes, k5, rest])), n
    if case == "isolated":
        ids = np.array([v for v in range(14) if v not in (0, 6, 13)])
        return canonical_edges(ids[g.integers(0, len(ids), size=(n_pairs, 2))]), 14
    return np.empty((0, 2), dtype=np.int64), 5


def adjacency(edges, n):
    adj = [set() for _ in range(n)]
    for u, v in edges.tolist():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def brute_cliques(edges, n, h):
    adj = adjacency(edges, n)
    out = []
    for combo in combinations(range(n), h):
        if all(b in adj[a] for a, b in combinations(combo, 2)):
            out.append(tuple(combo))
    return sorted(out)


@pytest.mark.parametrize("seed", CASES)
@pytest.mark.parametrize("h", [2, 3, 4, 5])
def test_list_cliques_matches_brute(seed, h):
    e, n = case_graph(seed, 25)
    got = list_cliques(e, n, h)
    assert got.shape == (len(got), h)
    # ascending rows, in lexicographic order
    assert list(map(tuple, got.tolist())) == brute_cliques(e, n, h)


def test_list_cliques_k4():
    e = canonical_edges(
        np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
    )
    assert list_cliques(e, 4, 4).tolist() == [[0, 1, 2, 3]]
    assert len(list_cliques(e, 4, 3)) == 4
    assert len(list_cliques(e, 4, 2)) == 6


def test_list_cliques_empty_graph():
    assert list_cliques(np.empty((0, 2), dtype=np.int64), 0, 3).shape == (0, 3)


@pytest.mark.parametrize("seed", [0, 3, "hub", "isolated", "empty"])
def test_truss_triangles_are_the_3_cliques(seed):
    e, n = case_graph(seed, 25)
    tri = utruss.triangles(e, n)
    uv, uw, vw = e[tri[:, 0]], e[tri[:, 1]], e[tri[:, 2]]
    # (uv, uw, vw) are the edges (u, v), (u, w), (v, w) of u < v < w
    assert (uv[:, 0] == uw[:, 0]).all() and (uv[:, 1] == vw[:, 0]).all()
    assert (uw[:, 1] == vw[:, 1]).all()
    nodes = np.column_stack([uv, uw[:, 1]])
    assert sorted(map(tuple, nodes.tolist())) == sorted(
        map(tuple, list_cliques(e, n, 3).tolist())
    )


# ---- pattern brute forces ---------------------------------------------------

def brute_pattern_count(edges, n, name):
    adj = adjacency(edges, n)
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


def brute_pattern_rows(edges, n, name):
    """Every instance in its pattern's column convention, sorted."""
    adj = adjacency(edges, n)
    rows = []
    if name in ("2-star", "3-star"):
        k = 2 if name == "2-star" else 3
        for c in range(n):
            rows += [(c, *leaves) for leaves in combinations(sorted(adj[c]), k)]
    elif name == "diamond":
        for u, v in edges.tolist():
            common = sorted(adj[u] & adj[v])
            rows += [(u, v, w, x) for w, x in combinations(common, 2)]
    elif name == "c3-star":
        for tri in brute_cliques(edges, n, 3):
            for c in tri:
                rest = sorted(set(tri) - {c})
                rows += [(c, *rest, p) for p in sorted(adj[c] - set(tri))]
    return sorted(rows)


@pytest.mark.parametrize("seed", CASES)
@pytest.mark.parametrize("name", list(PATTERNS))
def test_pattern_counts_match_brute(seed, name):
    e, n = case_graph(seed, 22)
    insts = enumerate_instances(e, n, name)
    assert insts.shape == (len(insts), PATTERNS[name].n_nodes)
    assert len(insts) == brute_pattern_count(e, n, name)
    # the same rows, each in the pattern's column convention, none twice
    assert sorted(map(tuple, insts.tolist())) == brute_pattern_rows(e, n, name)


@pytest.mark.parametrize("seed", CASES)
@pytest.mark.parametrize(
    "notion", ["edge", "clique:3", "clique:4", "clique:5", *PATTERNS]
)
def test_instance_pairs_are_edges(seed, notion):
    """Every ``instance_pairs`` column pair of every row maps, through
    ``instance_edge_ids``, to the edge row holding that very pair."""
    e, n = case_graph(seed, 25)
    insts = instances(e, n, notion)
    cols = np.array(instance_pairs(notion))
    a, b = insts[:, cols[:, 0]], insts[:, cols[:, 1]]
    found = e[instance_edge_ids(insts, e, notion)]
    assert found.shape == (len(insts), len(cols), 2)
    assert (found[..., 0] == np.minimum(a, b)).all()
    assert (found[..., 1] == np.maximum(a, b)).all()


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
    insts = np.array([(0, 1, 2), (1, 0, 2), (0, 1, 3)])
    groups, counts = instance_groups(insts, np.ones(3, dtype=np.int64))
    assert groups.tolist() == [[0, 1, 2], [0, 1, 3]]
    assert counts.tolist() == [2, 1]
    groups, sums = instance_groups(insts, np.array([5, 7, 11]))
    assert sums.tolist() == [12, 11]


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
