"""k-core / peeling kernels vs brute-force references."""
from fractions import Fraction

import numpy as np
import pytest

from repro.graphs.bruteforce import brute_all_densest, unpruned_all_densest
from repro.graphs.cliques import list_cliques
from repro.graphs.graph import canonical_edges
from repro.graphs.kcore import k_core_nodes
from repro.graphs.peeling import charikar_peel, instance_core, instance_peel

# Random graphs as (n, sampled node pairs, seed): the small ones first,
# then n = 200 ones on which the batched peels run many rounds.
KCORE_GRAPHS = [(12, 30, s) for s in range(8)] + [(200, 300, s) for s in range(3)]
PEEL_GRAPHS = [(10, 25, s) for s in range(6)] + [(200, 400, s) for s in range(3)]


def graph_ids(graphs):
    return [str(s) if n <= 12 else f"n{n}-{s}" for n, _, s in graphs]


def brute_k_core(edges, n, k):
    alive = set(range(n))
    while True:
        deg = {v: 0 for v in alive}
        for u, v in edges:
            if u in alive and v in alive:
                deg[u] += 1
                deg[v] += 1
        drop = {v for v in alive if deg[v] < k}
        if not drop:
            return alive
        alive -= drop


@pytest.mark.parametrize("n, pairs, seed", KCORE_GRAPHS, ids=graph_ids(KCORE_GRAPHS))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_k_core_matches_brute(n, pairs, seed, k):
    g = np.random.default_rng(seed)
    e = canonical_edges(g.integers(0, n, size=(pairs, 2)))
    got = set(k_core_nodes(e, n, k).tolist())
    exp = brute_k_core([tuple(x) for x in e.tolist()], n, k)
    # brute force keeps isolated nodes when k == 0 only; for k >= 1 match
    assert got == {v for v in exp}


def test_k_core_zero_returns_all():
    e = np.array([[0, 1]])
    assert set(k_core_nodes(e, 3, 0).tolist()) == {0, 1, 2}


@pytest.mark.parametrize("n, pairs, seed", PEEL_GRAPHS, ids=graph_ids(PEEL_GRAPHS))
def test_charikar_peel_is_half_approx_and_achieved(n, pairs, seed):
    g = np.random.default_rng(seed)
    e = canonical_edges(g.integers(0, n, size=(pairs, 2)))
    if len(e) == 0:
        pytest.skip("empty draw")
    best, best_set = charikar_peel(e, n)
    # achieved: density of the returned set equals `best`
    cnt = sum(1 for u, v in e if u in best_set and v in best_set)
    assert Fraction(cnt, len(best_set)) == best
    # exact optimum (brute force where 2^n subsets are few) within factor 2
    if n <= 12:
        rho, _ = brute_all_densest(e, "edge")
    else:
        rho = unpruned_all_densest(e, "edge").rho
    assert best <= rho <= 2 * best


def test_charikar_peel_empty():
    best, s = charikar_peel(np.empty((0, 2), dtype=np.int64), 5)
    assert best == 0 and s == set()


def test_instance_peel_matches_edge_peel_on_edges():
    # triangle + pendant: whole graph (4/4) ties the triangle (3/3)
    e = canonical_edges(np.array([[0, 1], [1, 2], [0, 2], [2, 3]]))
    inst = [tuple(x) for x in e.tolist()]
    best_i, set_i, order, dens, degs = instance_peel(inst, 4)
    best_e, set_e = charikar_peel(e, 4)
    assert best_i == best_e == Fraction(1)
    assert set_i in ({0, 1, 2}, {0, 1, 2, 3})
    assert set_e in ({0, 1, 2}, {0, 1, 2, 3})
    assert len(order) == len(dens) == 4


def test_instance_peel_unit_weights_match_unweighted():
    g = np.random.default_rng(0)
    e = canonical_edges(g.integers(0, 12, size=(40, 2)))
    tris = list_cliques(e, 12, 3)
    ones = np.ones(len(tris), dtype=np.int64)
    assert instance_peel(tris, 12, weights=ones) == instance_peel(tris, 12)
    for k in range(1, 5):
        assert instance_core(tris, 12, k, ones) == instance_core(tris, 12, k)


def test_instance_core_triangle_instances():
    # two triangles sharing node 2; instance = triangle
    tris = [(0, 1, 2), (2, 3, 4)]
    assert instance_core(tris, 5, 1) == {0, 1, 2, 3, 4}
    assert instance_core(tris, 5, 2) == set()


def test_instance_core_removal_cascade():
    # instance degree of 2 is 2; removing others kills all instances
    tris = [(0, 1, 2), (0, 1, 3)]
    core = instance_core(tris, 4, 2)
    assert core == set()  # nodes 2,3 have degree 1 -> cascade kills all


def test_instance_peel_empty():
    best, s, order, dens, degs = instance_peel([], 4)
    assert best == 0 and s == set() and order == [] and dens == []
