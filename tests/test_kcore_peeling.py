"""Batched peel, rounds core and sequential peel vs brute-force references."""
from fractions import Fraction

import numpy as np
import pytest

from repro.graphs.alldense import instances
from repro.graphs.bruteforce import brute_all_densest, unpruned_all_densest
from repro.graphs.cliques import list_cliques
from repro.graphs.graph import canonical_edges
from repro.graphs.peeling import charikar_peel, instance_peel, k_core_nodes

# Random graphs as (n, sampled node pairs, seed): the small ones first,
# then n = 200 ones on which the batched peels run many rounds.
KCORE_GRAPHS = [(12, 30, s) for s in range(8)] + [(200, 300, s) for s in range(3)]
PEEL_GRAPHS = [(10, 25, s) for s in range(6)] + [(200, 400, s) for s in range(3)]
WIDTH = {"clique:3": 3, "2-star": 3, "diamond": 4}


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


def brute_instance_core(insts, weights, n, k):
    """The (k, ·)-core by dropping one node at a time, over tuples."""
    alive = set(range(n))
    while True:
        deg = {v: 0 for v in alive}
        for inst, w in zip(insts, weights):
            if set(inst) <= alive:
                for v in inst:
                    deg[v] += w
        low = [v for v in sorted(alive) if deg[v] < k]
        if not low:
            return alive
        alive.discard(low[0])


def random_instances(seed, notion, n=9, p=0.6):
    g = np.random.default_rng(seed)
    e = canonical_edges(np.array(
        [(u, v) for u in range(n) for v in range(u + 1, n) if g.random() < p]
    ).reshape(-1, 2))
    return e, instances(e, n, notion)


@pytest.mark.parametrize("n, pairs, seed", KCORE_GRAPHS, ids=graph_ids(KCORE_GRAPHS))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_k_core_matches_brute(n, pairs, seed, k):
    g = np.random.default_rng(seed)
    e = canonical_edges(g.integers(0, n, size=(pairs, 2)))
    got = set(k_core_nodes(e, n, k).tolist())
    exp = brute_k_core([tuple(x) for x in e.tolist()], n, k)
    # brute force keeps isolated nodes when k == 0 only; for k >= 1 match
    assert got == {v for v in exp}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
@pytest.mark.parametrize("notion", ["clique:3", "2-star"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_instance_core_matches_brute(k, notion, weighted, seed):
    _, insts = random_instances(seed, notion)
    g = np.random.default_rng(seed + 1)
    w = g.integers(1, 3, len(insts)) if weighted else np.ones(len(insts), dtype=np.int64)
    got = k_core_nodes(insts, 9, k, w if weighted else None)
    exp = brute_instance_core(insts.tolist(), w.tolist(), 9, k)
    assert set(got.tolist()) == exp


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


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("notion", list(WIDTH))
def test_batched_peel_is_1_over_h_approx_and_achieved(notion, seed):
    e, insts = random_instances(seed, notion)
    if len(insts) == 0:
        pytest.skip("no instance")
    best, best_set = charikar_peel(insts, 9)
    cnt = sum(1 for t in insts.tolist() if set(t) <= best_set)
    assert Fraction(cnt, len(best_set)) == best
    rho, _ = brute_all_densest(e, notion)
    assert best <= rho <= WIDTH[notion] * best


def test_charikar_peel_empty():
    best, s = charikar_peel(np.empty((0, 2), dtype=np.int64), 5)
    assert best == 0 and s == set()


def test_instance_peel_matches_edge_peel_on_edges():
    # triangle + pendant: whole graph (4/4) ties the triangle (3/3)
    e = canonical_edges(np.array([[0, 1], [1, 2], [0, 2], [2, 3]]))
    order, totals, degs = instance_peel(e, 4)
    best_e, set_e = charikar_peel(e, 4)
    # the suffix left after removal i has 4 - i - 1 nodes
    dens = [Fraction(t, 3 - i) for i, t in enumerate(totals[:-1])]
    assert max([Fraction(len(e), 4), *dens]) == best_e == Fraction(1)
    assert set_e in ({0, 1, 2}, {0, 1, 2, 3})
    assert order[0] == 3 and degs[0] == 1
    assert len(order) == len(totals) == len(degs) == 4
    assert totals == [3, 1, 0, 0]


@pytest.mark.parametrize("width", [2, 3])
def test_unit_weights_match_unweighted(width):
    g = np.random.default_rng(0)
    e = canonical_edges(g.integers(0, 12, size=(40, 2)))
    insts = e if width == 2 else np.array(list_cliques(e, 12, 3))
    ones = np.ones(len(insts), dtype=np.int64)
    assert charikar_peel(insts, 12, ones) == charikar_peel(insts, 12)
    for k in range(1, 5):
        np.testing.assert_array_equal(
            k_core_nodes(insts, 12, k, ones), k_core_nodes(insts, 12, k)
        )


def test_instance_core_triangle_instances():
    # two triangles sharing node 2; instance = triangle
    tris = np.array([(0, 1, 2), (2, 3, 4)])
    assert set(k_core_nodes(tris, 5, 1).tolist()) == {0, 1, 2, 3, 4}
    assert set(k_core_nodes(tris, 5, 2).tolist()) == set()


def test_instance_core_removal_cascade():
    # instance degree of 2 is 2; removing others kills all instances
    tris = np.array([(0, 1, 2), (0, 1, 3)])
    core = k_core_nodes(tris, 4, 2)
    assert set(core.tolist()) == set()  # nodes 2,3 have degree 1 -> cascade kills all


def test_instance_peel_empty():
    order, totals, degs = instance_peel(np.empty((0, 3), dtype=np.int64), 4)
    assert order == [] and totals == [] and degs == []
