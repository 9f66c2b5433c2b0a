"""Dinkelbach density search + flow-network builders: exact ρ*, witnesses,
and the max-flow certificate the search ends on."""
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from repro.graphs.bruteforce import brute_all_densest
from repro.graphs.cliques import list_cliques
from repro.graphs.goldberg import (
    build_edge_network,
    build_pattern_network,
    goldberg_search,
)
from repro.graphs.graph import canonical_edges, induced_edge_count
from repro.graphs.patterns import enumerate_instances, group_instances
from repro.graphs.peeling import charikar_peel, instance_peel


def random_graph(seed, n=8, p=0.5):
    g = np.random.default_rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if g.random() < p]
    if not edges:
        edges = [(0, 1)]
    return canonical_edges(np.array(edges).reshape(-1, 2)), n


def certified_search(builder, n, lo, witness, density_of):
    """ρ* from ``goldberg_search``, after checking what it certifies.

    The returned network holds a maximum flow (no augmenting path is
    left) whose value out of s is the total capacity, and the returned
    witness attains ρ*.
    """
    rho, w, (net, s, t, _vid, total) = goldberg_search(
        builder, n, lo, witness, density_of
    )
    assert sum(net.cap[eid ^ 1] for eid in net.head[s]) == total
    assert net.max_flow(s, t) == 0
    assert density_of(w) == rho
    return rho


# Integer weights up to 10⁶ are the EDS regime (probabilities scaled by
# 10⁶); unit-weight cases keep their ids from before weights existed.
EDGE_CASES = [pytest.param(seed, 1, id=str(seed)) for seed in range(10)] + [
    pytest.param(seed, 10**6, id=f"w1e6-{seed}") for seed in range(10)
]


@pytest.mark.parametrize("seed, max_weight", EDGE_CASES)
def test_edge_density_search_matches_brute(seed, max_weight):
    e, n = random_graph(seed)
    if max_weight == 1:
        w = np.ones(len(e), dtype=np.int64)
        lo, witness = charikar_peel(e, n)
    else:
        w = np.random.default_rng(seed).integers(1, max_weight + 1, len(e))
        lo, witness, _, _, _ = instance_peel(
            [tuple(x) for x in e.tolist()], n, w
        )

    def density_of(S):
        inside = np.isin(e, list(S)).all(axis=1)
        return Fraction(int(w[inside].sum()), len(S))

    rho = certified_search(
        lambda a: build_edge_network(e, n, a, w), n, lo, witness, density_of
    )
    # ρ* = max over every node subset S of w(S)/|S|.
    assert rho == max(
        density_of(set(S))
        for r in range(1, n + 1) for S in combinations(range(n), r)
    )


@pytest.mark.parametrize("seed", range(6))
def test_clique_density_search_matches_brute(seed):
    e, n = random_graph(seed, p=0.7)
    cl = list_cliques(e, n, 3)
    if not cl:
        pytest.skip("no triangle")
    rho_b, _ = brute_all_densest(e, "clique:3")
    groups = group_instances(cl)  # one triangle per node set
    lo, witness, _, _, _ = instance_peel(cl, n)

    def density_of(S):
        return Fraction(sum(1 for c in cl if all(v in S for v in c)), len(S))

    rho = certified_search(
        lambda a: build_pattern_network(n, groups, 3, a), n, lo, witness,
        density_of,
    )
    assert rho == rho_b


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", ["2-star", "diamond"])
def test_pattern_density_search_matches_brute(seed, name):
    e, n = random_graph(seed, p=0.65)
    insts = enumerate_instances(e, n, name)
    if not insts:
        pytest.skip("no instance")
    rho_b, _ = brute_all_densest(e, name)
    groups = group_instances(insts)
    lo, witness, _, _, _ = instance_peel(insts, n)
    psz = 3 if name == "2-star" else 4

    def density_of(S):
        return Fraction(
            sum(1 for c in insts if all(v in S for v in c)), len(S)
        )

    rho = certified_search(
        lambda a: build_pattern_network(n, groups, psz, a), n, lo, witness,
        density_of,
    )
    assert rho == rho_b


def test_edge_network_total_capacity_scaled():
    e = canonical_edges(np.array([[0, 1], [1, 2]]))
    alpha = Fraction(1, 3)
    net, s, t, vid, total = build_edge_network(e, 3, alpha)
    assert total == 2 * 2 * 3  # 2m * denominator


def test_weighted_edge_network():
    e = canonical_edges(np.array([[0, 1]]))
    w = np.array([5], dtype=np.int64)
    net, s, t, vid, total = build_edge_network(e, 2, Fraction(1, 2), w)
    assert total == 2 * 5 * 2


def test_search_trivial_graph():
    e = canonical_edges(np.array([[0, 1]]))

    def density_of(S):
        return Fraction(induced_edge_count(e, S), len(S))

    lo, witness = charikar_peel(e, 2)
    rho, w, _ = goldberg_search(
        lambda a: build_edge_network(e, 2, a), 2, lo, witness, density_of
    )
    assert rho == Fraction(1, 2) and w == {0, 1}


def test_search_on_known_k5():
    e = canonical_edges(
        np.array([(u, v) for u in range(5) for v in range(u + 1, 5)])
    )
    lo, witness = charikar_peel(e, 5)

    def density_of(S):
        return Fraction(induced_edge_count(e, S), len(S))

    rho, w, _ = goldberg_search(
        lambda a: build_edge_network(e, 5, a), 5, lo, witness, density_of
    )
    assert rho == Fraction(2) and w == set(range(5))
