"""Baselines: EDS (vs brute weighted optimum), DDS, (k,η)-core, (k,γ)-truss."""
from itertools import combinations

import numpy as np
import pytest

from repro.baselines import (
    deterministic_densest,
    expected_densest,
    innermost_eta_core,
    innermost_gamma_truss,
)
from repro.baselines.ucore import eta_core_numbers, eta_degree
from repro.baselines.utruss import gamma_truss_numbers
from repro.core.estimate import expected_density
from repro.core.uncertain import UncertainGraph


def random_ug(seed, n=7, p_edge=0.6):
    g = np.random.default_rng(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if g.random() < p_edge
    ]
    if not edges:
        edges = [(0, 1)]
    probs = g.uniform(0.1, 0.95, len(edges))
    return UncertainGraph.from_edges(edges, probs, n=n)


def brute_expected_densest(ug, notion):
    nodes = sorted({int(v) for e in ug.edges for v in e})
    best, best_set = 0.0, frozenset()
    for r in range(1, len(nodes) + 1):
        for sub in combinations(nodes, r):
            d = expected_density(ug, frozenset(sub), notion)
            if d > best + 1e-12:
                best, best_set = d, frozenset(sub)
    return best_set, best


# Edge cases keep their ids from before the notion parameter existed.
EDS_CASES = [
    pytest.param(seed, notion, id=str(seed) if notion == "edge" else f"{notion}-{seed}")
    for notion in ("edge", "clique:3", "2-star")
    for seed in range(10)
]


@pytest.mark.parametrize("seed, notion", EDS_CASES)
def test_eds_matches_brute_optimum(seed, notion):
    ug = random_ug(seed)
    got_set, got_d = expected_densest(ug, notion)
    _exp_set, exp_d = brute_expected_densest(ug, notion)
    # EDS rounds probabilities and instance weights to multiples of 1e-6.
    assert got_d == pytest.approx(exp_d, abs=1e-5)
    # the returned set achieves the optimum
    assert expected_density(ug, got_set, notion) == pytest.approx(exp_d, abs=1e-5)


def test_eds_clique_notion_runs():
    ug = random_ug(3, n=6, p_edge=0.8)
    s, d = expected_densest(ug, "clique:3")
    assert len(s) >= 3 and d > 0


def test_eds_pattern_notion_runs():
    ug = random_ug(4, n=6, p_edge=0.8)
    s, d = expected_densest(ug, "2-star")
    assert len(s) >= 3 and d > 0


def test_eds_empty_notion():
    ug = UncertainGraph.from_edges([(0, 1)], [0.5], n=2)
    s, d = expected_densest(ug, "clique:3")  # no triangle anywhere
    assert s == frozenset() and d == 0.0


def test_dds_ignores_probabilities():
    # low-prob K4 vs high-prob single edge: DDS picks the K4
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5)]
    probs = [0.01] * 6 + [0.99]
    ug = UncertainGraph.from_edges(edges, probs, n=6)
    dds, rho = deterministic_densest(ug)
    assert dds == frozenset({0, 1, 2, 3})
    assert float(rho) == pytest.approx(1.5)


def brute_eta_degree(probs, eta, n_mc=40000, seed=0):
    g = np.random.default_rng(seed)
    draws = (g.random((n_mc, len(probs))) < np.array(probs)).sum(axis=1)
    for k in range(len(probs), -1, -1):
        if (draws >= k).mean() >= eta:
            return k
    return 0


@pytest.mark.parametrize("seed", range(5))
def test_eta_degree_matches_monte_carlo(seed):
    g = np.random.default_rng(seed)
    probs = list(g.uniform(0.1, 0.9, size=6))
    for eta in (0.1, 0.5):
        exact = eta_degree(probs, eta)
        mc = brute_eta_degree(probs, eta, seed=seed)
        assert abs(exact - mc) <= 1  # MC noise at the threshold only


def test_eta_degree_edge_cases():
    assert eta_degree([], 0.1) == 0
    assert eta_degree([1.0, 1.0], 0.99) == 2
    assert eta_degree([0.05], 0.5) == 0


def test_eta_core_triangle_plus_pendant():
    edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
    ug = UncertainGraph.from_edges(edges, [0.9, 0.9, 0.9, 0.1], n=4)
    core = eta_core_numbers(ug, eta=0.5)
    assert core[:3].tolist() == [2, 2, 2]
    assert core[3] == 0  # pendant edge too unlikely
    assert innermost_eta_core(ug, 0.5) == frozenset({0, 1, 2})


def test_eta_core_monotone_in_eta():
    ug = random_ug(6, n=8, p_edge=0.7)
    k_loose = eta_core_numbers(ug, 0.05).max()
    k_tight = eta_core_numbers(ug, 0.9).max()
    assert k_loose >= k_tight


def test_gamma_truss_strong_triangle():
    edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
    ug = UncertainGraph.from_edges(edges, [0.95, 0.95, 0.95, 0.05], n=4)
    truss = gamma_truss_numbers(ug, gamma=0.5)
    assert truss[(0, 1)] == 3  # edge in 1 likely triangle: support 1 -> k=3
    assert innermost_gamma_truss(ug, 0.5) == frozenset({0, 1, 2})


def test_gamma_truss_low_prob_returns_empty():
    ug = UncertainGraph.from_edges([(0, 1), (1, 2), (0, 2)], [0.01] * 3, n=3)
    assert innermost_gamma_truss(ug, gamma=0.5) == frozenset()


def test_gamma_truss_no_triangles():
    ug = UncertainGraph.from_edges([(0, 1), (1, 2)], [0.9, 0.9], n=3)
    truss = gamma_truss_numbers(ug, gamma=0.1)
    assert all(t == 2 for t in truss.values())  # support 0 -> k = 2
