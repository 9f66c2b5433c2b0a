"""Core-decomposition heuristic (§III-C remark)."""
from fractions import Fraction

import numpy as np
import pytest

from repro import datasets
from repro.core.sampling import sample_block
from repro.graphs.alldense import all_densest
from repro.graphs.bruteforce import brute_all_densest
from repro.graphs.graph import canonical_edges
from repro.graphs.heuristic import heuristic_dense
from repro.graphs.patterns import PATTERNS


def random_graph(seed, n=9, p=0.5):
    g = np.random.default_rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if g.random() < p]
    return canonical_edges(np.array(edges, dtype=np.int64).reshape(-1, 2))


@pytest.mark.parametrize("seed", range(6))
def test_edge_heuristic_at_least_half_optimal(seed):
    e = random_graph(seed)
    rho, _ = brute_all_densest(e, "edge")
    h = heuristic_dense(e, "edge")
    assert h.rho >= rho / 2  # Charikar guarantee


@pytest.mark.parametrize("name", list(PATTERNS))
def test_pattern_heuristic_guarantee(name):
    e = random_graph(11, n=8, p=0.7)
    rho, _ = brute_all_densest(e, name)
    h = heuristic_dense(e, name)
    assert h.rho >= rho / PATTERNS[name].n_nodes  # 1/|V_psi| guarantee


def test_heuristic_best_density_is_achieved():
    e = random_graph(3)
    h = heuristic_dense(e, "edge")
    cnt = sum(1 for u, v in e if int(u) in h.best and int(v) in h.best)
    assert Fraction(cnt, len(h.best)) == h.rho


def test_heuristic_empty_graph():
    h = heuristic_dense(np.empty((0, 2), dtype=np.int64), "edge")
    assert h.rho == 0 and h.best == frozenset()


def test_heuristic_no_instances():
    h = heuristic_dense(np.array([[0, 1], [1, 2]]), "clique:3")
    assert h.rho == 0 and h.best == frozenset()


def test_heuristic_often_finds_exact_on_clean_structure():
    # a clear K5 against sparse noise: the innermost core IS the optimum
    e = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    e += [(5, 6), (6, 7), (7, 8)]
    e = canonical_edges(np.array(e))
    h = heuristic_dense(e, "edge")
    exact = all_densest(e, "edge")
    assert h.best == exact.max_sized == frozenset(range(5))
    assert h.rho == exact.rho


# (ρ, best) that heuristic_dense returned when it still kept a list of up
# to 32 candidate peel suffixes, on MC worlds 0-2 (karate) and 0-1
# (intel) of seed 0 at θ = 8. Karate's worlds cover both outcomes: the
# innermost core (edge 0, clique:3, diamond 1), a strictly denser suffix
# (edge 1, 2-star, diamond 0), and no instance (diamond 2).
INTEL = set(range(54))
HEURISTIC_PINNED = {
    ("karate", "edge", 0): ("3/2", {0, 1, 3, 13}),
    ("karate", "edge", 1): ("8/5", {8, 14, 30, 32, 33}),
    ("karate", "edge", 2): ("5/4", {0, 1, 2, 3, 5, 6, 7, 13, 26, 29, 32, 33}),
    ("karate", "clique:3", 0): ("1", {0, 1, 3, 13}),
    ("karate", "clique:3", 1): ("1", {8, 30, 32, 33}),
    ("karate", "clique:3", 2): ("2/5", {0, 2, 5, 6, 7}),
    ("karate", "2-star", 0): ("5", {0, 1, 2, 3, 4, 7, 13, 17, 19, 31}),
    ("karate", "2-star", 1): ("49/10", {8, 14, 15, 22, 27, 29, 30, 31, 32, 33}),
    ("karate", "2-star", 2): (
        "59/20", {0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 13, 14, 18, 20, 22, 26, 27, 29, 32, 33}
    ),
    ("karate", "diamond", 0): ("8/5", {0, 1, 3, 13, 19}),
    ("karate", "diamond", 1): ("3/2", {8, 30, 32, 33}),
    ("karate", "diamond", 2): ("0", set()),
    ("intel", "edge", 0): ("118/23", INTEL - {12, 26, 33, 34, 48, 49, 51, 53}),
    ("intel", "edge", 1): ("295/48", INTEL - {12, 44, 48, 51, 52, 53}),
    ("intel", "clique:3", 0): ("79/21", INTEL - {5, 12, 26, 33, 34, 35, 45, 46, 48, 49, 51, 53}),
    ("intel", "clique:3", 1): ("101/16", INTEL - {44, 48, 50, 51, 52, 53}),
    ("intel", "2-star", 0): ("1272/25", INTEL - {12, 34, 51, 53}),
    ("intel", "2-star", 1): ("3825/52", INTEL - {44, 51}),
    ("intel", "diamond", 0): ("11", INTEL - {5, 12, 26, 28, 34, 35, 45, 46, 48, 49, 51, 53}),
    ("intel", "diamond", 1): ("1339/48", INTEL - {44, 46, 48, 51, 52, 53}),
}
GRAPHS = {"karate": datasets.karate_club, "intel": datasets.intel_lab}


@pytest.mark.parametrize("name, notion, world", list(HEURISTIC_PINNED))
def test_heuristic_pinned_worlds(name, notion, world):
    ug = GRAPHS[name]()
    masks, _, _ = sample_block(ug.probs, 0, 8, 0, "mc", 8)
    rho, best = heuristic_dense(ug.edges[masks[world]], notion)
    exp_rho, exp_best = HEURISTIC_PINNED[name, notion, world]
    assert rho == Fraction(exp_rho)
    assert best == frozenset(exp_best)
