"""Baselines: EDS (vs brute weighted optimum), DDS, (k,η)-core, (k,γ)-truss."""
import heapq
from itertools import combinations

import numpy as np
import pytest

from repro.baselines import (
    deterministic_densest,
    expected_densest,
    innermost_eta_core,
    innermost_gamma_truss,
)
from repro import datasets
from repro.baselines import poisbin
from repro.baselines.poisbin import deconvolve, distribution, distributions, tail_index
from repro.baselines.ucore import eta_core_numbers
from repro.baselines.utruss import gamma_truss_numbers
from repro.core.estimate import expected_density
from repro.core.uncertain import UncertainGraph


def random_ug(seed, n=7, p_edge=0.6, p_range=(0.1, 0.95)):
    g = np.random.default_rng(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if g.random() < p_edge
    ]
    if not edges:
        edges = [(0, 1)]
    probs = g.uniform(*p_range, len(edges))
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


# (set, density) that expected_densest returned before EDS moved onto the
# shared instance search of graphs/alldense.py. Intel's nodes are 0..53.
EDS_PINNED = {
    ("karate", "edge"): ({0, 1, 2, 3, 7, 13}, 1.356084),
    ("karate", "clique:3"): ({0, 1, 2, 3, 7, 13}, 0.5454721666666666),
    ("karate", "diamond"): ({0, 1, 2, 3, 7, 13}, 0.7157808333333334),
    ("intel", "edge"): (set(range(54)), 5.464330944444444),
    ("intel", "clique:3"): (set(range(48)), 4.5639251875),
    ("intel", "diamond"): (set(range(54)) - {48, 49, 50, 52, 53}, 16.69751775510204),
}
GRAPHS = {"karate": datasets.karate_club, "intel": datasets.intel_lab}


@pytest.mark.parametrize("name, notion", list(EDS_PINNED))
def test_eds_pinned_sets_and_densities(name, notion):
    got_set, got_d = expected_densest(GRAPHS[name](), notion)
    exp_set, exp_d = EDS_PINNED[name, notion]
    assert got_set == frozenset(exp_set)
    assert got_d == exp_d


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
        exact = tail_index(distribution(probs), eta)
        mc = brute_eta_degree(probs, eta, seed=seed)
        assert abs(exact - mc) <= 1  # MC noise at the threshold only


def test_eta_degree_edge_cases():
    assert tail_index(distribution([]), 0.1) == 0
    assert tail_index(distribution([1.0, 1.0]), 0.99) == 2
    assert tail_index(distribution([0.05]), 0.5) == 0


def full_deconvolve(dist, p):
    """Reference: one Bernoulli(p) out of a whole distribution, by the
    stable recurrence direction (divide by max(p, 1-p) ≥ 0.5), clipped
    to [0, 1] and renormalised."""
    L = len(dist) - 1
    rest = np.empty(L)
    acc = 0.0
    if p <= 0.5:
        for k in range(L):
            acc = (dist[k] - acc * p) / (1.0 - p)
            rest[k] = acc
            acc = max(acc, 0.0)
    else:
        for k in range(L - 1, -1, -1):
            acc = (dist[k + 1] - acc * (1.0 - p)) / p
            rest[k] = acc
            acc = max(acc, 0.0)
    np.clip(rest, 0.0, 1.0, out=rest)
    return rest / rest.sum()


# p ≤ 0.5 runs the forward recurrence on the prefix, p > 0.5 rebuilds it
# from the remaining Bernoullis.
@pytest.mark.parametrize("p", [0.05, 0.5, 0.95, 1.0])
def test_deconvolve_undoes_one_convolution(p):
    rest_probs = np.random.default_rng(0).uniform(0.05, 0.95, 6)
    rest = distribution(rest_probs)
    both = np.convolve(rest, [1 - p, p])
    for k in range(len(both)):
        got = deconvolve(both[:k].tolist(), p, iter(rest_probs))
        np.testing.assert_allclose(got, rest[:k], atol=1e-12)


@pytest.mark.parametrize("p", [0.01, 0.2, 0.5, 0.51, 0.8, 0.99])
@pytest.mark.parametrize("seed", range(4))
def test_deconvolve_prefix_matches_full_deconvolution(seed, p):
    rest_probs = np.random.default_rng(seed).uniform(0.01, 0.99, 9)
    both = distribution([*rest_probs, p])
    full = full_deconvolve(both, p)
    for k in range(len(both)):
        got = deconvolve(both[:k].tolist(), p, iter(rest_probs))
        assert len(got) == k
        np.testing.assert_allclose(got, full[:k], rtol=0, atol=1e-12)


def test_deconvolve_reads_rest_only_to_rebuild():
    def rest():
        raise AssertionError("forward recurrence read the remaining Bernoullis")
        yield

    assert deconvolve([0.25, 0.5], 0.5, rest()) == [0.5, 0.5]
    assert deconvolve([], 0.9, iter([0.3])) == []


def test_distributions_rows_match_one_item_dp():
    g = np.random.default_rng(1)
    counts = [3, 0, 7, 1, 7, 2]
    probs = g.uniform(0.01, 1.0, sum(counts))
    indptr = np.concatenate([[0], np.cumsum(counts)])
    dists = distributions(indptr, probs)
    assert dists.shape == (len(counts), max(counts) + 1)
    for i, c in enumerate(counts):
        dist = np.array([1.0])  # the per-item DP, in the same arithmetic
        for p in probs[indptr[i] : indptr[i + 1]]:
            nxt = np.zeros(len(dist) + 1)
            nxt[: len(dist)] += dist * (1 - p)
            nxt[1:] += dist * p
            dist = nxt
        assert dists[i, : c + 1].tolist() == dist.tolist()
        assert not dists[i, c + 1 :].any()


def test_tail_index_zero_is_exact():
    # This distribution sums to 0.9999999999999999; Pr[X ≥ 0] must
    # still be 1, so scale == threshold gives index 0, not −1.
    a = 0.12222222222222223
    dist = distribution([a * 0.1, a * 0.1])
    assert dist.sum() < 1.0
    assert tail_index(dist, 0.1, scale=0.1) == 0
    assert tail_index([], 0.1, scale=0.1) == 0


def test_truss_number_of_edge_at_threshold():
    # Edge (0,1) exists with probability 0.1 = γ, so its support is ≥ 0
    # and its truss number ≥ 2; summing its two triangles' distribution
    # to 0.9999999999999999 once gave it support −1 (truss number 1).
    a = 0.12222222222222223
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]
    ug = UncertainGraph.from_edges(edges, [0.1, a, 0.1, a, 0.1], n=4)
    assert gamma_truss_numbers(ug, 0.1) == {e: 2 for e in edges}


def test_tail_index_below_scale():
    # Pr[X ≥ 0] = 1, so only a scale below the threshold gives −1.
    assert tail_index(distribution([0.9, 0.9]), 0.5, scale=0.4) == -1
    assert tail_index(distribution([0.9, 0.9]), 0.5, scale=0.6) == 1


def test_distribution_of_nothing():
    assert distribution([]).tolist() == [1.0]


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


# Oracles: the peels as they were before poisbin, rebuilding each
# neighbour's distribution anew on every removal.
def oracle_tail_index(probs, threshold, scale=1.0):
    if scale < threshold:
        return -1
    dist = np.array([1.0])
    for p in probs:
        nxt = np.zeros(len(dist) + 1)
        nxt[: len(dist)] += dist * (1 - p)
        nxt[1:] += dist * p
        dist = nxt
    tail = np.cumsum(dist[::-1])[::-1] * scale
    ks = np.flatnonzero(tail >= threshold)
    return int(ks.max()) if len(ks) else -1


def oracle_peel(items, index, neighbours):
    """Min-index peel; ``index(i)`` reads the current graph, and
    ``neighbours(i)`` removes item i and returns the items it touched."""
    cur = {i: index(i) for i in items}
    heap = [(k, i) for i, k in cur.items()]
    heapq.heapify(heap)
    out, k = {}, -1
    while heap:
        d, i = heapq.heappop(heap)
        if i in out or d != cur[i]:
            continue
        k = max(k, d)
        out[i] = k
        for j in neighbours(i):
            if j not in out and index(j) != cur[j]:
                cur[j] = index(j)
                heapq.heappush(heap, (cur[j], j))
    return out


def oracle_eta_core(ug, eta):
    adj = [dict() for _ in range(ug.n)]
    for (u, v), p in zip(ug.edges, ug.probs):
        adj[int(u)][int(v)] = adj[int(v)][int(u)] = float(p)

    def neighbours(v):
        for w in adj[v]:
            del adj[w][v]
        return list(adj[v])

    def eta_degree(v):
        return oracle_tail_index(adj[v].values(), eta)

    out = oracle_peel(range(ug.n), eta_degree, neighbours)
    return [max(out[v], 0) for v in range(ug.n)]


def oracle_gamma_truss(ug, gamma):
    adj = [dict() for _ in range(ug.n)]
    for (u, v), p in zip(ug.edges, ug.probs):
        adj[int(u)][int(v)] = adj[int(v)][int(u)] = float(p)
    p_of = {(int(u), int(v)): float(p) for (u, v), p in zip(ug.edges, ug.probs)}

    def support(e):
        u, v = e
        tri = [adj[u][w] * adj[v][w] for w in set(adj[u]) & set(adj[v])]
        return oracle_tail_index(tri, gamma, p_of[e])

    def neighbours(e):
        u, v = e
        del adj[u][v], adj[v][u]
        common = set(adj[u]) & set(adj[v])
        return [(min(a, w), max(a, w)) for w in common for a in (u, v)]

    out = oracle_peel(list(p_of), support, neighbours)
    return {e: s + 2 for e, s in out.items()}


ORACLE_GRAPHS = [
    pytest.param(lambda s=seed: random_ug(s, n=12, p_edge=0.5), id=f"random-{seed}")
    for seed in range(6)
] + [
    # Every edge and every triangle product above 0.5: each removal
    # rebuilds the prefix rather than deconvolving it forward.
    pytest.param(
        lambda s=seed: random_ug(s, n=11, p_edge=0.85, p_range=(0.75, 1.0)),
        id=f"dense-{seed}",
    )
    for seed in range(4)
] + [
    pytest.param(datasets.karate_club, id="karate"),
    pytest.param(datasets.intel_lab, id="intel"),
]


@pytest.mark.parametrize("threshold", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("graph", ORACLE_GRAPHS)
def test_peel_numbers_match_rebuild_oracle(graph, threshold):
    ug = graph()
    assert eta_core_numbers(ug, threshold).tolist() == oracle_eta_core(ug, threshold)
    assert gamma_truss_numbers(ug, threshold) == oracle_gamma_truss(ug, threshold)


@pytest.mark.parametrize("graph", [g for g in ORACLE_GRAPHS if g.id != "intel"])
def test_no_index_rises_during_peel(graph, monkeypatch):
    """Each item's index only falls: the first index, then every index
    the peel pushes for it, is strictly decreasing."""
    seen = {}
    first_indices = poisbin._first_indices

    def record_first(*args):
        index, prefix = first_indices(*args)
        seen.clear()
        seen.update({i: [k] for i, k in enumerate(index.tolist())})
        return index, prefix

    def record_push(heap, item):
        seen[item[1]].append(item[0])
        heapq.heappush(heap, item)

    monkeypatch.setattr(poisbin, "_first_indices", record_first)
    monkeypatch.setattr(
        poisbin, "heapq",
        type("recorded", (), {
            "heappush": staticmethod(record_push),
            "heappop": staticmethod(heapq.heappop),
            "heapify": staticmethod(heapq.heapify),
        }),
    )
    ug = graph()
    falls = 0
    for threshold in (0.1, 0.5, 0.9):
        for numbers in (eta_core_numbers, gamma_truss_numbers):
            numbers(ug, threshold)
            for ks in seen.values():
                assert all(a > b for a, b in zip(ks, ks[1:])), ks
                falls += len(ks) - 1
    assert falls > 0
