"""Exact all-densest-subgraph enumeration vs brute force (the core oracle).

These validate the paper's Algorithms 2/3/4 and the Chang&Qiao edge
case end-to-end: exact ρ*, the complete list of densest subgraphs
(each exactly once), and the maximum-sized densest subgraph (= union).
"""
from fractions import Fraction

import numpy as np
import pytest

from repro import datasets
from repro.baselines.eds import expected_densest
from repro.core.sampling import sample_block
from repro.graphs.alldense import all_densest
from repro.graphs.bruteforce import brute_all_densest, unpruned_all_densest
from repro.graphs.graph import canonical_edges
from repro.graphs.maxflow import FlowNetwork

NOTIONS = ["edge", "clique:3", "clique:4", "2-star", "3-star", "c3-star", "diamond"]


def random_graph(seed, n_max=9):
    g = np.random.default_rng(seed)
    n = int(g.integers(3, n_max + 1))
    p = g.uniform(0.25, 0.85)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if g.random() < p
    ]
    return canonical_edges(np.array(edges, dtype=np.int64).reshape(-1, 2))


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("notion", NOTIONS)
def test_enumeration_matches_brute(seed, notion):
    e = random_graph(seed)
    rho, exp_sets = brute_all_densest(e, notion)
    res = all_densest(e, notion)
    got = sorted(res.subgraphs, key=lambda s: (len(s), sorted(s)))
    assert res.rho == rho
    assert got == exp_sets
    assert not res.truncated
    union = frozenset().union(*exp_sets) if exp_sets else frozenset()
    assert res.max_sized == union


@pytest.mark.parametrize("seed", range(6))
def test_each_subgraph_enumerated_once(seed):
    e = random_graph(seed + 100)
    res = all_densest(e, "edge")
    assert len(set(res.subgraphs)) == len(res.subgraphs)


def test_empty_graph():
    for notion in ("edge", "clique:3", "diamond"):
        res = all_densest(np.empty((0, 2), dtype=np.int64), notion)
        assert res.rho == 0 and res.subgraphs == [] and res.max_sized == frozenset()


def test_single_edge():
    res = all_densest(np.array([[4, 7]]), "edge")
    assert res.rho == Fraction(1, 2)
    assert res.subgraphs == [frozenset({4, 7})]


def test_disconnected_ties_union():
    # two disjoint single edges tie at 1/2; union also ties
    res = all_densest(np.array([[0, 1], [5, 6]]), "edge")
    sets = {frozenset(s) for s in res.subgraphs}
    assert sets == {
        frozenset({0, 1}), frozenset({5, 6}), frozenset({0, 1, 5, 6})
    }
    assert res.max_sized == frozenset({0, 1, 5, 6})


def test_disjoint_triangles_combinatorics():
    # k disjoint triangles at rho = 1: 2^k - 1 densest subgraphs
    tris = []
    for k in range(3):
        b = 3 * k
        tris += [(b, b + 1), (b + 1, b + 2), (b, b + 2)]
    res = all_densest(np.array(tris), "edge")
    assert res.rho == Fraction(1)
    assert res.n_densest == 2**3 - 1


def test_triangle_with_pendant():
    # triangle (3/3) ties the whole graph (4/4) at density 1
    res = all_densest(np.array([[0, 1], [1, 2], [0, 2], [2, 3]]), "edge")
    assert res.rho == Fraction(1)
    assert {frozenset(s) for s in res.subgraphs} == {
        frozenset({0, 1, 2}), frozenset({0, 1, 2, 3})
    }
    assert res.max_sized == frozenset({0, 1, 2, 3})


def test_clique_densest_k4_plus_pendant():
    e = canonical_edges(
        np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3], [3, 4]])
    )
    res = all_densest(e, "clique:3")
    assert res.rho == Fraction(4, 4)
    assert res.subgraphs == [frozenset({0, 1, 2, 3})]


def test_clique_no_instances():
    # a path has no triangle: clique:3 has no densest subgraph
    res = all_densest(np.array([[0, 1], [1, 2]]), "clique:3")
    assert res.rho == 0 and res.subgraphs == []


def test_pattern_no_instances():
    # single edge has no 2-star
    res = all_densest(np.array([[0, 1]]), "2-star")
    assert res.rho == 0 and res.subgraphs == []


def test_max_enum_truncation_flag():
    tris = []
    for k in range(6):  # 63 densest subgraphs
        b = 3 * k
        tris += [(b, b + 1), (b + 1, b + 2), (b, b + 2)]
    res = all_densest(np.array(tris), "edge", max_enum=5)
    assert res.truncated and res.n_densest == 5
    # union must still be complete despite truncation
    assert len(res.max_sized) == 18


def test_original_labels_preserved():
    e = np.array([[100, 200], [200, 300], [100, 300]])
    res = all_densest(e, "edge")
    assert res.subgraphs == [frozenset({100, 200, 300})]


@pytest.mark.parametrize("seed", range(4))
def test_clique5_on_denser_graphs(seed):
    g = np.random.default_rng(seed)
    n = 8
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if g.random() < 0.75
    ]
    e = canonical_edges(np.array(edges).reshape(-1, 2))
    rho, exp_sets = brute_all_densest(e, "clique:5")
    res = all_densest(e, "clique:5")
    assert res.rho == rho
    assert sorted(res.subgraphs, key=lambda s: (len(s), sorted(s))) == exp_sets


def test_paper_example4_shape():
    """Figure 3's possible world: densest subgraphs {A,B,C,D} and {B,C,D}.

    Reconstruction of the world in Fig. 3(b): A-B, B-C, B-D, C-D with
    ρ* = 1; enumeration finds both the 4-cycle-with-chord structure and
    the inner triangle.
    """
    A, B, C, D = 0, 1, 2, 3
    e = canonical_edges(np.array([[A, B], [B, C], [B, D], [C, D]]))
    res = all_densest(e, "edge")
    assert res.rho == Fraction(1)
    assert {frozenset(s) for s in res.subgraphs} == {
        frozenset({A, B, C, D}), frozenset({B, C, D})
    }


# Edge cases keep their ids from before the notion parameter existed.
CORE_PRUNE_CASES = [
    ("karate_club", "mc", 200, "edge"),
    ("intel_lab", "mc", 200, "edge"),
    # An unpruned search on a ~10 000-node world takes ~6 s.
    pytest.param("biomine_lite", "lp", 2, "edge", marks=pytest.mark.slow),
    ("karate_club", "mc", 200, "clique:3"),
    ("intel_lab", "mc", 64, "clique:3"),
    ("karate_club", "mc", 200, "2-star"),
    ("intel_lab", "mc", 32, "2-star"),
    ("lastfm", "mc", 4, "edge"),
    ("karate_club", "mc", 200, "diamond"),
]


@pytest.mark.parametrize(
    "dataset, method, theta, notion",
    CORE_PRUNE_CASES,
    ids=[
        "karate_club-mc-200",
        "intel_lab-mc-200",
        "biomine_lite-lp-2",
        "karate_club-mc-200-clique:3",
        "intel_lab-mc-64-clique:3",
        "karate_club-mc-200-2-star",
        "intel_lab-mc-32-2-star",
        "lastfm-mc-4",
        "karate_club-mc-200-diamond",
    ],
)
def test_core_prune_keeps_every_output(dataset, method, theta, notion):
    """Pruning to the ⌈ρ̃⌉-core changes no output on sampled worlds."""
    ug = getattr(datasets, dataset)()
    masks, _, _ = sample_block(ug.probs, 0, theta, 0, method, theta)
    for w in range(theta):
        we = ug.edges[masks[w]]
        got, exp = all_densest(we, notion), unpruned_all_densest(we, notion)
        assert got.rho == exp.rho, w
        assert got.max_sized == exp.max_sized, w
        assert set(got.subgraphs) == set(exp.subgraphs), w
        assert got.truncated == exp.truncated, w


@pytest.fixture
def flow_calls(monkeypatch):
    """A one-element list counting ``FlowNetwork.max_flow`` calls."""
    calls = [0]
    max_flow = FlowNetwork.max_flow

    def counting(self, s, t):
        calls[0] += 1
        return max_flow(self, s, t)

    monkeypatch.setattr(FlowNetwork, "max_flow", counting)
    return calls


@pytest.mark.parametrize("notion", ["edge", "clique:3"])
def test_search_and_enumeration_share_few_flows(flow_calls, notion):
    """The density search needs few max-flows, and enumeration none of its own.

    K4 plus a pendant: the peel witness, K4, is already densest, so the
    one flow that certifies ρ* is also the one enumeration reads.
    """
    all_densest(np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3], [3, 4]]), notion)
    assert flow_calls[0] == 1
    ug = datasets.karate_club()
    masks, _, _ = sample_block(ug.probs, 0, 200, 0, "mc", 200)
    flow_calls[0] = 0
    for w in range(200):
        all_densest(ug.edges[masks[w]], notion)
    assert flow_calls[0] / 200 <= 2.5


def test_eds_search_needs_few_flows(flow_calls):
    expected_densest(datasets.intel_lab(), "clique:3")
    assert flow_calls[0] <= 3
