"""Exact maximum-density computation via Dinkelbach's iteration.

Every density notion shares one skeleton: a flow network parameterized
by a rational guess α = a/b, built with *integer* capacities
(everything scaled by b, the denominator). A subgraph denser than α
exists iff the min s-t cut is strictly below the total capacity out of
s; the residual source side then witnesses such a subgraph.

The search (Dinkelbach 1967; Goldberg 1984) sets α to the density of
the best witness so far, starting from the peel's. A cut below the total
yields a strictly denser witness and a new α; a flow equal to the total
certifies α = ρ*, and that last network, with its max-flow residual at
α = ρ*, is exactly what the densest-subgraph enumeration needs. Every α
is an achieved density, so its denominator is at most n and the
capacities stay small integers.

Network builders (paper references):
* edge density       — Goldberg 1984 / Chang & Qiao WWW'20 (Example 4);
                       with integer edge weights, the Zou 2013
                       expected-density baseline
* h-clique and pattern density — Algorithm 7 (Fang et al. VLDB'19,
                       grouped instances); an h-clique is the pattern K_h
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable

import numpy as np

from .maxflow import FlowNetwork

# (net, s, t, v_node_ids, total): v_node_ids[i] is the network node id
# of graph node i, and total the capacity out of s.
Network = tuple[FlowNetwork, int, int, list[int], int]
Builder = Callable[[Fraction], Network]


def build_edge_network(
    edges: np.ndarray, n: int, alpha: Fraction, weights: np.ndarray | None = None
) -> Network:
    """Goldberg network for (weighted) edge density, scaled to integers.

    Nodes: s=0, t=1, graph node v ↦ 2+v. Capacities (×b for α = a/b):
    s→v: wdeg(v)·b, u↔v: w_e·b, v→t: 2a·(w scale built into a).
    """
    a, b = alpha.numerator, alpha.denominator
    w = weights if weights is not None else np.ones(len(edges), dtype=np.int64)
    net = FlowNetwork(n + 2)
    s, t = 0, 1
    wdeg = np.zeros(n, dtype=np.int64)
    if len(edges):
        np.add.at(wdeg, edges[:, 0], w)
        np.add.at(wdeg, edges[:, 1], w)
    total = 0
    for v in range(n):
        if wdeg[v] > 0:
            net.add_edge(s, 2 + v, int(wdeg[v]) * b)
            total += int(wdeg[v]) * b
        net.add_edge(2 + v, t, 2 * a)
    for (u, v), we in zip(edges, w):
        net.add_undirected(2 + int(u), 2 + int(v), int(we) * b)
    return net, s, t, [2 + v for v in range(n)], total


def build_pattern_network(
    n: int,
    groups: dict[frozenset[int], int],
    pattern_size: int,
    alpha: Fraction,
) -> Network:
    """Algorithm 7: flow network for h-clique or pattern density.

    Instances are grouped by node set; ``groups`` maps each node set to
    its instance count |g| (or, for EDS, its integer weight sum).
    Nodes: s, t, one per graph node, one per instance group λ'.
    s→v: deg(v,ψ)·b; v→t: |V_ψ|·a; v'→λ': |g|·b; λ'→v': |g|(|V_ψ|−1)·b.
    """
    a, b = alpha.numerator, alpha.denominator
    deg = np.zeros(n, dtype=np.int64)
    for nodeset, cnt in groups.items():
        for v in nodeset:
            deg[v] += cnt
    keys = sorted(groups, key=sorted)
    net = FlowNetwork(2 + n + len(keys))
    s, t = 0, 1
    vid = [2 + v for v in range(n)]
    total = 0
    for v in range(n):
        if deg[v] > 0:
            net.add_edge(s, vid[v], int(deg[v]) * b)
            total += int(deg[v]) * b
        net.add_edge(vid[v], t, pattern_size * a)
    for i, nodeset in enumerate(keys):
        li = 2 + n + i
        g = groups[nodeset]
        for v in nodeset:
            net.add_edge(vid[v], li, g * b)
            net.add_edge(li, vid[v], g * (pattern_size - 1) * b)
    return net, s, t, vid, total


def goldberg_search(
    builder: Builder,
    n: int,
    lo: Fraction,
    lo_witness: set[int],
    density_of: Callable[[set[int]], Fraction],
) -> tuple[Fraction, set[int], Network]:
    """Dinkelbach's iteration for the maximum density.

    ``lo`` is the density of ``lo_witness``. Each step runs max-flow on
    the network at α = ``lo``: a cut below the total exposes a source
    side of density > α, which becomes the new ``lo`` and witness; a
    flow equal to the total proves no subgraph is denser than ``lo``.
    Each step strictly raises ``lo`` and a graph has finitely many
    achievable densities, so the loop ends, at lo = ρ*.

    Returns ``(ρ*, a densest witness, (net, s, t, vid, total))``; the
    network already holds its max-flow residual at α = ρ*.
    """
    witness = set(lo_witness)
    while True:
        net, s, t, vid, total = builder(lo)
        if net.max_flow(s, t) == total:
            return lo, witness, (net, s, t, vid, total)
        side = net.min_cut_source_side(s)
        cand = {v for v in range(n) if vid[v] in side}
        assert cand, "feasible cut must expose a non-trivial source side"
        alpha, lo, witness = lo, density_of(cand), cand
        assert lo > alpha
