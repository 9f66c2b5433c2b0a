"""Enumerate ALL densest subgraphs of a deterministic graph.

Edge density follows Chang & Qiao (WWW'20): Goldberg network at α = ρ*,
residual graph under a max flow, SCC condensation, then every
*independent component set* (antichain of non-trivial SCCs intersecting
V) maps bijectively to a densest subgraph via C ∪ des(C) (Algorithm 3).
h-clique density (Algorithm 2) and pattern density (Algorithm 4) share
one pipeline over node-tuple instances, on the grouped-instance network
of Algorithm 7: an h-clique is the pattern K_h. ``instances`` is the one
place that turns a density notion into its instances, and
``instance_search`` the one search over them; with integer instance
weights it also finds the expected densest subgraph (``baselines/eds.py``).

Per-world convention (matches the paper's Table I accounting): a world
with no edge / no h-clique / no ψ-instance has maximum density 0 and
contributes NO densest subgraph.

Every result is exact; ``max_enum`` caps the (possibly exponential)
number of enumerated subgraphs — the ``truncated`` flag reports the cap
being hit. The maximum-sized densest subgraph (union of all densest
subgraphs, footnote 5 / Balalau et al.) is computed directly from the
SCCs without enumeration, so NDS never truncates.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cliques import list_cliques
from .goldberg import (
    Builder,
    Network,
    build_edge_network,
    build_pattern_network,
    goldberg_search,
)
from .graph import canonical_edges, relabel
from .kcore import k_core_nodes
from .patterns import enumerate_instances, group_instances
from .peeling import charikar_peel, instance_core, instance_peel
from .scc import condensation, descendants_bitsets, tarjan_scc


@dataclass
class DensestResult:
    """All densest subgraphs of one deterministic graph (original labels)."""

    rho: Fraction  # maximum density (0 ⇒ no dense structure at all)
    subgraphs: list[frozenset[int]]  # all densest node sets (maybe truncated)
    max_sized: frozenset[int]  # union of all densest subgraphs
    n_densest: int  # number enumerated (== len(subgraphs))
    truncated: bool = False
    core_nodes: int = 0  # pruned-core size (complexity reporting)


def instances(
    edges: np.ndarray, n: int, notion: str
) -> list[tuple[int, ...]]:
    """The instances of ``notion`` in a graph on compact ids ``0..n-1``.

    ``'edge'`` gives each edge as a sorted pair, ``'clique:h'`` the
    h-cliques, and a pattern name its ψ-instances; the instance size
    |V_ψ| is the tuple length. Calls go through this module's globals
    ``list_cliques`` and ``enumerate_instances``, so wrapping them here
    sees every instance listing.
    """
    if notion == "edge":
        return [tuple(sorted((int(u), int(v)))) for u, v in edges]
    if notion.startswith("clique:"):
        return list_cliques(edges, n, int(notion.split(":")[1]))
    return enumerate_instances(edges, n, notion)


def _enumerate_from_residual(
    rho: Fraction, network: Network, graph_ids: np.ndarray, max_enum: int
) -> DensestResult:
    """Shared tail of Algorithms 2/4 and the edge pipeline.

    ``network`` holds its max-flow residual at α = ρ*, and its V-node i
    is graph node ``graph_ids[i]``.
    """
    net, s, t, vid, _total = network
    arcs = net.residual_arcs()
    comp = tarjan_scc(net.n, arcs)
    n_comps, out = condensation(net.n, arcs, comp)
    cs, ct = comp[s], comp[t]
    # V-nodes per component; components of s and t are trivial (excluded).
    comp_nodes: list[list[int]] = [[] for _ in range(n_comps)]
    for i, g_id in enumerate(graph_ids):
        comp_nodes[comp[vid[i]]].append(int(g_id))
    nontrivial = [c for c in range(n_comps) if c != cs and c != ct]
    nontrivial_set = set(nontrivial)
    # Restrict the DAG to non-trivial components (Lemma 8: dropping the
    # SCCs of s and t cannot disconnect paths among the others).
    out_nt: list[set[int]] = [set() for _ in range(n_comps)]
    for c in nontrivial:
        out_nt[c] = {d for d in out[c] if d in nontrivial_set}
    des = descendants_bitsets(n_comps, out_nt)
    anc = [0] * n_comps
    for c in nontrivial:
        m = des[c]
        while m:
            low = m & -m
            anc[low.bit_length() - 1] |= 1 << c
            m ^= low
    # Max-sized densest subgraph: union of V-nodes over all non-trivial
    # components (every V-intersecting component is a singleton antichain).
    union_nodes = frozenset(
        v for c in nontrivial for v in comp_nodes[c]
    )
    # Candidates for antichain roots: components with V-nodes.
    cands = [c for c in nontrivial if comp_nodes[c]]
    results: list[frozenset[int]] = []
    truncated = False

    def closure_nodes(mask: int) -> frozenset[int]:
        nodes: set[int] = set()
        m = mask
        while m:
            low = m & -m
            c = low.bit_length() - 1
            nodes.update(comp_nodes[c])
            m ^= low
        return frozenset(nodes)

    # Algorithm 3, iterative (explicit stack): each step extends the
    # current antichain by one candidate and emits its closure.
    stack: list[tuple[int, list[int]]] = [(0, cands)]
    while stack:
        closure_mask, allowed = stack.pop()
        for i, c in enumerate(allowed):
            new_mask = closure_mask | (1 << c) | des[c]
            results.append(closure_nodes(new_mask))
            if len(results) >= max_enum:
                truncated = True
                stack.clear()
                break
            nxt = [
                d
                for d in allowed[i + 1 :]
                if not (des[c] >> d) & 1 and not (anc[c] >> d) & 1
            ]
            if nxt:
                stack.append((new_mask, nxt))
        if truncated:
            break
    return DensestResult(
        rho, results, union_nodes, len(results), truncated, len(graph_ids)
    )


def all_densest_edge(
    edges: np.ndarray, max_enum: int = 100_000
) -> DensestResult:
    """All edge-densest subgraphs (Chang & Qiao pipeline, exact)."""
    e = canonical_edges(edges)
    if len(e) == 0:
        return DensestResult(Fraction(0), [], frozenset(), 0)
    ce, ids = relabel(e)
    n = len(ids)
    rho_tilde, peel_set = charikar_peel(ce, n)
    k = math.ceil(rho_tilde)
    # Every densest subgraph has minimum degree ≥ ρ* ≥ ρ̃, so it lies in
    # the ⌈ρ̃⌉-core, which is therefore never empty.
    in_core = np.zeros(n, dtype=bool)
    in_core[k_core_nodes(ce, n, k)] = True
    ce2, ids2 = relabel(ce[in_core[ce[:, 0]] & in_core[ce[:, 1]]])
    n2 = len(ids2)

    builder, density_of = instance_network(ce2, n2)
    # A batched peel may keep nodes of degree < ρ̃ outside the core.
    # Dropping such a node only raises the density, so the peel set's own
    # ⌈ρ̃⌉-core is a witness of density ≥ ρ̃ inside the core.
    peel = np.fromiter(peel_set, dtype=np.int64, count=len(peel_set))
    if not in_core[peel].all():
        in_peel = np.zeros(n, dtype=bool)
        in_peel[peel] = True
        peel = k_core_nodes(ce[in_peel[ce[:, 0]] & in_peel[ce[:, 1]]], n, k)
    witness = set(np.searchsorted(ids2, peel).tolist())
    # Exact enumeration on the search's last residual, at α = ρ*.
    rho, _, network = goldberg_search(
        builder, n2, density_of(witness), witness, density_of
    )
    return _enumerate_from_residual(rho, network, ids[ids2], max_enum)


def instance_network(
    insts: np.ndarray | list[tuple[int, ...]],
    n: int,
    weights: np.ndarray | None = None,
) -> tuple[Builder, Callable[[set[int]], Fraction]]:
    """Flow network builder and exact density for instances on ids ``0..n-1``.

    The density of S is the (integer) weight of the instances inside S
    over |S|. Width-2 instances (edges) get the weighted Goldberg edge
    network, wider ones Algorithm 7's grouped network.
    """
    arr = np.asarray(insts, dtype=np.int64)
    w = np.ones(len(arr), dtype=np.int64) if weights is None else np.asarray(weights)

    def density_of(S: set[int]) -> Fraction:
        member = np.zeros(n, dtype=bool)
        member[list(S)] = True
        return Fraction(int(w[member[arr].all(axis=1)].sum()), len(S))

    if arr.shape[1] == 2:
        return (lambda alpha: build_edge_network(arr, n, alpha, w)), density_of
    groups = group_instances(arr.tolist(), w.tolist())
    width = arr.shape[1]
    return (lambda alpha: build_pattern_network(n, groups, width, alpha)), density_of


def instance_search(
    insts: list[tuple[int, ...]], n: int, weights: np.ndarray | None = None
) -> tuple[Fraction, set[int], Network, np.ndarray]:
    """Exact densest subgraph over node-tuple instances, optionally weighted.

    Instance peel → ⌈ρ̃⌉ instance core → re-index → witness peel →
    ``goldberg_search`` on ``instance_network``. Any node of a densest
    subgraph has (weighted) instance degree ≥ ρ* ≥ ρ̃, so the core keeps
    every optimum. Returns ``(ρ*, a densest witness, the network at ρ*,
    core_ids)``; witness and network use core-compact ids, and
    ``core_ids[i]`` is the id in ``0..n-1`` of core node i.
    """
    rho_tilde = instance_peel(insts, n, weights)[0]
    core = instance_core(insts, n, math.ceil(rho_tilde), weights)
    core_ids = np.array(sorted(core), dtype=np.int64)
    pos = {int(v): i for i, v in enumerate(core_ids)}
    kept = [i for i, c in enumerate(insts) if all(v in core for v in c)]
    insts = [tuple(pos[v] for v in insts[i]) for i in kept]
    weights = None if weights is None else weights[kept]
    n = len(core_ids)
    builder, density_of = instance_network(insts, n, weights)
    lo, witness, _, _, _ = instance_peel(insts, n, weights)
    # Every α the search visits is an achieved density (Σ int weights)/|S|,
    # so its denominator is ≤ n, however large the weights.
    rho, witness, net = goldberg_search(builder, n, lo, witness, density_of)
    return rho, witness, net, core_ids


def all_densest(
    edges: np.ndarray, notion: str, max_enum: int = 100_000
) -> DensestResult:
    """All densest subgraphs for 'edge', 'clique:h' (Algorithm 2), or a
    pattern name (Algorithm 4)."""
    if notion == "edge":
        return all_densest_edge(edges, max_enum)
    ce, ids = relabel(canonical_edges(edges))
    insts = instances(ce, len(ids), notion) if len(ids) else []
    if not insts:
        return DensestResult(Fraction(0), [], frozenset(), 0)
    rho, _, network, core_ids = instance_search(insts, len(ids))
    return _enumerate_from_residual(rho, network, ids[core_ids], max_enum)
