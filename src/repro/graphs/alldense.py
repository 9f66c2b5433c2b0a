"""Enumerate ALL densest subgraphs of a deterministic graph.

Edge density follows Chang & Qiao (WWW'20): Goldberg network at α = ρ*,
residual graph under a max flow, SCC condensation, then every
*independent component set* (antichain of non-trivial SCCs intersecting
V) maps bijectively to a densest subgraph via C ∪ des(C) (Algorithm 3).
h-clique density (Algorithm 2) and pattern density (Algorithm 4) share
one pipeline over node-tuple instances, on the grouped-instance network
of Algorithm 7: an h-clique is the pattern K_h. ``instances`` is the one
place that turns a density notion into its instances.

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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cliques import list_cliques
from .goldberg import build_edge_network, build_pattern_network, goldberg_search
from .graph import canonical_edges, induced_edge_count, relabel
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
    net, s: int, t: int, vid_of: dict[int, int], max_enum: int
) -> tuple[list[frozenset[int]], frozenset[int], bool]:
    """Shared tail of Algorithms 2/4 and the edge pipeline.

    ``vid_of`` maps network node id → graph node id for V-nodes.
    Returns (all densest node sets, max-sized densest, truncated).
    """
    arcs = net.residual_arcs()
    comp = tarjan_scc(net.n, arcs)
    n_comps, out = condensation(net.n, arcs, comp)
    cs, ct = comp[s], comp[t]
    # V-nodes per component; components of s and t are trivial (excluded).
    comp_nodes: list[list[int]] = [[] for _ in range(n_comps)]
    for net_id, g_id in vid_of.items():
        comp_nodes[comp[net_id]].append(g_id)
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
    return results, union_nodes, truncated


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

    def density_of(S: set[int]) -> Fraction:
        return Fraction(induced_edge_count(ce2, S), len(S))

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
    rho, _, (net, s, t, vid, _total) = goldberg_search(
        lambda alpha: build_edge_network(ce2, n2, alpha),
        n2, density_of(witness), witness, density_of,
    )
    vid_of = {vid[i]: int(ids[ids2[i]]) for i in range(n2)}
    subs, union_nodes, truncated = _enumerate_from_residual(
        net, s, t, vid_of, max_enum
    )
    return DensestResult(rho, subs, union_nodes, len(subs), truncated, n2)


def _all_densest_instances(
    edges: np.ndarray, notion: str, max_enum: int
) -> DensestResult:
    """Algorithms 2 and 4: all h-clique- or ψ-densest subgraphs (exact)."""
    e = canonical_edges(edges)
    if len(e) == 0:
        return DensestResult(Fraction(0), [], frozenset(), 0)
    ce, ids = relabel(e)
    n = len(ids)
    insts = instances(ce, n, notion)
    if not insts:
        return DensestResult(Fraction(0), [], frozenset(), 0)
    rho_tilde, _ps, _, _, _ = instance_peel(insts, n)
    core_set = instance_core(insts, n, int(np.ceil(rho_tilde)))
    core_insts = [c for c in insts if all(v in core_set for v in c)]
    core_ids = np.array(sorted(core_set), dtype=np.int64)
    pos = {int(v): i for i, v in enumerate(core_ids)}
    n2 = len(core_ids)
    insts2 = [tuple(pos[v] for v in c) for c in core_insts]
    groups = group_instances(insts2)

    def density_of(S: set[int]) -> Fraction:
        cnt = sum(1 for c in insts2 if all(v in S for v in c))
        return Fraction(cnt, len(S))

    lo, witness, _, _, _ = instance_peel(insts2, n2)
    rho, _, (net, s, t, vid, _total) = goldberg_search(
        lambda alpha: build_pattern_network(n2, groups, len(insts[0]), alpha),
        n2, lo, witness, density_of,
    )
    vid_of = {vid[i]: int(ids[core_ids[i]]) for i in range(n2)}
    subs, union_nodes, truncated = _enumerate_from_residual(
        net, s, t, vid_of, max_enum
    )
    return DensestResult(rho, subs, union_nodes, len(subs), truncated, n2)


def all_densest(
    edges: np.ndarray, notion: str, max_enum: int = 100_000
) -> DensestResult:
    """All densest subgraphs for 'edge', 'clique:h', or a pattern name."""
    if notion == "edge":
        return all_densest_edge(edges, max_enum)
    return _all_densest_instances(edges, notion, max_enum)
