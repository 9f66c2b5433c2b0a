"""Enumerate ALL densest subgraphs of a deterministic graph.

Every density notion runs one pipeline over node-tuple instances.
``instances`` is the one place that turns a notion into its instances:
the canonical edge array for edge density, the h-cliques for h-clique
density (Algorithm 2), the ψ-instances for pattern density
(Algorithm 4), each an int64 array listed from that edge array's
sorted runs (``cliques.py``, ``patterns.py``). ``instance_search`` is
the one prune and search over them: the batched peel's ρ̃, the
⌈ρ̃⌉-core (Algorithm 1, line 5), then Dinkelbach's search on
``instance_network`` — Goldberg's edge network for width 2, Algorithm
7's grouped-instance network for wider ones, grouped by ``np.unique``
on the row-sorted instances (an h-clique is the pattern K_h). With
integer instance weights it also finds the expected densest subgraph
(``baselines/eds.py``). All densest subgraphs come from the residual at
α = ρ* (Chang & Qiao, WWW'20): SCC condensation, then every
*independent component set* (antichain of non-trivial SCCs intersecting
V) maps bijectively to a densest subgraph via C ∪ des(C) (Algorithm 3).

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
from .patterns import enumerate_instances
from .peeling import charikar_peel, inside, k_core_nodes
from .peeling import instance_peel  # noqa: F401  (see instance_core)
from .scc import condensation, descendants_bitsets, tarjan_scc

# perfbench's traced replay looks up ``instance_peel`` and
# ``instance_core`` on this module; nothing here calls either any more.
instance_core = k_core_nodes


@dataclass
class DensestResult:
    """All densest subgraphs of one deterministic graph (original labels)."""

    rho: Fraction  # maximum density (0 ⇒ no dense structure at all)
    subgraphs: list[frozenset[int]]  # all densest node sets (maybe truncated)
    max_sized: frozenset[int]  # union of all densest subgraphs
    n_densest: int  # number enumerated (== len(subgraphs))
    truncated: bool = False
    core_nodes: int = 0  # pruned-core size (complexity reporting)


def instances(edges: np.ndarray, n: int, notion: str) -> np.ndarray:
    """The instances of ``notion`` as a ``(count, |V_ψ|)`` int64 array.

    ``edges`` is canonical (u < v per row) on ids ``0..n-1``. ``'edge'``
    gives that edge array itself, ``'clique:h'`` the h-cliques, and a
    pattern name its ψ-instances. Calls go through this module's globals
    ``list_cliques`` and ``enumerate_instances``, so wrapping them here
    sees every instance listing.
    """
    if notion == "edge":
        return np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if notion.startswith("clique:"):
        return list_cliques(edges, n, int(notion.split(":")[1]))
    return enumerate_instances(edges, n, notion)


def _enumerate_from_residual(
    rho: Fraction, network: Network, graph_ids: np.ndarray, max_enum: int
) -> DensestResult:
    """Shared tail of every notion's pipeline (Algorithm 3).

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


def _mask(n: int, nodes) -> np.ndarray:
    member = np.zeros(n, dtype=bool)
    member[nodes] = True
    return member


def instance_groups(
    insts: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Instances grouped by node set (Algorithm 7, Line 5).

    Returns ``(groups, group_weights)``: each distinct node set once as
    a sorted row, in lexicographic order, and the sum of its instances'
    integer ``weights`` (its instance count |g| for unit weights).
    """
    groups, inv = np.unique(np.sort(insts, axis=1), axis=0, return_inverse=True)
    group_weights = np.zeros(len(groups), dtype=np.int64)
    np.add.at(group_weights, inv.reshape(-1), weights)
    return groups, group_weights


def instance_network(
    insts: np.ndarray, n: int, weights: np.ndarray | None = None
) -> tuple[Builder, Callable[[set[int]], Fraction]]:
    """Flow network builder and exact density for instances on ids ``0..n-1``.

    The density of S is the (integer) weight of the instances inside S
    over |S|. Width-2 instances (edges) get the weighted Goldberg edge
    network, wider ones Algorithm 7's grouped network.
    """
    arr = np.asarray(insts, dtype=np.int64)
    w = np.ones(len(arr), dtype=np.int64) if weights is None else np.asarray(weights)

    def density_of(S: set[int]) -> Fraction:
        return Fraction(int(w[inside(arr, _mask(n, list(S)))].sum()), len(S))

    if arr.shape[1] == 2:
        return (lambda alpha: build_edge_network(arr, n, alpha, w)), density_of
    groups, group_weights = instance_groups(arr, w)
    return (
        lambda alpha: build_pattern_network(n, groups, group_weights, alpha)
    ), density_of


def instance_search(
    insts: np.ndarray, n: int, weights: np.ndarray | None = None
) -> tuple[Fraction, set[int], Network, np.ndarray]:
    """Exact densest subgraph over node-tuple instances, optionally weighted.

    Batched peel → ⌈ρ̃⌉-core → re-core while the core's own density
    allows a higher k → re-index → ``goldberg_search`` on
    ``instance_network``. Any node of a densest subgraph has (integer,
    weighted) instance degree ≥ ρ* in it, and ρ* ≥ every achieved
    density, so each k-core taken here keeps every optimum. The search
    starts from the denser of the core and the peel set's own ⌈ρ̃⌉-core
    (density ≥ ρ̃). Returns ``(ρ*, a densest witness, the network at
    ρ*, core_ids)``; witness and network use core-compact ids, and
    ``core_ids[i]`` is the id in ``0..n-1`` of core node i.
    """
    rho_tilde, peel_set = charikar_peel(insts, n, weights)
    k = math.ceil(rho_tilde)
    core = _mask(n, k_core_nodes(insts, n, k, weights))
    # A batched peel may keep nodes of degree < ρ̃ outside the core.
    # Dropping such a node only raises the density, so the peel set's own
    # ⌈ρ̃⌉-core is a witness of density ≥ ρ̃ inside the core.
    peel = _mask(n, list(peel_set))
    if (peel & ~core).any():
        keep = inside(insts, peel)
        peel = _mask(n, k_core_nodes(
            insts[keep], n, k, None if weights is None else weights[keep]
        ))
    while True:
        keep = inside(insts, core)
        insts = insts[keep]
        weights = None if weights is None else weights[keep]
        size = int(core.sum())
        weight = len(insts) if weights is None else int(weights.sum())
        rho_core = Fraction(weight, size)
        if math.ceil(rho_core) <= k:
            break
        k = math.ceil(rho_core)
        core = _mask(n, k_core_nodes(insts, n, k, weights))
    core_ids = np.flatnonzero(core)
    pos = np.cumsum(core) - 1
    insts, n = pos[insts], size
    builder, density_of = instance_network(insts, n, weights)
    witness = set(range(n))
    if not (peel & ~core).any():
        from_peel = set(pos[peel].tolist())
        if density_of(from_peel) >= rho_core:
            witness = from_peel
    # Every α the search visits is an achieved density (Σ int weights)/|S|,
    # so its denominator is ≤ n, however large the weights.
    rho, witness, net = goldberg_search(
        builder, n, density_of(witness), witness, density_of
    )
    return rho, witness, net, core_ids


def all_densest(
    edges: np.ndarray, notion: str, max_enum: int = 100_000
) -> DensestResult:
    """All densest subgraphs for 'edge', 'clique:h' (Algorithm 2), or a
    pattern name (Algorithm 4)."""
    ce, ids = relabel(canonical_edges(edges))
    insts = instances(ce, len(ids), notion)
    if len(insts) == 0:
        return DensestResult(Fraction(0), [], frozenset(), 0)
    rho, _, network, core_ids = instance_search(insts, len(ids))
    return _enumerate_from_residual(rho, network, ids[core_ids], max_enum)
