"""Reference pipelines — test oracles only.

``brute_all_densest`` enumerates all node subsets (2^n) of a tiny graph
to find every densest subgraph for a density notion. Used by the
test-suite to validate the flow-based exact pipelines, and by
`repro.core.exact`'s unit tests. ``unpruned_all_densest_edge`` is the
edge pipeline without its ⌈ρ̃⌉-core prune, for graphs too large to
enumerate.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

from .alldense import DensestResult, _enumerate_from_residual
from .cliques import list_cliques
from .goldberg import build_edge_network, goldberg_search
from .graph import canonical_edges, induced_edge_count, nodes_of, relabel
from .patterns import enumerate_instances


def _instances_for(edges: np.ndarray, n: int, notion: str) -> list[tuple[int, ...]]:
    if notion == "edge":
        return [tuple(sorted((int(u), int(v)))) for u, v in edges]
    if notion.startswith("clique:"):
        return list_cliques(edges, n, int(notion.split(":")[1]))
    return enumerate_instances(edges, n, notion)


def brute_all_densest(
    edges: np.ndarray, notion: str = "edge"
) -> tuple[Fraction, list[frozenset[int]]]:
    """(ρ*, all densest node sets) by enumerating every node subset.

    Follows the paper's accounting: if the graph has no instance of the
    density object at all (no edge / clique / pattern), ρ* = 0 and NO set
    is densest.
    """
    e = canonical_edges(edges)
    nodes = [int(v) for v in nodes_of(e)]
    n_max = (max(nodes) + 1) if nodes else 0
    instances = _instances_for(e, n_max, notion)
    if not instances:
        return Fraction(0), []
    inst_sets = [frozenset(t) for t in instances]
    best = Fraction(0)
    best_sets: list[frozenset[int]] = []
    for r in range(1, len(nodes) + 1):
        for sub in combinations(nodes, r):
            S = frozenset(sub)
            cnt = sum(1 for t in inst_sets if t <= S)
            d = Fraction(cnt, r)
            if d > best:
                best = d
                best_sets = [S]
            elif d == best and d > 0:
                best_sets.append(S)
    return best, sorted(best_sets, key=lambda s: (len(s), sorted(s)))


def unpruned_all_densest_edge(
    edges: np.ndarray, max_enum: int = 100_000
) -> DensestResult:
    """``all_densest_edge`` on the whole graph, without the core prune.

    Goldberg's search starts from the trivial bounds (the whole graph's
    density, achieved; (n − 1)/2 + 1 above), and the densest sets are
    enumerated from the residual of the whole graph's network at α = ρ*.
    """
    e = canonical_edges(edges)
    if len(e) == 0:
        return DensestResult(Fraction(0), [], frozenset(), 0)
    ce, ids = relabel(e)
    n = len(ids)

    def density_of(S: set[int]) -> Fraction:
        return Fraction(induced_edge_count(ce, S), len(S))

    def builder(alpha: Fraction):
        return build_edge_network(ce, n, alpha)

    rho, _ = goldberg_search(
        builder, n, Fraction(len(ce), n), set(range(n)),
        Fraction(n - 1, 2) + 1, density_of,
    )
    net, s, t, vid, _total = builder(rho)
    net.max_flow(s, t)
    vid_of = {vid[i]: int(ids[i]) for i in range(n)}
    subs, union_nodes, truncated = _enumerate_from_residual(
        net, s, t, vid_of, max_enum
    )
    return DensestResult(rho, subs, union_nodes, len(subs), truncated, n)
