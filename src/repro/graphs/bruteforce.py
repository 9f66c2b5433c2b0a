"""Reference pipelines — test oracles only.

``brute_all_densest`` enumerates all node subsets (2^n) of a tiny graph
to find every densest subgraph for a density notion. Used by the
test-suite to validate the flow-based exact pipelines, and by
`repro.core.exact`'s unit tests. ``unpruned_all_densest`` is the
``all_densest`` pipeline without its ⌈ρ̃⌉-core prune, for graphs too
large to enumerate.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

from .alldense import (
    DensestResult,
    _enumerate_from_residual,
    instance_network,
    instances,
)
from .goldberg import goldberg_search
from .graph import canonical_edges, nodes_of, relabel


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
    insts = instances(e, n_max, notion)
    if len(insts) == 0:
        return Fraction(0), []
    inst_sets = [frozenset(t) for t in insts.tolist()]
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


def unpruned_all_densest(
    edges: np.ndarray, notion: str, max_enum: int = 100_000
) -> DensestResult:
    """``all_densest`` on the whole graph, without the core prune.

    The search starts from the whole graph's density, and the densest
    sets are enumerated from the residual of a freshly built and flowed
    network of the whole graph at α = ρ* (``instance_network``).
    """
    ce, ids = relabel(canonical_edges(edges))
    insts = instances(ce, len(ids), notion)
    if len(insts) == 0:
        return DensestResult(Fraction(0), [], frozenset(), 0)
    # A node in no instance carries no flow, so its residual arc to t
    # would leave it in an SCC of its own; the network omits such nodes.
    keep, inv = np.unique(insts, return_inverse=True)
    inst_arr = inv.reshape(insts.shape)
    ids, n = ids[keep], len(keep)

    builder, density_of = instance_network(inst_arr, n)
    rho, _, _ = goldberg_search(
        builder, n, Fraction(len(insts), n), set(range(n)), density_of
    )
    # A fresh network and flow at ρ*, independent of the search's residual.
    net, s, t, _vid, _total = network = builder(rho)
    net.max_flow(s, t)
    return _enumerate_from_residual(rho, network, ids, max_enum)
