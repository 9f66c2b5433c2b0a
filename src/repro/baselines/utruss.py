"""Probabilistic (k, γ)-truss decomposition (Huang et al., SIGMOD 2016).

The γ-support of an edge e=(u,v) is the largest s such that
Pr[e exists ∧ e participates in ≥ s triangles] ≥ γ; the triangle count
is Poisson-binomial over the common neighbors w with success prob
p(u,w)·p(v,w), conditioned on e existing (factor p(e)). Peeling edges by
minimum γ-support (k = support + 2) yields truss numbers; the innermost
γ-truss is the node set of the max-truss-number edges.
"""
from __future__ import annotations

from ..core.uncertain import UncertainGraph
from .poisbin import distribution, peel


def gamma_truss_numbers(
    ug: UncertainGraph, gamma: float = 0.1
) -> dict[tuple[int, int], int]:
    """γ-truss number per edge (k = 2 + peeled min support; support −1,
    i.e. p(e) < γ, gives k = 1).

    A removed edge e=(u,v) takes the Bernoulli p(e)·p(v,w) out of (u,w)
    and p(e)·p(u,w) out of (v,w), for each live triangle (u,v,w).
    """
    edges = [(int(u), int(v)) for u, v in ug.edges]
    probs = [float(p) for p in ug.probs]
    adj: list[dict[int, int]] = [dict() for _ in range(ug.n)]  # neighbor → edge id
    for i, (u, v) in enumerate(edges):
        adj[u][v] = adj[v][u] = i
    dists = [
        distribution(
            probs[adj[u][w]] * probs[adj[v][w]] for w in set(adj[u]) & set(adj[v])
        )
        for u, v in edges
    ]

    def lost(i: int):
        u, v = edges[i]
        del adj[u][v], adj[v][u]
        for w in set(adj[u]) & set(adj[v]):
            yield adj[u][w], probs[i] * probs[adj[v][w]]
            yield adj[v][w], probs[i] * probs[adj[u][w]]

    support = peel(dists, probs, gamma, lost)
    return {e: int(s) + 2 for e, s in zip(edges, support)}


def innermost_gamma_truss(
    ug: UncertainGraph, gamma: float = 0.1
) -> frozenset[int]:
    """Node set of the innermost (max-k) γ-truss; empty if no edge
    clears the probability threshold at all."""
    truss = gamma_truss_numbers(ug, gamma)
    kmax = max(truss.values(), default=1)
    if kmax <= 1:  # only edges with pe < γ (support −1 → k = 1)
        return frozenset()
    return frozenset(v for e, t in truss.items() if t == kmax for v in e)
