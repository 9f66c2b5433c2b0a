"""Probabilistic (k, γ)-truss decomposition (Huang et al., SIGMOD 2016).

The γ-support of an edge e=(u,v) is the largest s such that
Pr[e exists ∧ e participates in ≥ s triangles] ≥ γ; the triangle count
is Poisson-binomial over the common neighbors w with success prob
p(u,w)·p(v,w), conditioned on e existing (factor p(e)). Peeling edges by
minimum γ-support (k = support + 2) yields truss numbers; the innermost
γ-truss is the node set of the max-truss-number edges.
"""
from __future__ import annotations

import numpy as np

from ..core.uncertain import UncertainGraph
from ..graphs.cliques import triangles
from .poisbin import peel


def gamma_truss_numbers(
    ug: UncertainGraph, gamma: float = 0.1
) -> dict[tuple[int, int], int]:
    """γ-truss number per edge (k = 2 + peeled min support; support −1,
    i.e. p(e) < γ, gives k = 1).

    A removed edge e=(u,v) takes the Bernoulli p(e)·p(v,w) out of (u,w)
    and p(e)·p(u,w) out of (v,w), for each live triangle (u,v,w).
    """
    m = len(ug.edges)
    tri = triangles(ug.edges, ug.n)
    # Each edge's triangles as the ids of their two other edges.
    item = tri.ravel()
    other = tri[:, [1, 2, 0, 2, 0, 1]].reshape(-1, 2)
    order = np.argsort(item, kind="stable")
    item, other = item[order], other[order]
    indptr = np.searchsorted(item, np.arange(m + 1))
    probs = ug.probs[other[:, 0]] * ug.probs[other[:, 1]]
    pairs: list[list] = [[] for _ in range(m)]
    for i in np.flatnonzero(np.diff(indptr)).tolist():
        pairs[i] = other[indptr[i] : indptr[i + 1]].tolist()
    p = ug.probs.tolist()
    alive = [True] * m

    def lost(i: int):
        alive[i] = False
        for a, b in pairs[i]:
            if alive[a] and alive[b]:
                yield a, p[i] * p[b]
                yield b, p[i] * p[a]

    def live(i: int):
        return (p[a] * p[b] for a, b in pairs[i] if alive[a] and alive[b])

    support = peel(indptr, probs, ug.probs, gamma, lost, live)
    edges = zip(ug.edges[:, 0].tolist(), ug.edges[:, 1].tolist())
    return dict(zip(edges, (support + 2).tolist()))


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
