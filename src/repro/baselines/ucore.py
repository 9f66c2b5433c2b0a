"""Probabilistic (k, η)-core decomposition (Bonchi et al., KDD 2014).

The η-degree of a node is the largest k such that Pr[deg(v) ≥ k] ≥ η,
with deg(v) the random degree under independent edge sampling
(Poisson-binomial over the incident edge probabilities). Peeling by
minimum η-degree (recomputing neighbors on removal, exactly as in
deterministic core decomposition) yields η-core numbers; the innermost
η-core is the set of nodes with the maximum core number.
"""
from __future__ import annotations

import numpy as np

from ..core.uncertain import UncertainGraph
from .poisbin import peel


def eta_core_numbers(ug: UncertainGraph, eta: float = 0.1) -> np.ndarray:
    """η-core number per node.

    A removed node takes its edge's Bernoulli out of each live
    neighbor's degree distribution (``poisbin.peel``).
    """
    # Each node's incident edges, ordered by neighbour id.
    node = np.concatenate([ug.edges[:, 0], ug.edges[:, 1]])
    nbr = np.concatenate([ug.edges[:, 1], ug.edges[:, 0]])
    order = np.lexsort((nbr, node))
    nbr, probs = nbr[order], np.concatenate([ug.probs, ug.probs])[order]
    indptr = np.searchsorted(node[order], np.arange(ug.n + 1))
    adj = [
        list(zip(nbr[a:b].tolist(), probs[a:b].tolist()))
        for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist())
    ]
    alive = [True] * ug.n

    def lost(v: int):
        alive[v] = False
        return adj[v]

    def live(v: int):
        return (p for w, p in adj[v] if alive[w])

    return peel(indptr, probs, np.ones(ug.n), eta, lost, live)


def innermost_eta_core(ug: UncertainGraph, eta: float = 0.1) -> frozenset[int]:
    """Node set of the innermost (max-k) η-core."""
    core = eta_core_numbers(ug, eta)
    kmax = core.max(initial=0)
    if kmax == 0:
        return frozenset()
    return frozenset(np.flatnonzero(core == kmax).tolist())
