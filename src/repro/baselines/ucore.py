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
from .poisbin import distribution, peel


def eta_core_numbers(ug: UncertainGraph, eta: float = 0.1) -> np.ndarray:
    """η-core number per node.

    A removed node takes its edge's Bernoulli out of each live
    neighbor's degree distribution (``poisbin.peel``).
    """
    adj: list[dict[int, float]] = [dict() for _ in range(ug.n)]
    for (u, v), p in zip(ug.edges, ug.probs):
        adj[int(u)][int(v)] = adj[int(v)][int(u)] = float(p)
    dists = [distribution(a.values()) for a in adj]
    # Pr[deg ≥ 0] = 1, so an η-degree is never below 0 but for rounding.
    return np.maximum(peel(dists, [1.0] * ug.n, eta, lambda v: adj[v].items()), 0)


def innermost_eta_core(ug: UncertainGraph, eta: float = 0.1) -> frozenset[int]:
    """Node set of the innermost (max-k) η-core."""
    core = eta_core_numbers(ug, eta)
    kmax = core.max(initial=0)
    if kmax == 0:
        return frozenset()
    return frozenset(np.flatnonzero(core == kmax).tolist())
