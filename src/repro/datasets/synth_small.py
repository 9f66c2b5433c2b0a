"""Tiny graphs for exact-vs-approximate comparison (Table XV)
and the worked example of Figure 1 / Table I.
"""
from __future__ import annotations

import numpy as np

from ..core.uncertain import UncertainGraph
from ..synth_data import ba_edges, er_edges_exact_m


def fig1_graph() -> UncertainGraph:
    """The paper's Figure-1 example: nodes A=0, B=1, C=2, D=3.

    Edges (A,B) p=.4, (A,C) p=.4, (B,D) p=.7 — these reproduce the
    possible-world probabilities of Figure 1 exactly (G1=.108, G2=.072,
    ..., G8=.112, as quoted in Example 1 of the paper).
    """
    return UncertainGraph.from_edges(
        [(0, 1), (0, 2), (1, 3)], [0.4, 0.4, 0.7], n=4,
        meta={"name": "fig1", "labels": {0: "A", 1: "B", 2: "C", 3: "D"}},
    )


def er_graph(n: int, m: int, seed: int = 3) -> UncertainGraph:
    """ER graph with uniform-random edge probabilities (Table XV)."""
    g = np.random.default_rng(seed)
    edges = er_edges_exact_m(n, m, seed)
    probs = g.uniform(0.1, 0.95, size=len(edges))
    return UncertainGraph.from_edges(
        edges, probs, n=n, meta={"name": f"ER_{n}"}
    )


def ba_graph(n: int, m_attach: int, seed: int = 4) -> UncertainGraph:
    """BA graph with uniform-random edge probabilities (Table XV)."""
    g = np.random.default_rng(seed)
    edges = ba_edges(n, m_attach, seed)
    probs = g.uniform(0.1, 0.95, size=len(edges))
    return UncertainGraph.from_edges(
        edges, probs, n=n, meta={"name": f"BA_{n}"}
    )

