"""Pattern definitions and ψ-instance enumeration (Fig. 5 patterns).

Patterns (documented in DESIGN.md §5 — the paper's figure is not
formally specified):

* ``2-star``  — path on 3 nodes: center + 2 leaves.
* ``3-star``  — claw: center + 3 leaves.
* ``c3-star`` — "closed" 3-star / paw: triangle + pendant on one vertex.
* ``diamond`` — K4 minus an edge: hub edge (u,v) + 2 common neighbors.

Instances are non-induced embeddings modulo pattern automorphisms; an
instance is a node tuple. μ_ψ(G) = number of instances; deg(v, ψ) =
number of instances containing v. Distinct instances may share a node
set — Algorithm 7's flow network groups them by node set.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .graph import adjacency_sets


@dataclass(frozen=True)
class Pattern:
    """A pattern ψ = (V_ψ, E_ψ) with a specialized instance enumerator."""

    name: str
    n_nodes: int  # |V_ψ|

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


PATTERNS = {
    "2-star": Pattern("2-star", 3),
    "3-star": Pattern("3-star", 4),
    "c3-star": Pattern("c3-star", 4),
    "diamond": Pattern("diamond", 4),
}


def _triangles(adj: list[set[int]], n: int) -> list[tuple[int, int, int]]:
    tris = []
    for u in range(n):
        for v in adj[u]:
            if v <= u:
                continue
            for w in adj[u] & adj[v]:
                if w > v:
                    tris.append((u, v, w))
    return tris


def enumerate_instances(
    edges: np.ndarray, n: int, pattern: str | Pattern
) -> list[tuple[int, ...]]:
    """All instances of ``pattern`` as node tuples (see module docstring)."""
    name = pattern.name if isinstance(pattern, Pattern) else pattern
    if name not in PATTERNS:
        raise ValueError(f"unknown pattern {name!r}")
    if edges.size == 0:
        return []
    adj = adjacency_sets(edges, n)
    out: list[tuple[int, ...]] = []
    if name == "2-star":
        for c in range(n):
            for a, b in combinations(sorted(adj[c]), 2):
                out.append((c, a, b))
    elif name == "3-star":
        for c in range(n):
            if len(adj[c]) >= 3:
                for a, b, d in combinations(sorted(adj[c]), 3):
                    out.append((c, a, b, d))
    elif name == "c3-star":
        for u, v, w in _triangles(adj, n):
            tri = {u, v, w}
            for center in (u, v, w):
                for pend in adj[center]:
                    if pend not in tri:
                        out.append((center, *sorted(tri - {center}), pend))
    elif name == "diamond":
        for e_u, e_v in edges:
            u, v = int(e_u), int(e_v)
            common = sorted(adj[u] & adj[v])
            for w, x in combinations(common, 2):
                out.append((u, v, w, x))
    return out


def instance_edges(inst: tuple[int, ...], notion: str) -> list[tuple[int, int]]:
    """The edges of one instance of ``notion``, per the tuple conventions
    of :func:`enumerate_instances`. An edge or h-clique instance has every
    pair of its nodes. Used for instance existence probabilities
    (Theorem 7) and for edge-masks in the exact possible-world
    enumerator."""
    if notion == "2-star":
        c, a, b = inst
        return [(c, a), (c, b)]
    if notion == "3-star":
        c, a, b, d = inst
        return [(c, a), (c, b), (c, d)]
    if notion == "c3-star":
        x, t1, t2, pend = inst
        return [(x, t1), (x, t2), (t1, t2), (x, pend)]
    if notion == "diamond":
        u, v, w, x = inst
        return [(u, v), (u, w), (u, x), (v, w), (v, x)]
    return list(combinations(inst, 2))


def group_instances(
    instances: list[tuple[int, ...]], weights: list[int] | None = None
) -> dict[frozenset[int], int]:
    """Group instances by node set → count |g| (Algorithm 7, Line 5), or
    with integer ``weights`` (one per instance) the group's weight sum."""
    groups: dict[frozenset[int], int] = {}
    for i, inst in enumerate(instances):
        key = frozenset(inst)
        groups[key] = groups.get(key, 0) + (1 if weights is None else weights[i])
    return groups
