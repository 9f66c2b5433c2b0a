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

This module is the one place that knows which node pairs of an
instance are edges: ``instance_pairs`` gives them as column pairs of
the instance array (every pair for ``edge`` and ``clique:h``), and
``instance_edge_ids`` maps a ``(count, h)`` instance array to the row
ids of those edges in the canonical edge array. An instance exists with
probability Π p(e) over them (Theorem 7), which the expected densest
subgraph, the exact expected density and the exact 2^m enumerator
read as array expressions on the ids.
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
    pairs: tuple[tuple[int, int], ...]  # E_ψ as columns of an instance tuple

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


PATTERNS = {
    # Column pairs follow the tuple conventions of enumerate_instances.
    "2-star": Pattern("2-star", 3, ((0, 1), (0, 2))),
    "3-star": Pattern("3-star", 4, ((0, 1), (0, 2), (0, 3))),
    "c3-star": Pattern("c3-star", 4, ((0, 1), (0, 2), (1, 2), (0, 3))),
    "diamond": Pattern("diamond", 4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))),
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


def instance_pairs(notion: str) -> tuple[tuple[int, int], ...]:
    """The edges of ``notion``'s instances as column pairs of an instance
    tuple. An edge or h-clique instance has every pair of its nodes."""
    if notion in PATTERNS:
        return PATTERNS[notion].pairs
    h = 2 if notion == "edge" else int(notion.split(":")[1])
    return tuple(combinations(range(h), 2))


def instance_edge_ids(
    insts: np.ndarray, edges: np.ndarray, notion: str
) -> np.ndarray:
    """Row ids in ``edges`` of every instance's edges, ``(count, |E_ψ|)``.

    ``edges`` is canonical (u < v, lexsorted), so with n above every id
    the key ``u*n + v`` of its rows is sorted and ``np.searchsorted``
    finds each pair. Columns follow :func:`instance_pairs`.
    """
    n = int(edges.max(initial=0)) + 1
    cols = np.array(instance_pairs(notion), dtype=np.int64)
    a, b = insts[:, cols[:, 0]], insts[:, cols[:, 1]]
    keys = np.minimum(a, b) * n + np.maximum(a, b)
    return np.searchsorted(edges[:, 0] * n + edges[:, 1], keys)


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
