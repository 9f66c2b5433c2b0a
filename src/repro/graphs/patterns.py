"""Pattern definitions and ψ-instance listing (Fig. 5 patterns).

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

``enumerate_instances`` lists them as arrays from the sorted runs of
``cliques.py``.

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

from .cliques import later_in_run, neighbours, spread, triangles


@dataclass(frozen=True)
class Pattern:
    """A pattern ψ = (V_ψ, E_ψ)."""

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


def enumerate_instances(
    edges: np.ndarray, n: int, pattern: str | Pattern
) -> np.ndarray:
    """All instances of ``pattern`` as a ``(count, |V_ψ|)`` int64 array.

    ``edges`` is canonical on ids ``0..n-1``. Columns follow each
    pattern's tuple: 2-star ``(c, a, b)`` and 3-star ``(c, a, b, d)``
    with leaves a < b < d, diamond ``(u, v, w, x)`` with hub edge u < v
    and w < x, c3-star ``(centre, the two other triangle nodes sorted,
    pendant)``.
    """
    name = pattern.name if isinstance(pattern, Pattern) else pattern
    if name not in PATTERNS:
        raise ValueError(f"unknown pattern {name!r}")
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    indptr, nbr = neighbours(e, n)
    if name in ("2-star", "3-star"):
        # Leaves a < b (< d) after one another in the centre's run.
        centre = np.repeat(np.arange(n), np.diff(indptr))
        end = indptr[centre + 1]
        a, b = later_in_run(np.arange(len(nbr)), end)
        if name == "2-star":
            return np.stack([centre[a], nbr[a], nbr[b]], axis=1)
        r, d = later_in_run(b, end)
        return np.stack([centre[a[r]], nbr[a[r]], nbr[b[r]], nbr[d]], axis=1)
    tri = triangles(e, n)
    nodes = np.column_stack([e[tri[:, 0]], e[tri[:, 1], 1]])
    if name == "diamond":
        # Two common neighbours w < x of the hub edge (u, v): a pair
        # within that edge's run of triangle third nodes.
        hub = tri.ravel()
        third = nodes[:, ::-1].ravel()  # uv ↦ w, uw ↦ v, vw ↦ u
        order = np.lexsort((third, hub))
        hub, third = hub[order], third[order]
        p, q = later_in_run(
            np.arange(len(hub)), np.searchsorted(hub, hub, side="right")
        )
        return np.column_stack([e[hub[p]], third[p], third[q]])
    # c3-star: each triangle node as the centre, with every neighbour of
    # it outside the triangle as the pendant.
    centre = nodes.ravel()
    rest = nodes[:, [1, 2, 0, 2, 0, 1]].reshape(-1, 2)
    r, k = spread(indptr[centre + 1] - indptr[centre])
    pend = nbr[indptr[centre[r]] + k]
    out = (pend != rest[r, 0]) & (pend != rest[r, 1])
    r = r[out]
    return np.column_stack([centre[r], rest[r], pend[out]])


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
