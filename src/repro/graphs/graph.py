"""Compact deterministic-graph helpers over numpy edge arrays.

An (undirected, simple) graph is represented as an ``(m, 2)`` int64 array
of edges with ``u != v``. Node ids are arbitrary non-negative ints; most
kernels first :func:`relabel` to a compact ``0..n-1`` space.
"""
from __future__ import annotations

import numpy as np


def canonical_edges(edges: np.ndarray) -> np.ndarray:
    """Return edges with u < v per row, duplicates and self-loops removed.

    Output is sorted lexicographically, so it is a canonical form: two
    edge lists describing the same simple graph canonicalize identically.
    An input already in that form (every sampled world of a canonical
    graph) is recognised in O(m); any other is lexsorted by (u, v) and
    deduplicated, with no pair encoding that could overflow for large ids.
    """
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(e[:, 0], e[:, 1])
    hi = np.maximum(e[:, 0], e[:, 1])
    dlo, dhi = np.diff(lo), np.diff(hi)
    if not ((lo < hi).all() and ((dlo > 0) | ((dlo == 0) & (dhi > 0))).all()):
        keep = lo != hi
        lo, hi = lo[keep], hi[keep]
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        new = np.ones(lo.size, dtype=bool)
        new[1:] = (np.diff(lo) != 0) | (np.diff(hi) != 0)
        lo, hi = lo[new], hi[new]
    return np.stack([lo, hi], axis=1)


def nodes_of(edges: np.ndarray) -> np.ndarray:
    """Sorted unique node ids appearing in ``edges``."""
    e = np.asarray(edges, dtype=np.int64)
    if e.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.unique(e)


def relabel(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Relabel node ids to ``0..n-1``, keeping their order.

    Returns ``(compact_edges, id_map)`` where ``id_map[i]`` is the
    original id of compact node ``i``. One sort does both: the inverse
    of ``np.unique`` is the compact edge array, and nothing is sized by
    the largest id.
    """
    e = np.asarray(edges, dtype=np.int64)
    if e.size == 0:
        return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)
    ids, inv = np.unique(e, return_inverse=True)
    return inv.reshape(e.shape).astype(np.int64, copy=False), ids


def induced_edge_count(edges: np.ndarray, node_set: set[int] | frozenset[int]) -> int:
    """Number of edges with both endpoints in ``node_set``."""
    cnt = 0
    for u, v in edges:
        if int(u) in node_set and int(v) in node_set:
            cnt += 1
    return cnt

