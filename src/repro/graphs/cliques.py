"""Instance listing over the canonical edge array: triangles and h-cliques.

The h-cliques are the instances of h-clique density (Algorithm 2): they
drive the (k, h)-core prune and, as the pattern K_h, the grouped flow
network of Algorithm 7. The pattern instances of ``patterns.py`` are
built from the same pieces.

Everything here reads a sorted array as runs of equal keys. The
canonical edge array (u < v, lexsorted) is the run of each u's higher
neighbours, and ``neighbours`` gives the run of each node's neighbours.
The one primitive is ``later_in_run``: every position after a given one
inside its run, by ``np.repeat`` and a ``cumsum`` of run lengths. Pairs
within a run, then one closing edge found by ``np.searchsorted`` on the
sorted keys ``u*n + v``, give every triangle; each further clique node
is a higher neighbour of the last one, adjacent to all the others.
Rows come out sorted within and lexicographic between them.
"""
from __future__ import annotations

import numpy as np


def spread(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row id r repeated ``counts[r]`` times, beside each copy's rank
    ``0..counts[r]-1``."""
    rows = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    return rows, np.arange(len(rows)) - first[rows]


def later_in_run(pos: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ``(r, q)`` with ``pos[r] < q < end[pos[r]]``.

    ``end[i]`` is one past the last position of the run holding position
    i, so q runs over the positions after ``pos[r]`` in its run, in
    order. With ``pos = arange(len(end))`` this is every pair i < j
    inside a run.
    """
    rows, rank = spread(end[pos] - pos - 1)
    return rows, pos[rows] + 1 + rank


def neighbours(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, nbr)``: node v's neighbours, ascending, are
    ``nbr[indptr[v]:indptr[v+1]]``."""
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.lexsort((dst, src))
    return np.searchsorted(src[order], np.arange(n + 1)), dst[order]


def _find(keys: np.ndarray, want: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position of each wanted key in the sorted ``keys``, and whether it
    is there."""
    at = np.minimum(np.searchsorted(keys, want), max(len(keys) - 1, 0))
    return at, keys[at] == want


def triangles(edges: np.ndarray, n: int) -> np.ndarray:
    """Every triangle u < v < w as the edge ids ``(uv, uw, vw)``.

    Each pair v < w of u's higher neighbours (a pair within u's run of
    the canonical edges) is a triangle when (v, w) is an edge.
    """
    end = np.searchsorted(edges[:, 0], edges[:, 0], side="right")
    uv, uw = later_in_run(np.arange(len(edges)), end)
    keys = edges[:, 0] * n + edges[:, 1]
    vw, hit = _find(keys, edges[uv, 1] * n + edges[uw, 1])
    return np.stack([uv[hit], uw[hit], vw[hit]], axis=1)


def list_cliques(edges: np.ndarray, n: int, h: int) -> np.ndarray:
    """All h-cliques as a ``(count, h)`` int64 array of ascending rows, in
    lexicographic order. h >= 2; h = 2 gives ``edges`` itself.

    ``edges`` is canonical on ids ``0..n-1``.
    """
    if h < 2:
        raise ValueError("h must be >= 2")
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if h == 2:
        return e
    tri = triangles(e, n)
    cl = np.column_stack([e[tri[:, 0]], e[tri[:, 1], 1]])
    indptr = np.searchsorted(e[:, 0], np.arange(n + 1))
    keys = e[:, 0] * n + e[:, 1]
    for _ in range(3, h):
        last = cl[:, -1]
        rows, rank = spread(indptr[last + 1] - indptr[last])
        x = e[indptr[last[rows]] + rank, 1]
        ok = np.ones(len(rows), dtype=bool)
        for j in range(cl.shape[1] - 1):
            ok &= _find(keys, cl[rows, j] * n + x)[1]
        cl = np.column_stack([cl[rows[ok]], x[ok]])
    return cl
