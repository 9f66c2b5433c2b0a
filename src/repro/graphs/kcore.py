"""k-core computation and degeneracy-style peeling on compact graphs.

These run per sampled possible world inside Spark tasks. ``k_core_nodes``
peels in rounds: one ``np.bincount`` gives every degree over the
surviving edges, every node below k goes at once, and the rounds stop
when no node is left below k. The k-core is unique (the largest node set
of minimum degree ≥ k), so removing in rounds rather than one node at a
time yields the same set.
"""
from __future__ import annotations

import numpy as np

from .graph import degrees


def k_core_nodes(edges: np.ndarray, n: int, k: int) -> np.ndarray:
    """Node ids (compact) of the k-core; empty array if none survive."""
    if k <= 0:
        return np.arange(n, dtype=np.int64)
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    while True:
        # Isolated nodes (degree 0) are never in a k-core for k >= 1.
        alive = np.bincount(e.ravel(), minlength=n) >= k
        keep = alive[e[:, 0]] & alive[e[:, 1]]
        if keep.all():
            return np.flatnonzero(alive).astype(np.int64)
        e = e[keep]


def core_numbers(edges: np.ndarray, n: int) -> np.ndarray:
    """Core number per node (Batagelj–Zaversnik bucket peeling)."""
    deg = degrees(edges, n)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(int(v))
        adj[v].append(int(u))
    order = np.argsort(deg, kind="stable")
    # bucket-queue peel
    import heapq

    core = np.zeros(n, dtype=np.int64)
    heap = [(int(deg[v]), int(v)) for v in order]
    heapq.heapify(heap)
    removed = np.zeros(n, dtype=bool)
    cur_deg = deg.copy()
    k = 0
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != cur_deg[v]:
            continue
        k = max(k, d)
        core[v] = k
        removed[v] = True
        for w in adj[v]:
            if not removed[w]:
                cur_deg[w] -= 1
                heapq.heappush(heap, (int(cur_deg[w]), int(w)))
    return core
