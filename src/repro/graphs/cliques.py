"""h-clique listing (kClist-style, degeneracy ordering).

The h-cliques are the instances of h-clique density (Algorithm 2): they
drive the (k, h)-core prune and, as the pattern K_h, the grouped flow
network of Algorithm 7.
"""
from __future__ import annotations

import numpy as np

from .graph import degrees


def degeneracy_order(edges: np.ndarray, n: int) -> np.ndarray:
    """Peel order (min-degree first); position[v] gives v's rank."""
    import heapq

    deg = degrees(edges, n)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(int(v))
        adj[v].append(int(u))
    heap = [(int(deg[v]), int(v)) for v in range(n)]
    heapq.heapify(heap)
    removed = np.zeros(n, dtype=bool)
    cur = deg.copy()
    order = []
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != cur[v]:
            continue
        removed[v] = True
        order.append(v)
        for w in adj[v]:
            if not removed[w]:
                cur[w] -= 1
                heapq.heappush(heap, (int(cur[w]), int(w)))
    return np.array(order, dtype=np.int64)


def list_cliques(edges: np.ndarray, n: int, h: int) -> list[tuple[int, ...]]:
    """All h-cliques as sorted node tuples. h >= 2; h=2 returns edges.

    kClist-style: orient edges along the degeneracy order and extend
    candidate sets by intersection, so work is bounded by the degeneracy.
    """
    if h < 2:
        raise ValueError("h must be >= 2")
    if edges.size == 0:
        return []
    if h == 2:
        return [tuple(sorted((int(u), int(v)))) for u, v in edges]
    order = degeneracy_order(edges, n)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(len(order))
    fwd: list[list[int]] = [[] for _ in range(n)]  # neighbors later in order
    for u, v in edges:
        u, v = int(u), int(v)
        if rank[u] < rank[v]:
            fwd[u].append(v)
        else:
            fwd[v].append(u)
    fwd_sets = [set(f) for f in fwd]
    out: list[tuple[int, ...]] = []

    def extend(base: list[int], cand: list[int]) -> None:
        if len(base) == h:
            out.append(tuple(sorted(base)))
            return
        for i, v in enumerate(cand):
            # cand is within the forward-neighborhood closure; adjacency
            # between v, w must be checked in either orientation.
            nxt = [w for w in cand[i + 1 :] if w in fwd_sets[v] or v in fwd_sets[w]]
            extend(base + [v], nxt)

    for u in range(n):
        extend([u], fwd[u])
    return out

