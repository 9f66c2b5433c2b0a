"""k-core computation on compact graphs.

These run per sampled possible world inside Spark tasks. ``k_core_nodes``
peels in rounds: one ``np.bincount`` gives every degree over the
surviving edges, every node below k goes at once, and the rounds stop
when no node is left below k. The k-core is unique (the largest node set
of minimum degree ≥ k), so removing in rounds rather than one node at a
time yields the same set.
"""
from __future__ import annotations

import numpy as np


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

