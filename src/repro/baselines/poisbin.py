"""Poisson-binomial tail indices and the peel shared by the uncertain
(k, η)-core and (k, γ)-truss.

A Poisson-binomial variable X counts the successes of independent
Bernoullis. Both baselines give each item (a node, an edge) such a
count: its degree (Bonchi et al., KDD'14) or its triangle count (Huang
et al., SIGMOD'16). They peel the item of least tail index, and each
removal takes one Bernoulli out of its live neighbours' distributions
in O(len) (``deconvolve``), not an O(len²) rebuild.
"""
from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable

import numpy as np


def distribution(probs: Iterable[float]) -> np.ndarray:
    """Pr[X = k] for k = 0..len(probs), X the number of successes."""
    dist = np.array([1.0])
    for p in probs:
        nxt = np.zeros(len(dist) + 1)
        nxt[: len(dist)] += dist * (1 - p)
        nxt[1:] += dist * p
        dist = nxt
    return dist


def deconvolve(dist: np.ndarray, p: float) -> np.ndarray:
    """Remove one Bernoulli(p) from a Poisson-binomial distribution.

    Inverse of ``conv(rest, [1-p, p])``. Uses the numerically stable
    recurrence direction (divide by max(p, 1-p) ≥ 0.5).
    """
    L = len(dist) - 1
    rest = np.empty(L)
    if p <= 0.5:
        acc = 0.0
        for k in range(L):
            acc = (dist[k] - acc * p) / (1.0 - p)
            rest[k] = acc
            acc = max(acc, 0.0)
    else:
        acc = 0.0
        for k in range(L - 1, -1, -1):
            acc = (dist[k + 1] - acc * (1.0 - p)) / p
            rest[k] = acc
            acc = max(acc, 0.0)
    np.clip(rest, 0.0, 1.0, out=rest)
    s = rest.sum()
    if s > 0:
        rest /= s
    return rest


def tail_index(dist: np.ndarray, threshold: float, scale: float = 1.0) -> int:
    """Largest k with scale · Pr[X ≥ k] ≥ threshold, or −1 if none."""
    if scale < threshold:
        return -1
    tail = np.cumsum(dist[::-1])[::-1] * scale
    ks = np.flatnonzero(tail >= threshold)
    return int(ks.max()) if len(ks) else -1


def peel(
    dists: list[np.ndarray],
    scale: list[float],
    threshold: float,
    lost: Callable[[int], Iterable[tuple[int, float]]],
) -> np.ndarray:
    """Peel items by least tail index; return each item's running-max index.

    Item i has distribution ``dists[i]`` (updated in place) and factor
    ``scale[i]``. ``lost(i)`` is called once, when i is removed, and
    yields ``(j, p)`` for every item j that loses a Bernoulli(p) with it;
    items already removed are skipped. The running maximum of the
    popped indices is the core (truss) number (Batagelj–Zaversnik).
    """
    index = [tail_index(d, threshold, s) for d, s in zip(dists, scale)]
    heap = [(k, i) for i, k in enumerate(index)]
    heapq.heapify(heap)
    removed = np.zeros(len(dists), dtype=bool)
    out = np.empty(len(dists), dtype=np.int64)
    k = -1
    while heap:
        d, i = heapq.heappop(heap)
        if removed[i] or d != index[i]:
            continue
        removed[i] = True
        k = max(k, d)
        out[i] = k
        for j, p in lost(i):
            if removed[j]:
                continue
            dists[j] = deconvolve(dists[j], p)
            nd = tail_index(dists[j], threshold, scale[j])
            if nd != index[j]:
                index[j] = nd
                heapq.heappush(heap, (nd, j))
    return out
