"""Poisson-binomial tail indices and the peel shared by the uncertain
(k, η)-core and (k, γ)-truss.

A Poisson-binomial variable X counts the successes of independent
Bernoullis. Both baselines give each item (a node, an edge) such a
count: its degree (Bonchi et al., KDD'14) or its triangle count (Huang
et al., SIGMOD'16). An item's tail index is the largest k with
scale · Pr[X ≥ k] ≥ threshold, and −1 when scale < threshold. They peel
the item of least tail index.

Removing an item only takes Bernoullis away from the others, so every
index only falls while the peel runs. An item at index k is therefore
asked only for Pr[X ≥ j] with j ≤ k, which is 1 − Σ_{l<j} Pr[X = l]:
``peel`` keeps just the prefix Pr[X = 0..k−1] and never the whole
distribution. The sum is empty at j = 0, so Pr[X ≥ 0] is exactly 1 and
an item's index is ≥ 0 exactly when scale ≥ threshold; items at 0 or
−1 never change again.

A removal takes one Bernoulli(p) out of a prefix in O(k)
(``deconvolve``). The forward recurrence divides by 1 − p, which is
stable only for p ≤ 0.5; for larger p the prefix is rebuilt from the
item's remaining Bernoullis instead. The first distributions come from
one array DP per batch of items of similar count (``distributions``).
"""
from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable

import numpy as np


def distributions(indptr: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Pr[X_i = k] for every item i, one row each, zero-padded to the
    longest; item i's Bernoullis are ``probs[indptr[i]:indptr[i+1]]``.

    One DP step per Bernoulli column, over the rows that still have
    one (rows sorted by count, longest first), in the same order and
    arithmetic as a per-item DP.
    """
    counts = np.diff(indptr)
    order = np.argsort(-counts, kind="stable")
    starts, counts = indptr[:-1][order], counts[order]
    width = int(counts.max(initial=0))
    dist = np.zeros((len(counts), width + 1))
    dist[:, 0] = 1.0
    rows = np.searchsorted(-counts, -np.arange(width), side="left")
    for t, r in enumerate(rows):
        p = probs[starts[:r] + t][:, None]
        q = 1 - p
        dist[:r, 1 : t + 2] = dist[:r, 1 : t + 2] * q + dist[:r, : t + 1] * p
        dist[:r, :1] *= q
    out = np.empty_like(dist)
    out[order] = dist
    return out


def distribution(probs: Iterable[float]) -> np.ndarray:
    """Pr[X = k] for k = 0..len(probs), X the number of successes."""
    p = np.fromiter(probs, dtype=np.float64)
    return distributions(np.array([0, len(p)]), p)[0]


def _prefix(probs: Iterable[float], length: int) -> list[float]:
    """Pr[X = 0..length−1] by the DP of ``distributions``, truncated."""
    dist = [1.0, *[0.0] * (length - 1)][:length]
    for p in probs:
        q = 1 - p
        nxt, prev = [], 0.0
        for x in dist:
            nxt.append(x * q + prev * p)
            prev = x
        dist = nxt
    return dist


def deconvolve(
    prefix: list[float], p: float, rest: Iterable[float]
) -> list[float]:
    """Take one Bernoulli(p) out of the prefix Pr[X = 0..k−1].

    For p ≤ 0.5 this is the forward recurrence of ``conv(rest, [1-p, p])``
    over the prefix alone, which divides by 1 − p ≥ 0.5. For p > 0.5 that
    division would amplify rounding at every step, so the prefix is
    rebuilt from ``rest``, the Bernoullis that remain; ``rest`` is read
    only then.
    """
    if p > 0.5:
        return _prefix(rest, len(prefix))
    q = 1.0 - p
    out = []
    acc = 0.0
    for x in prefix:
        acc = (x - acc * p) / q
        if acc < 0.0:
            acc = 0.0
        out.append(acc if acc < 1.0 else 1.0)
    return out


def tail_index(dist: Iterable[float], threshold: float, scale: float = 1.0) -> int:
    """Largest k ≤ len(dist) with scale · Pr[X ≥ k] ≥ threshold, or −1 if
    none; ``dist`` is Pr[X = 0..] (a prefix or the whole distribution)
    and Pr[X ≥ k] = 1 − Σ_{l<k} Pr[X = l], so Pr[X ≥ 0] = 1 exactly."""
    if scale < threshold:
        return -1
    k, below = 0, 0.0
    for x in dist:
        below += x
        if (1.0 - below) * scale < threshold:
            break
        k += 1
    return k


def _first_indices(
    indptr: np.ndarray, probs: np.ndarray, scale: np.ndarray, threshold: float
) -> tuple[np.ndarray, list[list[float]]]:
    """Every item's tail index and its prefix Pr[X = 0..index−1].

    Items are batched by the bit length of their count, so each batch's
    rows are at most twice as long as its shortest, and no row is padded
    to the longest item of the whole graph.
    """
    counts = np.diff(indptr)
    index = np.zeros(len(counts), dtype=np.int64)
    prefix: list[list[float]] = [[] for _ in range(len(counts))]
    batch = np.frexp(counts.astype(np.float64))[1]
    for b in np.unique(batch[counts > 0]):
        items = np.flatnonzero(batch == b)
        lo, hi = indptr[items], indptr[items + 1]
        sub = np.concatenate([[0], np.cumsum(hi - lo)])
        take = np.repeat(lo - sub[:-1], hi - lo) + np.arange(sub[-1])
        dist = distributions(sub, probs[take])
        # Pr[X ≥ j] for j = 1..width, kept only up to each item's count.
        tail = (1.0 - np.cumsum(dist[:, :-1], axis=1)) * scale[items, None]
        ok = tail >= threshold
        ok &= np.arange(1, dist.shape[1]) <= counts[items, None]
        index[items] = ok.sum(axis=1)
        for i, row, k in zip(items.tolist(), dist, index[items].tolist()):
            prefix[i] = row[:k].tolist()
    index[scale < threshold] = -1
    return index, prefix


def peel(
    indptr: np.ndarray,
    probs: np.ndarray,
    scale: np.ndarray,
    threshold: float,
    lost: Callable[[int], Iterable[tuple[int, float]]],
    live: Callable[[int], Iterable[float]],
) -> np.ndarray:
    """Peel items by least tail index; return each item's running-max index.

    Item i starts with the Bernoullis ``probs[indptr[i]:indptr[i+1]]``
    and factor ``scale[i]``. ``lost(i)`` is called once, when i is
    removed, and yields ``(j, p)`` for every item j that loses a
    Bernoulli(p) with it; items already removed are skipped. ``live(j)``
    yields the Bernoullis j still has once those are gone. The running
    maximum of the popped indices is the core (truss) number
    (Batagelj–Zaversnik).
    """
    first, prefix = _first_indices(indptr, probs, scale, threshold)
    index = first.tolist()
    scale = scale.tolist()
    heap = [(k, i) for i, k in enumerate(index) if k > 0]
    heapq.heapify(heap)

    def pops():
        # Nothing falls below 0, so the items at −1 and 0 leave first, in
        # that order; only the rest need the heap.
        for d in (-1, 0):
            yield from ((d, i) for i in np.flatnonzero(first == d).tolist())
        while heap:
            yield heapq.heappop(heap)

    removed = [False] * len(index)
    out = np.empty(len(index), dtype=np.int64)
    k = -1
    for d, i in pops():
        if removed[i] or d != index[i]:
            continue
        removed[i] = True
        k = max(k, d)
        out[i] = k
        for j, p in lost(i):
            # An index of 0 or −1 is fixed by scale alone.
            if removed[j] or index[j] <= 0:
                continue
            pre = deconvolve(prefix[j], p, live(j))
            nd = tail_index(pre, threshold, scale[j])
            prefix[j] = pre[:nd]
            if nd != index[j]:
                index[j] = nd
                heapq.heappush(heap, (nd, j))
    return out
