"""Peels over node-tuple instances: the one prune, and the heuristic's peel.

A density notion is a ``(count, h)`` int64 array of instances: node
tuples of one width h (edges, h-cliques or ψ-instances), with optional
positive integer weights, one per instance (the expected densest
subgraph's Π p(e), scaled). The density of a node set S is the weight
of the instances inside S over |S|, and a node's degree is the weight
of the instances that hold it. Degrees are exact integers: one
``np.bincount`` without weights, ``np.add.at`` over int64 with them.

``charikar_peel`` gives the lower bound ρ̃ that prunes each sampled
world to its ⌈ρ̃⌉-core before the exact flow search (Algorithm 1,
Line 5). It is the batched peel of Bahmani, Kumar & Vassilvitskii
(VLDB'12) at ε = 0: each round takes every degree over the surviving
instances and drops every node whose degree is at most the average
h·W/n, keeping the densest round. At least one node (a minimum-degree
one) goes each round. Charikar's (2000) bound carries over to width h:
in the first round that drops a node v of a densest set S*, the
surviving set S contains S*, so deg_S(v) ≥ deg_S*(v) ≥ ρ* (removing v
from S* cannot raise its density), and v is dropped only if
deg_S(v) ≤ h·ρ(S); hence ρ(S) ≥ ρ*/h.

``k_core_nodes`` is the (k, ·)-core in rounds: every node below k goes
at once, and the rounds stop when none is left below k. The k-core is
unique (the largest node set whose every node has degree ≥ k in it), so
rounds give the same set as a one-at-a-time peel.

``instance_peel`` is the sequential min-degree peel. Its removal order
is the heuristic dense-subgraph method of §III-C
(``graphs/heuristic.py``).
"""
from __future__ import annotations

import heapq
from fractions import Fraction

import numpy as np


def _degrees(insts: np.ndarray, n: int, weights: np.ndarray | None) -> np.ndarray:
    """Exact (weighted) instance degree of every node ``0..n-1``."""
    if weights is None:
        return np.bincount(insts.ravel(), minlength=n)
    deg = np.zeros(n, dtype=np.int64)
    np.add.at(deg, insts.ravel(), np.repeat(weights, insts.shape[1]))
    return deg


def inside(insts: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Mask of the instances whose every node ``member`` marks."""
    keep = member[insts[:, 0]]
    for j in range(1, insts.shape[1]):
        keep &= member[insts[:, j]]
    return keep


def charikar_peel(
    insts: np.ndarray, n: int, weights: np.ndarray | None = None
) -> tuple[Fraction, set[int]]:
    """Batched average-degree peel; returns (best density, its node set).

    The returned density is an *achieved* density, hence a valid lower
    bound ρ̃ ≤ ρ*; it is also ≥ ρ*/h (see the module docstring). Ties
    keep the earliest, i.e. largest, round.
    """
    a = np.asarray(insts, dtype=np.int64)
    if len(a) == 0:
        return Fraction(0), set()
    h = a.shape[1]
    w = None if weights is None else np.asarray(weights, dtype=np.int64)
    total = len(a) if w is None else int(w.sum())
    deg = _degrees(a, n, w)
    alive = deg > 0
    best_w, best_n, best_alive = total, int(alive.sum()), alive
    while True:
        # Integer form of deg ≤ h·W/n over the alive nodes.
        alive = alive & (deg * int(alive.sum()) > h * total)
        keep = inside(a, alive)
        a = a[keep]
        if len(a) == 0:
            break
        if w is None:
            total = len(a)
        else:
            w = w[keep]
            total = int(w.sum())
        deg = _degrees(a, n, w)
        alive = deg > 0
        n_alive = int(alive.sum())
        if total * best_n > best_w * n_alive:
            best_w, best_n, best_alive = total, n_alive, alive
    return Fraction(best_w, best_n), set(np.flatnonzero(best_alive).tolist())


def k_core_nodes(
    insts: np.ndarray, n: int, k: int, weights: np.ndarray | None = None
) -> np.ndarray:
    """Node ids of the (k, ·)-core; empty array if none survive.

    Every node of the core has (weighted) degree ≥ k over the instances
    whose nodes all survive. A node in no instance is never in a k-core
    for k ≥ 1.
    """
    if k <= 0:
        return np.arange(n, dtype=np.int64)
    a = np.asarray(insts, dtype=np.int64)
    if len(a) == 0:
        return np.empty(0, dtype=np.int64)
    w = None if weights is None else np.asarray(weights, dtype=np.int64)
    while True:
        alive = _degrees(a, n, w) >= k
        keep = inside(a, alive)
        if keep.all():
            return np.flatnonzero(alive).astype(np.int64)
        a = a[keep]
        if w is not None:
            w = w[keep]


def instance_peel(
    instances: np.ndarray, n: int
) -> tuple[list[int], list[int], list[int]]:
    """Sequential min-instance-degree peel.

    Returns ``(removal_order, instances_left_after_each_removal,
    degree_at_each_removal)``. The suffix left after removal i has
    ``len(removal_order) - i - 1`` nodes, so its density is the i-th
    instance total over that. The degree trace gives core numbers for
    free: cn(v) = running max of the popped degree up to v's removal
    (Batagelj–Zaversnik). Nodes not in any instance are treated as
    removed up front (they can never be in a densest subgraph with
    positive density).
    """
    a = np.asarray(instances, dtype=np.int64)
    if len(a) == 0:
        return [], [], []
    # CSR incidence: node v's instance ids are inst_of[indptr[v]:indptr[v+1]].
    flat = a.ravel()
    deg = np.bincount(flat, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(deg)]).tolist()
    inst_of = (np.argsort(flat, kind="stable") // a.shape[1]).tolist()
    rows, deg = a.tolist(), deg.tolist()
    n_alive = sum(1 for d in deg if d > 0)
    inst_alive = [True] * len(rows)
    total = len(rows)
    heap = [(d, v) for v, d in enumerate(deg) if d > 0]
    heapq.heapify(heap)
    removal_order: list[int] = []
    totals: list[int] = []
    pop_degrees: list[int] = []
    removed = [False] * n
    while n_alive > 0 and heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = True
        removal_order.append(v)
        pop_degrees.append(d)
        n_alive -= 1
        for i in inst_of[indptr[v] : indptr[v + 1]]:
            if inst_alive[i]:
                inst_alive[i] = False
                total -= 1
                for u in rows[i]:
                    if u != v and not removed[u]:
                        deg[u] -= 1
                        heapq.heappush(heap, (deg[u], u))
        totals.append(total)
    return removal_order, totals, pop_degrees
