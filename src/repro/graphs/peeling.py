"""Peeling algorithms: batched edge peel and instance-based peels.

``charikar_peel`` gives a 1/2-approximation for edge density — used as
the lower bound ρ̃ that prunes each sampled world to its ⌈ρ̃⌉-core
before the exact flow computation (Algorithm 1, Line 5). It is the
batched peel of Bahmani, Kumar & Vassilvitskii (VLDB'12) at ε = 0: each
round computes degrees with one ``np.bincount`` over the surviving
edges and drops every node whose degree is at most the average degree
2m/n, keeping the densest round. At least one node (a minimum-degree
one) goes each round. Charikar's (2000) bound carries over: in the
first round that drops a node v of a densest set S*, the surviving set
S contains S*, so deg_S(v) ≥ deg_S*(v) ≥ ρ* (removing v from S* cannot
raise its density), and v is dropped only if deg_S(v) ≤ 2ρ(S); hence
ρ(S) ≥ ρ*/2.

``instance_peel`` generalizes to h-clique / pattern density: instances
are node tuples (the h-cliques or ψ-instances); the density of a node
set is (#instances fully inside) / |set|. It also powers the
(k, h)-core / (k, ψ)-core (``instance_core``) and the heuristic
dense-subgraph method of §III-C. With integer instance weights both
serve the expected densest subgraph baseline (``baselines/eds.py``).
"""
from __future__ import annotations

import heapq
from fractions import Fraction

import numpy as np


def charikar_peel(edges: np.ndarray, n: int) -> tuple[Fraction, set[int]]:
    """Batched average-degree peel; returns (best density, its node set).

    The returned density is an *achieved* density, hence a valid lower
    bound ρ̃ ≤ ρ*; it is also ≥ ρ*/2 (see the module docstring). Ties
    keep the earliest, i.e. largest, round.
    """
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if len(e) == 0:
        return Fraction(0), set()
    deg = np.bincount(e.ravel(), minlength=n)
    alive = deg > 0
    best_m, best_n, best_alive = len(e), int(alive.sum()), alive
    while True:
        # Integer form of deg ≤ 2m/n over the alive nodes.
        alive = alive & (deg * int(alive.sum()) > 2 * len(e))
        e = e[alive[e[:, 0]] & alive[e[:, 1]]]
        if len(e) == 0:
            break
        deg = np.bincount(e.ravel(), minlength=n)
        alive = deg > 0
        n_alive = int(alive.sum())
        if len(e) * best_n > best_m * n_alive:
            best_m, best_n, best_alive = len(e), n_alive, alive
    return Fraction(best_m, best_n), set(np.flatnonzero(best_alive).tolist())


def _instance_degrees(
    instances: list[tuple[int, ...]], n: int, weights: np.ndarray | None
) -> tuple[list[list[int]], list[int], np.ndarray]:
    """Instance ids per node, instance weights, and weighted degrees."""
    inst_of: list[list[int]] = [[] for _ in range(n)]
    for i, inst in enumerate(instances):
        for v in inst:
            inst_of[v].append(i)
    wt = [1] * len(instances) if weights is None else np.asarray(weights).tolist()
    deg = np.array(
        [sum(wt[i] for i in inst_of[v]) for v in range(n)], dtype=np.int64
    )
    return inst_of, wt, deg


def instance_peel(
    instances: list[tuple[int, ...]], n: int, weights: np.ndarray | None = None
) -> tuple[Fraction, set[int], list[int], list[Fraction], list[int]]:
    """Min-instance-degree peel for clique/pattern density.

    Returns ``(best_density, best_suffix_set, removal_order,
    density_after_each_removal, degree_at_each_removal)``. The degree
    trace gives core numbers for free: cn(v) = running max of the popped
    degree up to v's removal (Batagelj–Zaversnik). Nodes not in any
    instance are treated as removed up front (they can never be in a
    densest subgraph with positive density). Optional positive integer
    ``weights`` (one per instance) make degrees and densities weighted.
    """
    inst_of, wt, deg = _instance_degrees(instances, n, weights)
    alive = deg > 0
    n_alive = int(alive.sum())
    if not instances or n_alive == 0:
        return Fraction(0), set(), [], [], []
    inst_alive = np.ones(len(instances), dtype=bool)
    total = sum(wt)
    heap = [(int(deg[v]), int(v)) for v in range(n) if alive[v]]
    heapq.heapify(heap)
    best = Fraction(total, n_alive)
    best_set = {v for v in range(n) if alive[v]}
    cur_set = set(best_set)
    removal_order: list[int] = []
    densities: list[Fraction] = []
    pop_degrees: list[int] = []
    removed = np.zeros(n, dtype=bool)
    while n_alive > 0 and heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = True
        removal_order.append(v)
        pop_degrees.append(int(d))
        cur_set.discard(v)
        n_alive -= 1
        for i in inst_of[v]:
            if inst_alive[i]:
                inst_alive[i] = False
                total -= wt[i]
                for w in instances[i]:
                    if w != v and not removed[w]:
                        deg[w] -= wt[i]
                        heapq.heappush(heap, (int(deg[w]), int(w)))
        if n_alive > 0:
            dens = Fraction(total, n_alive)
            densities.append(dens)
            if dens > best:
                best = dens
                best_set = set(cur_set)
        else:
            densities.append(Fraction(0))
    return best, best_set, removal_order, densities, pop_degrees


def instance_core(
    instances: list[tuple[int, ...]],
    n: int,
    k: int,
    weights: np.ndarray | None = None,
) -> set[int]:
    """(k, ·)-core w.r.t. instance degree: maximal node set where every
    node is contained in ≥ k surviving instances (instances count only
    if all their nodes survive). With ``weights``, a node needs surviving
    instance weight ≥ k."""
    inst_of, wt, deg = _instance_degrees(instances, n, weights)
    alive = deg > 0
    inst_alive = np.ones(len(instances), dtype=bool)
    queue = [v for v in range(n) if alive[v] and deg[v] < k]
    for v in queue:
        alive[v] = False
    while queue:
        v = queue.pop()
        for i in inst_of[v]:
            if inst_alive[i]:
                inst_alive[i] = False
                for w in instances[i]:
                    if w != v and alive[w]:
                        deg[w] -= wt[i]
                        if deg[w] < k:
                            alive[w] = False
                            queue.append(w)
    return {v for v in range(n) if alive[v]}
