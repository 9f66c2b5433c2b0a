"""Dinic max-flow on integer capacities, with residual-graph extraction.

All flow networks in this reproduction (Goldberg edge-density networks
and the grouped-instance networks of Algorithm 7 for h-clique and
pattern density) are built with *integer* capacities: the rational
density guess α = a/b is scaled by its denominator, so max-flow and the
residual graph are exact.
Python ints are arbitrary-precision, so scaling never overflows.

Augmenting paths in these networks are short (s → v [→ λ] → t), so the
blocking-flow phase uses recursion; depth is bounded by the BFS level of
t, which is ≤ 4 for every network we build plus alternation, well under
any recursion limit.
"""
from __future__ import annotations

import sys


class FlowNetwork:
    """Adjacency-list flow network with paired residual arcs.

    Arc ``eid`` and ``eid ^ 1`` are residual partners. ``add_edge`` adds a
    directed arc (reverse capacity 0); ``add_undirected`` gives both
    directions the same capacity, as the Goldberg edge-density network
    requires.
    """

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int) -> int:
        eid = len(self.to)
        self.head[u].append(eid)
        self.to.append(v)
        self.cap.append(int(cap))
        self.head[v].append(eid + 1)
        self.to.append(u)
        self.cap.append(0)
        return eid

    def add_undirected(self, u: int, v: int, cap: int) -> int:
        eid = len(self.to)
        self.head[u].append(eid)
        self.to.append(v)
        self.cap.append(int(cap))
        self.head[v].append(eid + 1)
        self.to.append(u)
        self.cap.append(int(cap))
        return eid

    def max_flow(self, s: int, t: int) -> int:
        """Run Dinic; mutates ``cap`` into residual capacities; returns value."""
        to, cap, head = self.to, self.cap, self.head
        n = self.n
        flow = 0
        # Paths are short but recursion alternates with loops; give headroom.
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, n + 100))
        try:
            while True:
                level = [-1] * n
                level[s] = 0
                queue = [s]
                for u in queue:
                    for eid in head[u]:
                        v = to[eid]
                        if cap[eid] > 0 and level[v] < 0:
                            level[v] = level[u] + 1
                            queue.append(v)
                if level[t] < 0:
                    return flow
                it = [0] * n

                def dfs(u: int, pushed: int) -> int:
                    if u == t:
                        return pushed
                    while it[u] < len(head[u]):
                        eid = head[u][it[u]]
                        v = to[eid]
                        if cap[eid] > 0 and level[v] == level[u] + 1:
                            got = dfs(v, min(pushed, cap[eid]))
                            if got > 0:
                                cap[eid] -= got
                                cap[eid ^ 1] += got
                                return got
                        it[u] += 1
                    level[u] = -1  # dead end; prune
                    return 0

                while True:
                    pushed = dfs(s, _INF)
                    if pushed == 0:
                        break
                    flow += pushed
        finally:
            sys.setrecursionlimit(old_limit)

    def min_cut_source_side(self, s: int) -> set[int]:
        """Nodes reachable from s in the residual graph (call after max_flow)."""
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for eid in self.head[u]:
                v = self.to[eid]
                if self.cap[eid] > 0 and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    def residual_arcs(self) -> list[tuple[int, int]]:
        """Directed arcs (u, v) with positive residual capacity."""
        arcs = []
        for u in range(self.n):
            for eid in self.head[u]:
                if self.cap[eid] > 0:
                    arcs.append((u, self.to[eid]))
        return arcs


_INF = 1 << 200  # larger than any sum of scaled capacities we ever build
