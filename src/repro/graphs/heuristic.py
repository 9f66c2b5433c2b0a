"""Heuristic dense-subgraph extraction via core decomposition (§III-C).

For large graphs / expensive patterns the paper replaces exact
all-densest enumeration with: run core decomposition w.r.t. the density
object; the (k_max, ·)-core is a reasonably dense subgraph (density ≥
ρ*/|V_ψ|). One min-degree peel gives both the core and the densities of
its removal suffixes, so the heuristic returns the innermost core, or
the densest peel suffix where one is strictly denser. Its one set per
world stands in for the maximum-sized densest subgraph in heuristic
Pattern-NDS (Table XI) and the Friendster-scale Edge-NDS (Table XII).
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .alldense import instances
from .graph import canonical_edges, relabel
from .peeling import instance_peel


class HeuristicResult(NamedTuple):
    rho: Fraction  # density of ``best``
    best: frozenset[int]  # the heuristic dense subgraph (original labels)


def heuristic_dense(edges: np.ndarray, notion: str) -> HeuristicResult:
    """Core-decomposition heuristic for any density notion.

    ``best`` is the innermost core of the min-degree peel, unless a
    suffix left after some removal is strictly denser; then it is the
    densest such suffix, ties going to the larger one.
    """
    e = canonical_edges(edges)
    if len(e) == 0:
        return HeuristicResult(Fraction(0), frozenset())
    ce, ids = relabel(e)
    n = len(ids)
    insts = instances(ce, n, notion)
    if len(insts) == 0:
        return HeuristicResult(Fraction(0), frozenset())
    # Core numbers come free from the popped degrees (Batagelj–Zaversnik:
    # cn(v) = running max of popped degree), so the innermost core is the
    # peel suffix from the first removal at the final running max.
    order, totals, pop_deg = instance_peel(insts, n)
    runmax = np.maximum.accumulate(pop_deg)
    first = int(np.argmax(runmax == runmax[-1]))
    # (instances, nodes) of the suffix that starts at removal ``start``.
    best_w = totals[first - 1] if first else len(insts)
    best_n, start = len(order) - first, first
    for i, w in enumerate(totals):
        size = len(order) - i - 1
        # Exact w/size > best_w/best_n; the earliest, i.e. larger, suffix
        # keeps a tie.
        if size and w * best_n > best_w * size:
            best_w, best_n, start = w, size, i + 1
    return HeuristicResult(
        Fraction(best_w, best_n), frozenset(ids[order[start:]].tolist())
    )
