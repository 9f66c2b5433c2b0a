"""Heuristic dense-subgraph extraction via core decomposition (§III-C).

For large graphs / expensive patterns the paper replaces exact
all-densest enumeration with: run core decomposition w.r.t. the density
object; the (k_max, ·)-core is a reasonably dense subgraph (density ≥
ρ*/|V_ψ|); return it together with all intermediate peel subgraphs of
greater density. Used for heuristic Pattern-NDS (Table XI) and the
Friendster-scale Edge-NDS (Table XII).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .alldense import instances
from .graph import canonical_edges, relabel
from .peeling import instance_peel


@dataclass
class HeuristicResult:
    rho: Fraction  # best density among returned subgraphs
    subgraphs: list[frozenset[int]]  # candidate dense subgraphs
    best: frozenset[int]  # densest candidate (ties → larger set)


def heuristic_dense(
    edges: np.ndarray, notion: str, max_subgraphs: int = 32
) -> HeuristicResult:
    """Core-decomposition heuristic for any density notion.

    Returns the innermost core plus up to ``max_subgraphs`` denser peel
    suffixes (node sets in original labels). The best candidate plays the
    role of the "maximum-sized densest subgraph" in heuristic NDS.
    """
    e = canonical_edges(edges)
    if len(e) == 0:
        return HeuristicResult(Fraction(0), [], frozenset())
    ce, ids = relabel(e)
    n = len(ids)
    insts = instances(ce, n, notion)
    if not insts:
        return HeuristicResult(Fraction(0), [], frozenset())
    # One peel pass records removal order, suffix densities, AND popped
    # degrees — core numbers come free (Batagelj–Zaversnik: cn(v) =
    # running max of popped degree), so the innermost core is the peel
    # suffix from the first removal at the final running max.
    _best, _best_set, order, densities, pop_deg = instance_peel(insts, n)
    inst_node_sets = [frozenset(t) for t in insts]
    touched = {v for t in insts for v in t}
    runmax = np.maximum.accumulate(np.array(pop_deg, dtype=np.int64))
    k_max = int(runmax[-1]) if len(runmax) else 0
    first = int(np.argmax(runmax == k_max)) if len(runmax) else 0
    innermost: set[int] = set(order[first:])
    inner_cnt = sum(1 for t in inst_node_sets if t <= innermost)
    inner_rho = Fraction(inner_cnt, len(innermost)) if innermost else Fraction(0)
    # Suffix subgraphs denser than the innermost core, reconstructed from
    # the recorded removal order.
    cands: list[tuple[Fraction, frozenset[int]]] = [
        (inner_rho, frozenset(innermost))
    ]
    alive = set(touched)
    for v, dens in zip(order, densities):
        alive.discard(v)
        if dens > inner_rho and alive:
            cands.append((dens, frozenset(alive)))
            if len(cands) > max_subgraphs:
                # keep the densest ones
                cands.sort(key=lambda t: (-t[0], -len(t[1])))
                cands = cands[:max_subgraphs]
    cands.sort(key=lambda t: (-t[0], -len(t[1])))
    best_rho, best_set = cands[0]
    to_orig = lambda S: frozenset(int(ids[v]) for v in S)  # noqa: E731
    return HeuristicResult(
        best_rho,
        [to_orig(S) for _, S in cands if S],
        to_orig(best_set),
    )
