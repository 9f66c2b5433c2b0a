"""Expected densest subgraph (EDS) — Zou 2013, extended per Appendix C.

Edge density: the expected density of U is Σ_{e ⊆ U} p(e) / |U|
(linearity), i.e. the weighted densest subgraph of the deterministic
graph with weights p(e). We scale probabilities to integers (×10⁶) and
run the exact weighted Goldberg search, so the result is the true
integer-weighted optimum.

Clique/pattern density (Theorem 7): the expected density is the
weighted instance density with instance weight Π edge probs. The
weighted flow network generalizes the grouped network of Algorithm 7
(an h-clique is the pattern K_h) with per-group weights; we reuse the
grouped builder with integer weights (the group "count" becomes the
scaled weight sum). The peel lower bound and the core prune are the
instance peels of ``graphs/peeling.py`` with the same integer weights.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ..core.uncertain import UncertainGraph
from ..graphs.alldense import instances
from ..graphs.goldberg import (
    build_edge_network,
    build_pattern_network,
    goldberg_search,
)
from ..graphs.graph import relabel
from ..graphs.patterns import instance_edges
from ..graphs.peeling import instance_core, instance_peel

SCALE = 1_000_000


def expected_densest(
    ug: UncertainGraph, notion: str = "edge"
) -> tuple[frozenset[int], float]:
    """(EDS node set, its expected density). Exact up to prob scaling."""
    ce, ids = relabel(ug.edges)
    n = len(ids)
    if n == 0:
        return frozenset(), 0.0
    w_int = np.maximum(1, np.round(ug.probs * SCALE).astype(np.int64))
    prob_of = {(int(u), int(v)): int(w) for (u, v), w in zip(ce, w_int)}
    insts = instances(ce, n, notion)
    if not insts:
        return frozenset(), 0.0
    weights = np.empty(len(insts), dtype=np.int64)
    for i, inst in enumerate(insts):
        w = 1.0
        for a, b in instance_edges(inst, notion):
            w *= prob_of[(min(a, b), max(a, b))] / SCALE
        weights[i] = max(1, int(round(w * SCALE)))
    lo = instance_peel(insts, n, weights)[0]
    # Prune to the weighted core: any node of the weighted densest
    # subgraph has weighted instance degree ≥ ρ* ≥ ρ̃ (same exchange
    # argument as the unweighted case), so iteratively dropping nodes
    # with weighted degree < ρ̃, i.e. < ⌈ρ̃⌉ for integer degrees, keeps
    # the optimum intact.
    core = instance_core(insts, n, math.ceil(lo), weights)
    keep_ids = np.array(sorted(core), dtype=np.int64)
    pos = {int(v): i for i, v in enumerate(keep_ids)}
    kept = [i for i, inst in enumerate(insts) if all(v in core for v in inst)]
    insts = [tuple(pos[v] for v in insts[i]) for i in kept]
    weights = weights[kept]
    ids = ids[keep_ids]
    n = len(keep_ids)
    if not insts or n == 0:
        return frozenset(), 0.0
    lo, witness, _, _, _ = instance_peel(insts, n, weights)
    wts = weights.tolist()

    def density_of(S: set[int]) -> Fraction:
        tot = sum(w for inst, w in zip(insts, wts) if all(v in S for v in inst))
        return Fraction(tot, len(S))

    if notion == "edge":
        ce = np.array(insts, dtype=np.int64)

        def builder(alpha: Fraction):
            return build_edge_network(ce, n, alpha, weights)

    else:
        # grouped weighted-instance network: group weight = Σ instance
        # weights sharing a node set (generalizes Algorithm 7's |g|).
        groups: dict[frozenset[int], int] = {}
        for inst, w in zip(insts, wts):
            key = frozenset(inst)
            groups[key] = groups.get(key, 0) + w

        def builder(alpha: Fraction):
            return build_pattern_network(n, groups, len(insts[0]), alpha)

    # Densities are (Σ int weights)/|S|, so every α the search visits is
    # an achieved density with denominator ≤ n, however large the weights.
    rho, witness, _ = goldberg_search(builder, n, lo, witness, density_of)
    nodes = frozenset(int(ids[v]) for v in witness)
    return nodes, float(rho) / SCALE
