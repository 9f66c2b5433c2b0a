"""Expected densest subgraph (EDS) — Zou 2013, extended per Appendix C.

Edge density: the expected density of U is Σ_{e ⊆ U} p(e) / |U|
(linearity), i.e. the weighted densest subgraph of the deterministic
graph with weights p(e). Clique/pattern density (Theorem 7): the
expected density is the weighted instance density with instance weight
Π edge probs. We scale the weights to integers (×10⁶) and run the exact
weighted instance search of ``graphs/alldense.py``, so the result is the
true integer-weighted optimum.
"""
from __future__ import annotations

import math

import numpy as np

from ..core.uncertain import UncertainGraph
from ..graphs import alldense
from ..graphs.graph import relabel
from ..graphs.patterns import instance_edges

SCALE = 1_000_000


def expected_densest(
    ug: UncertainGraph, notion: str = "edge"
) -> tuple[frozenset[int], float]:
    """(EDS node set, its expected density). Exact up to prob scaling."""
    ce, ids = relabel(ug.edges)
    insts = alldense.instances(ce, len(ids), notion)
    if not insts:
        return frozenset(), 0.0
    scaled = np.maximum(1, np.round(ug.probs * SCALE)) / SCALE
    prob_of = dict(zip(map(tuple, ce.tolist()), scaled.tolist()))
    weights = np.array([
        max(1, round(math.prod(
            prob_of[min(a, b), max(a, b)] for a, b in instance_edges(inst, notion)
        ) * SCALE))
        for inst in insts
    ], dtype=np.int64)
    rho, witness, _, core_ids = alldense.instance_search(insts, len(ids), weights)
    return frozenset(int(ids[core_ids[v]]) for v in witness), float(rho) / SCALE
