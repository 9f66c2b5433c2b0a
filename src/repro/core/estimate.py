"""Sampling estimators for ARBITRARY node sets (baseline evaluation).

Tables III/IV/VII/XI/XII report the estimated densest-subgraph
probability τ̂(U) and containment probability γ̂(U) of node sets produced
by *other* methods (EDS, cores, trusses, DDS, heuristics). Per sampled
world the kernel computes ρ* and the maximum-sized densest subgraph
once, then scores every candidate: U is densest iff its induced density
equals ρ* (> 0); U is contained iff U ⊆ the max-sized densest subgraph
(footnote 5). Aggregation is a Catalyst groupBy over candidate ids.

Also exact expected densities (no sampling, Theorem 7 / linearity).
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from ..graphs.alldense import all_densest, instances
from ..graphs.graph import relabel
from ..graphs.patterns import instance_edges
from .mpds import map_worlds
from .uncertain import UncertainGraph


def _induced_density(
    edges: np.ndarray, notion: str, member: np.ndarray
) -> Fraction:
    """Density of the subgraph induced by the nodes ``member`` marks.

    ``member`` is a boolean mask over node ids marking a non-empty set U;
    it must cover every node id of ``edges``.
    """
    sub = edges[member[edges[:, 0]] & member[edges[:, 1]]]
    size = int(np.count_nonzero(member))
    if notion == "edge":
        return Fraction(len(sub), size)
    ce, ids = relabel(sub)
    return Fraction(len(instances(ce, len(ids), notion)), size)


def estimate_set_probs(
    spark: SparkSession,
    ug: UncertainGraph,
    candidates: list[frozenset[int]],
    theta: int = 160,
    notion: str = "edge",
    seed: int = 0,
    method: str = "mc",
) -> pd.DataFrame:
    """τ̂ and γ̂ for each candidate set; rows indexed by candidate order."""
    cands = [frozenset(int(v) for v in c) for c in candidates]
    n_ids = max([ug.n, *(max(U) + 1 for U in cands if U)])
    members = []
    for U in cands:
        member = np.zeros(n_ids, dtype=bool)
        member[list(U)] = True
        members.append(member)

    def solve(wid, we, w, state):
        res = all_densest(we, notion, max_enum=1)
        rows = []
        for ci, (U, member) in enumerate(zip(cands, members)):
            if not U:  # empty baseline set (e.g. empty truss)
                rows.append((ci, 0.0, 0.0))
                continue
            dens = _induced_density(we, notion, member)
            is_ds = int(res.rho > 0 and dens == res.rho)
            contained = int(bool(res.max_sized) and U <= res.max_sized)
            rows.append((ci, is_ds * w, contained * w))
        return rows

    out = (
        map_worlds(
            spark, ug, theta, seed, method, solve,
            "cand_id int, tau_w double, gamma_w double",
        )
        .groupBy("cand_id")
        .agg(
            (F.sum("tau_w") / F.lit(float(theta))).alias("tau_hat"),
            (F.sum("gamma_w") / F.lit(float(theta))).alias("gamma_hat"),
        )
        .toPandas()
        .set_index("cand_id")
        .sort_index()
    )
    return out.reindex(range(len(candidates)), fill_value=0.0)


def expected_density(ug: UncertainGraph, U: frozenset[int], notion: str = "edge") -> float:
    """Exact expected density of the subgraph induced by U.

    Edge density: Σ_{e ⊆ U} p(e) / |U| (linearity). Clique/pattern
    density: Theorem 7 — Σ over instances within U of Π edge probs,
    divided by |U|.
    """
    if not U:
        return 0.0
    keep = np.array(
        [int(u) in U and int(v) in U for u, v in ug.edges], dtype=bool
    )
    sub_e = ug.edges[keep]
    sub_p = ug.probs[keep]
    if notion == "edge":
        return float(sub_p.sum() / len(U))
    prob_of = {
        (int(u), int(v)): float(p) for (u, v), p in zip(sub_e, sub_p)
    }
    ce, ids = relabel(sub_e)
    total = 0.0
    for inst in instances(ce, len(ids), notion):
        w = 1.0
        for a, b in instance_edges(inst, notion):
            oa, ob = int(ids[a]), int(ids[b])
            w *= prob_of[(min(oa, ob), max(oa, ob))]
        total += w
    return total / len(U)
