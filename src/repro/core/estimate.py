"""Sampling estimators for ARBITRARY node sets (baseline evaluation).

Tables III/IV/VII/XI/XII report the estimated densest-subgraph
probability τ̂(U) and containment probability γ̂(U) of node sets produced
by *other* methods (EDS, cores, trusses, DDS, heuristics). Per sampled
world the kernel computes ρ* and the maximum-sized densest subgraph
once, then scores every candidate. U is contained iff U ⊆ the max-sized
densest subgraph (footnote 5). Containment is tested first: every
densest subgraph lies inside that union, so only a contained U can be
densest, and only then is its induced density computed; U is densest
iff that density equals ρ* (> 0). Aggregation is a Catalyst groupBy
over candidate ids.

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
from ..graphs.patterns import instance_edge_ids
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
    ce, ids = relabel(sub)
    return Fraction(
        len(instances(ce, len(ids), notion)), int(np.count_nonzero(member))
    )


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
            contained = bool(res.max_sized) and U <= res.max_sized
            is_ds = contained and _induced_density(we, notion, member) == res.rho
            rows.append((ci, int(is_ds) * w, int(contained) * w))
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

    Theorem 7: Σ over the instances within U of Π edge probs, divided by
    |U|. For edge density each instance is one edge, so this is
    Σ_{e ⊆ U} p(e) / |U| (linearity).
    """
    if not U:
        return 0.0
    member = np.zeros(max(ug.n, max(U) + 1), dtype=bool)
    member[list(U)] = True
    keep = member[ug.edges[:, 0]] & member[ug.edges[:, 1]]
    ce, ids = relabel(ug.edges[keep])
    rows = instance_edge_ids(instances(ce, len(ids), notion), ce, notion)
    return float(ug.probs[keep][rows].prod(axis=1).sum() / len(U))
