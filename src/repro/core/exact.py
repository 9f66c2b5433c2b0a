"""Exact MPDS by full possible-world enumeration (Tables I and XV).

The #P-hard baseline: iterate all 2^m worlds (m ≤ ~26), compute every
node subset's density in every world, and accumulate τ(U) (and the
expected density EED(U)) exactly. Worlds are split into contiguous
chunks distributed as Spark rows; inside a chunk everything is
vectorized with numpy:

* world → instance presence: bitmask AND against per-instance edge masks
* instance counts per subset: boolean matmul (presence × membership)
* world probability: bit-indicator × log-prob matmul, exponentiated
* a subset is densest iff its density equals the row max and is > 0
  (rational equality survives float64 division: equal rationals round to
  equal doubles).
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from ..graphs.alldense import instances
from ..graphs.graph import canonical_edges
from ..graphs.patterns import instance_edge_ids
from .mpds import one_wave, reread_zips_on_change
from .uncertain import UncertainGraph

MAX_EXACT_EDGES = 26


def _prepare(ug: UncertainGraph, notion: str):
    edges = canonical_edges(ug.edges)
    m = len(edges)
    if m > MAX_EXACT_EDGES:
        raise ValueError(
            f"exact enumeration needs m <= {MAX_EXACT_EDGES}, got {m}"
        )
    n = ug.n
    insts = instances(edges, n, notion)
    one = np.uint64(1)
    rows = instance_edge_ids(insts, edges, notion).astype(np.uint64)
    inst_masks = np.bitwise_or.reduce(one << rows, axis=1)
    # all non-empty node subsets over nodes that appear in some edge
    active = np.unique(edges)
    na = len(active)
    nodes = active.tolist()
    subsets = [
        frozenset(v for i, v in enumerate(nodes) if (smask >> i) & 1)
        for smask in range(1, 1 << na)
    ]
    # instance i lies in subset S iff its node bitmask over ``active`` is
    # inside S's
    smasks = np.arange(1, 1 << na, dtype=np.uint64)
    inst_nodes = np.bitwise_or.reduce(
        one << np.searchsorted(active, insts).astype(np.uint64), axis=1
    )
    member = np.zeros((len(subsets), max(len(insts), 1)), dtype=np.float32)
    member[:, : len(insts)] = (smasks[:, None] & inst_nodes) == inst_nodes
    sub_sizes = np.array([len(S) for S in subsets], dtype=np.float64)
    return edges, insts, inst_masks, member, subsets, sub_sizes


def exact_tau(
    spark: SparkSession,
    ug: UncertainGraph,
    notion: str = "edge",
    chunk: int = 1 << 15,
) -> pd.DataFrame:
    """Exact τ(U) and EED(U) for every non-empty node subset.

    Returns a pandas frame (subset_id, nodeset, tau, eed) with τ summing
    to ≤ 1 (worlds with no dense structure contribute to no subset).
    """
    edges, insts, inst_masks, member, subsets, sub_sizes = _prepare(ug, notion)
    m = len(edges)
    n_worlds = 1 << m
    logp = np.log(ug.probs)
    log1mp = np.log1p(-np.clip(ug.probs, 0, 1 - 1e-15))
    sc = spark.sparkContext
    bc = sc.broadcast((inst_masks, member, sub_sizes, logp, log1mp, m))
    starts = list(range(0, n_worlds, chunk))

    def gen(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        reread_zips_on_change()
        inst_masks_, member_, sizes_, logp_, log1mp_, m_ = bc.value
        bit_cols = np.arange(m_, dtype=np.uint64)
        for pdf in batches:
            for start in pdf["start"].to_numpy():
                hi = min(int(start) + chunk, n_worlds)
                w = np.arange(int(start), hi, dtype=np.uint64)
                # instance presence: all of the instance's edges in w
                if len(inst_masks_):
                    pres = (
                        (w[:, None] & inst_masks_[None, :]) == inst_masks_[None, :]
                    ).astype(np.float32)
                    counts = pres @ member_.T  # worlds × subsets
                else:
                    counts = np.zeros((len(w), member_.shape[0]), np.float32)
                dens = counts.astype(np.float64) / sizes_[None, :]
                rowmax = dens.max(axis=1)
                bits = ((w[:, None] >> bit_cols[None, :]) & np.uint64(1)).astype(
                    np.float64
                )
                logpr = bits @ logp_ + (1.0 - bits) @ log1mp_
                pr = np.exp(logpr)
                is_max = (dens == rowmax[:, None]) & (rowmax[:, None] > 0)
                tau_part = (is_max * pr[:, None]).sum(axis=0)
                eed_part = dens.T @ pr
                out = pd.DataFrame(
                    {
                        "subset_id": np.arange(len(sizes_)),
                        "tau_part": tau_part,
                        "eed_part": eed_part,
                    }
                )
                yield out

    df = spark.createDataFrame(pd.DataFrame({"start": starts})).repartition(
        one_wave(sc, len(starts))
    )
    agg = (
        df.mapInPandas(gen, "subset_id long, tau_part double, eed_part double")
        .groupBy("subset_id")
        .agg(
            F.sum("tau_part").alias("tau"), F.sum("eed_part").alias("eed")
        )
        .toPandas()
        .sort_values("subset_id")
        .reset_index(drop=True)
    )
    agg["nodeset"] = [
        ",".join(str(v) for v in sorted(subsets[int(i)]))
        for i in agg["subset_id"]
    ]
    return agg[["subset_id", "nodeset", "tau", "eed"]]


def exact_topk_mpds(
    spark: SparkSession,
    ug: UncertainGraph,
    k: int = 1,
    notion: str = "edge",
) -> list[tuple[frozenset[int], float]]:
    """Exact top-k node sets by τ (ties broken by nodeset string)."""
    tab = exact_tau(spark, ug, notion)
    tab = tab.sort_values(["tau", "nodeset"], ascending=[False, True]).head(k)
    return [
        (frozenset(int(x) for x in r.nodeset.split(",")), float(r.tau))
        for r in tab.itertuples()
    ]
