"""Algorithm 1 — Top-k Most Probable Densest Subgraphs (distributed).

Dataflow: ``spark.range(θ)`` enumerates possible-world ids; a
``mapInPandas`` kernel samples each partition's worlds (seeded, so runs
are reproducible) and enumerates ALL densest subgraphs of each world
with the exact per-world pipelines in ``repro.graphs``. The world table
has one ``kind='ds'`` row per (world, densest subgraph), one
``kind='max'`` row per world (the maximum-sized densest subgraph —
Algorithm 5's candidate) and one ``kind='meta'`` row per world carrying
ρ*, the number of densest subgraphs, and the sampler state size. A row's
``nodeset`` is a sorted ``array<int>`` (empty on ``meta`` rows).

Consumers are queries on that table. ``topk_sets`` sums weights per
node set into τ̂ (a Catalyst ``groupBy``) and ties by
``array_join(nodeset, ",")``, the comma-joined string, so ``{10,11}``
ranks before ``{2,3}``. Table IX's one-per-world ablation keeps, per
world, the ``ds`` row with the least ``xxhash64(seed, world_id,
nodeset)`` (``one_per_world``).
"""
from __future__ import annotations

import os
import sys
import zipimport
from dataclasses import dataclass
from typing import Iterator

import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F

from ..graphs.alldense import all_densest
from ..graphs.heuristic import heuristic_dense
from .sampling import sample_block
from .uncertain import UncertainGraph

WORLD_SCHEMA = (
    "world_id long, kind string, nodeset array<int>, "
    "rho double, n_densest long, truncated boolean, weight double, "
    "state_bytes long"
)

# Densest subgraphs enumerated per world unless a caller caps it lower.
DEFAULT_MAX_ENUM = 100_000


ZIP_STAMP_MARK = "_repro_rereads_on_change"


def reread_zips_on_change() -> None:
    """Let ``zipimporter.invalidate_caches`` skip archives that did not change.

    Before each task, pyspark's worker calls ``importlib.invalidate_caches()``.
    On Python 3.10-3.12 that makes every ``zipimporter`` on ``pyspark.zip``
    re-read the whole archive directory, the bulk of a task's fixed cost
    (DESIGN.md §3). This wraps the method for the rest of the process: it
    keeps the cached directory while the archive's ``(st_mtime_ns,
    st_size)`` equals the stamp taken before its last read. A marker on the
    class makes a second call a no-op. Python 3.13 only drops the cache
    there, and older versions lack the method, so they are left alone.
    """
    cls = zipimport.zipimporter
    if not (3, 10) <= sys.version_info < (3, 13):
        return
    if getattr(cls, ZIP_STAMP_MARK, False):
        return
    reread = cls.invalidate_caches
    stamps: dict[str, tuple[int, int]] = {}

    def invalidate_caches(self):
        try:
            st = os.stat(self.archive)
        except OSError:
            return reread(self)
        stamp = (st.st_mtime_ns, st.st_size)
        files = zipimport._zip_directory_cache.get(self.archive)
        if files is not None and stamps.get(self.archive) == stamp:
            self._files = files
        else:
            reread(self)
            stamps[self.archive] = stamp

    cls.invalidate_caches = invalidate_caches
    setattr(cls, ZIP_STAMP_MARK, True)


def one_wave(sc, n_items: int) -> int:
    """Partitions for a job over ``n_items`` rows: one Python task per core.

    Every Python task pays a fixed start-up cost before its first row
    (DESIGN.md §3), so a second wave of tasks costs more than it balances.
    """
    return min(n_items, sc.defaultParallelism)


def map_worlds(
    spark: SparkSession,
    ug: UncertainGraph,
    theta: int,
    seed: int,
    method: str,
    solve,
    schema: str,
    n_partitions: int | None = None,
) -> DataFrame:
    """One Spark job over θ sampled worlds.

    ``solve(world_id, edges, weight, state_bytes)`` returns the rows of
    one world, in the column order of ``schema``.
    """
    sc = spark.sparkContext
    bc = ug.broadcast(sc)
    columns = [field.split()[0] for field in schema.split(",")]

    def gen(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        reread_zips_on_change()
        edges, probs = bc.value
        for pdf in batches:
            ids = pdf["id"].to_numpy()
            if len(ids) == 0:
                continue
            lo, hi = int(ids.min()), int(ids.max()) + 1
            masks, weights, state = sample_block(
                probs, lo, hi, seed, method, theta
            )
            rows = []
            for wid in ids:
                row = int(wid) - lo
                rows.extend(
                    solve(int(wid), edges[masks[row]], float(weights[row]), state)
                )
            yield pd.DataFrame(rows, columns=columns)

    n = n_partitions or one_wave(sc, theta)
    return spark.range(0, theta, 1, n).mapInPandas(gen, schema=schema)


def world_results_df(
    spark: SparkSession,
    ug: UncertainGraph,
    theta: int,
    notion: str = "edge",
    seed: int = 0,
    method: str = "mc",
    heuristic: bool = False,
    max_enum: int = DEFAULT_MAX_ENUM,
    n_partitions: int | None = None,
) -> DataFrame:
    """Per-world densest-subgraph rows for θ sampled worlds (see module doc)."""

    def solve(wid, we, w, state):
        if heuristic:
            # One heuristic set per world (§III-C), as its only subgraph
            # and its max row.
            hrho, max_sized = heuristic_dense(we, notion)
            subs = [max_sized] if max_sized else []
            rho, truncated = float(hrho), False
        else:
            res = all_densest(we, notion, max_enum)
            subs, rho, max_sized = res.subgraphs, float(res.rho), res.max_sized
            truncated = res.truncated
        tail = (rho, len(subs), truncated, w, state)
        rows = [(wid, "ds", sorted(S), *tail) for S in subs]
        if max_sized:
            rows.append((wid, "max", sorted(max_sized), *tail))
        rows.append((wid, "meta", [], *tail))
        return rows

    return map_worlds(
        spark, ug, theta, seed, method, solve, WORLD_SCHEMA, n_partitions
    )


@dataclass
class MPDSResult:
    top: list[tuple[frozenset[int], float]]  # (node set, τ̂) best first
    theta: int

    @property
    def best_set(self) -> frozenset[int]:
        return self.top[0][0] if self.top else frozenset()

    @property
    def best_tau(self) -> float:
        return self.top[0][1] if self.top else 0.0


def topk_sets(ds: DataFrame, theta: int, k: int) -> list[tuple[frozenset[int], float]]:
    """Top-k node sets of ``ds`` rows by τ̂ = Σ weights / θ (see module doc)."""
    agg = (
        ds.groupBy("nodeset")
        .agg((F.sum("weight") / F.lit(float(theta))).alias("tau_hat"))
        .orderBy(F.desc("tau_hat"), F.array_join("nodeset", ","))
        .limit(k)
    )
    return [(frozenset(r["nodeset"]), float(r["tau_hat"])) for r in agg.collect()]


def one_per_world(ds: DataFrame, seed: int) -> DataFrame:
    """One ``ds`` row per world, picked by a seeded hash (see module doc)."""
    pick = Window.partitionBy("world_id").orderBy(
        F.xxhash64(F.lit(seed), "world_id", "nodeset"),
        F.array_join("nodeset", ","),
    )
    ranked = ds.withColumn("_pick", F.row_number().over(pick))
    return ranked.filter("_pick = 1").drop("_pick")


def topk_mpds(
    spark: SparkSession,
    ug: UncertainGraph,
    k: int = 1,
    theta: int = 160,
    notion: str = "edge",
    seed: int = 0,
    method: str = "mc",
    max_enum: int = DEFAULT_MAX_ENUM,
) -> MPDSResult:
    """Top-k MPDS estimation (Algorithm 1). τ̂(U) = Σ weights / θ."""
    df = world_results_df(spark, ug, theta, notion, seed, method, max_enum=max_enum)
    return MPDSResult(topk_sets(df.filter("kind = 'ds'"), theta, k), theta)


def world_stats(
    spark: SparkSession,
    ug: UncertainGraph,
    theta: int,
    notion: str = "edge",
    seed: int = 0,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> pd.DataFrame:
    """Per-world (ρ*, #densest subgraphs) — Table VIII's distribution."""
    df = world_results_df(spark, ug, theta, notion, seed, max_enum=max_enum)
    return (
        df.filter(F.col("kind") == "meta")
        .select("world_id", "rho", "n_densest", "truncated")
        .toPandas()
    )
