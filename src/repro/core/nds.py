"""Algorithm 5 — Top-k Nucleus Densest Subgraphs (distributed).

θ worlds are processed by the same distributed kernel as MPDS; the
``kind='max'`` rows (one maximum-sized densest subgraph per world — the
union of all of that world's densest subgraphs, footnote 5) form the
transaction bag, and TFP-style closed frequent itemset mining yields
the top-k closed node sets of size ≥ l_m by estimated containment
probability γ̂.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from .mpds import world_results_df
from .tfp import topk_closed_itemsets
from .uncertain import UncertainGraph


@dataclass
class NDSResult:
    top: list[tuple[frozenset[int], float]]  # (node set, γ̂) best first
    theta: int

    @property
    def best_set(self) -> frozenset[int]:
        return self.top[0][0] if self.top else frozenset()

    @property
    def best_gamma(self) -> float:
        return self.top[0][1] if self.top else 0.0


def topk_nds(
    spark: SparkSession,
    ug: UncertainGraph,
    k: int = 1,
    l_m: int = 2,
    theta: int = 160,
    notion: str = "edge",
    seed: int = 0,
    method: str = "mc",
    heuristic: bool = False,
) -> NDSResult:
    """Top-k NDS estimation (Algorithm 5). γ̂(U) = weighted support / θ.

    ``heuristic=True`` replaces the exact per-world maximum densest
    subgraph by the core-decomposition heuristic's best dense subgraph
    (§III-C remark; Tables XI, XII).
    """
    df = world_results_df(
        spark, ug, theta, notion, seed, method, heuristic=heuristic,
        # NDS only needs the max-sized subgraph; keep enumeration cheap.
        max_enum=1,
    )
    rows = (
        df.filter(F.col("kind") == "max")
        .select("nodeset", "weight")
        .collect()
    )
    transactions = [(frozenset(r["nodeset"]), float(r["weight"])) for r in rows]
    top = [
        (s, sup / theta)
        for s, sup in topk_closed_itemsets(transactions, k, l_m)
    ]
    return NDSResult(top, theta)
