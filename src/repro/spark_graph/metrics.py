"""External evaluation metrics of §VI-B as Spark SQL dataflow.

Probabilistic Density (Eq. 19):
    PD(U) = Σ_{e ∈ E_U} p(e) / (|U|(|U|−1)/2)

Probabilistic Clustering Coefficient (Eq. 20):
    PCC(U) = 3 Σ_{Δuvw ⊆ U} p(uv)p(uw)p(vw)
             / Σ_{(u,v),(u,w) ∈ E_U, v≠w} p(uv)p(uw)
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .ops import triangles_df


def _induced(edges: DataFrame, nodes: frozenset[int] | set[int]) -> DataFrame:
    lst = [int(v) for v in nodes]
    return edges.filter(F.col("u").isin(lst) & F.col("v").isin(lst))


def probabilistic_density(edges: DataFrame, nodes: frozenset[int]) -> float:
    """PD(U) — Eq. 19. 0 for |U| < 2."""
    k = len(nodes)
    if k < 2:
        return 0.0
    tot = _induced(edges, nodes).agg(F.sum("p").alias("s")).collect()[0]["s"]
    return float(tot or 0.0) / (k * (k - 1) / 2)


def probabilistic_clustering_coefficient(
    edges: DataFrame, nodes: frozenset[int]
) -> float:
    """PCC(U) — Eq. 20. 0 when U induces no open/closed wedge."""
    sub = _induced(edges, nodes)
    tri = triangles_df(sub).agg(
        F.sum(F.col("p_ab") * F.col("p_ac") * F.col("p_bc")).alias("s")
    ).collect()[0]["s"]
    tri = float(tri or 0.0)
    # wedge mass Σ p(uv)p(uw) over unordered neighbor pairs at each center u
    sym = sub.select(F.col("u").alias("c"), F.col("v").alias("o"), "p").unionAll(
        sub.select(F.col("v").alias("c"), F.col("u").alias("o"), "p")
    )
    agg = sym.groupBy("c").agg(
        F.sum("p").alias("sp"), F.sum(F.col("p") * F.col("p")).alias("sp2")
    )
    wedges = agg.select(
        F.sum((F.col("sp") * F.col("sp") - F.col("sp2")) / 2).alias("w")
    ).collect()[0]["w"]
    wedges = float(wedges or 0.0)
    if wedges == 0.0:
        return 0.0
    return 3.0 * tri / wedges

