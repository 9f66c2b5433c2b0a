"""Distributed DataFrame graph operations (Catalyst all the way).

These express the paper's graph-level quantities as Spark SQL dataflow
(joins/aggregations) rather than per-world Python kernels: degrees,
triangle enumeration, the probabilistic density / clustering
coefficient metrics of §VI-B, and expected densities. Each query is
cross-checked against DuckDB via ``repro.oracle`` in the test-suite.
"""
from .ops import degrees_df, triangles_df, weighted_degrees_df
from .metrics import (
    expected_edge_density_df,
    probabilistic_clustering_coefficient,
    probabilistic_density,
)

__all__ = [
    "degrees_df",
    "weighted_degrees_df",
    "triangles_df",
    "probabilistic_density",
    "probabilistic_clustering_coefficient",
    "expected_edge_density_df",
]
