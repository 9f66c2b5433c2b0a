"""Uncertain graph container (independent-edge model, §II)."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark import SparkContext
from pyspark.broadcast import Broadcast
from pyspark.sql import DataFrame, SparkSession

from ..graphs.graph import canonical_edges


@dataclass
class UncertainGraph:
    """An uncertain graph G = (V, E, p) with V = {0..n-1}.

    ``edges`` is canonical (u < v, sorted, deduped); ``probs[i]`` is the
    existence probability of ``edges[i]``. ``meta`` carries dataset
    extras (ground-truth communities, region labels, name).
    """

    edges: np.ndarray
    probs: np.ndarray
    n: int
    meta: dict = field(default_factory=dict)
    _broadcast: tuple[SparkContext, Broadcast] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        order = np.lexsort((self.edges[:, 1], self.edges[:, 0]))
        can = canonical_edges(self.edges)
        if not np.array_equal(can, self.edges[order]):
            raise ValueError("edges must be simple and canonicalizable")
        self.edges = self.edges[order]
        self.probs = np.asarray(self.probs, dtype=np.float64)[order]
        if not ((self.probs > 0) & (self.probs <= 1)).all():
            raise ValueError("probabilities must be in (0, 1]")

    @property
    def m(self) -> int:
        return len(self.edges)

    @classmethod
    def from_edges(
        cls,
        edges,
        probs,
        n: int | None = None,
        meta: dict | None = None,
    ) -> "UncertainGraph":
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        lo = np.minimum(e[:, 0], e[:, 1])
        hi = np.maximum(e[:, 0], e[:, 1])
        e = np.stack([lo, hi], axis=1)
        p = np.asarray(probs, dtype=np.float64)
        if n is None:
            n = int(e.max()) + 1 if len(e) else 0
        return cls(e, p, n, meta or {})

    def broadcast(self, sc: SparkContext) -> Broadcast:
        """``(edges, probs)`` as a broadcast variable of ``sc``, made once per context.

        Every query on this graph reuses it: a broadcast keeps its chunks
        in the driver JVM's heap until the context stops, so one broadcast
        per query would grow the heap with every query. A process has one
        live context at a time, so only the latest is remembered, and a new
        context gets a new broadcast. ``edges`` and ``probs`` must not be
        changed in place after the first call.
        """
        if self._broadcast is None or self._broadcast[0] is not sc:
            self._broadcast = (sc, sc.broadcast((self.edges, self.probs)))
        return self._broadcast[1]

    def to_df(self, spark: SparkSession) -> DataFrame:
        """Edge table (u, v, p) as a Spark DataFrame (for SQL-side ops)."""
        return spark.createDataFrame(self.to_pdf())

    def to_pdf(self) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "u": self.edges[:, 0],
                "v": self.edges[:, 1],
                "p": self.probs,
            }
        )

    def deterministic(self) -> np.ndarray:
        """All edges, probabilities dropped (the DDS baseline's input)."""
        return self.edges.copy()
