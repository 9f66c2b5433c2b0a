"""Traced replay of one query's worlds, and the per-layer metrics.

The replay runs outside Spark, in this process: ``sample_block`` on the
block layout the traced query used, then ``all_densest`` on every
world. During the traced pass, wrappers sit around the layer entry
points as ``repro.graphs.alldense`` imports them, and around
``FlowNetwork.max_flow``; they are removed when the pass ends.
"""
from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from repro.core.sampling import sample_block
from repro.core.tfp import topk_closed_itemsets
from repro.graphs import alldense
from repro.graphs.maxflow import FlowNetwork

from spans import NullTracer, Span, Tracer, parallel_efficiency, partition_skew, percentile, self_times

# Span name → layer. The first eight are the entry points wrapped in
# ``repro.graphs.alldense``; the rest are spans the replay opens itself.
LAYER_OF = {
    "charikar_peel": "peeling",
    "k_core_nodes": "peeling",
    "instance_peel": "peeling",
    "instance_core": "peeling",
    "list_cliques": "instances",
    "enumerate_instances": "instances",
    "goldberg_search": "goldberg",
    "max_flow": "maxflow",
    "sample_block": "sampling",
    "all_densest": "alldense",
    "topk_closed_itemsets": "tfp",
}
WRAPPED = ("charikar_peel", "k_core_nodes", "instance_peel", "instance_core",
           "list_cliques", "enumerate_instances", "goldberg_search")
COUNTED = ("list_cliques", "enumerate_instances")  # they return the instance list


def query_layout(spark: SparkSession, job_group: str, theta: int) -> list[tuple[int, int]]:
    """World-id blocks [lo, hi) that the query's first stage handed to ``sample_block``.

    The partition count is read from the first stage of the query's
    jobs; ``spark.range`` splits θ ids evenly over the partitions, and
    Arrow cuts each partition into batches of ``maxRecordsPerBatch``.
    """
    tracker = spark.sparkContext.statusTracker()
    stages = [
        sid
        for jid in tracker.getJobIdsForGroup(job_group)
        for sid in tracker.getJobInfo(jid).stageIds
    ]
    n_part = tracker.getStageInfo(min(stages)).numTasks
    batch = int(spark.conf.get("spark.sql.execution.arrow.maxRecordsPerBatch"))
    blocks = []
    for i in range(n_part):
        lo, hi = i * theta // n_part, (i + 1) * theta // n_part
        blocks.extend((b, min(b + batch, hi)) for b in range(lo, hi, batch))
    return blocks


@dataclass
class World:
    wid: int
    block: int
    nodes: int  # nodes with at least one edge in the world
    result: alldense.DensestResult
    weight: float


@contextmanager
def wrapped_layers(tracer: Tracer):
    saved = {name: getattr(alldense, name) for name in WRAPPED}
    saved_flow = FlowNetwork.max_flow
    try:
        for name, fn in saved.items():
            setattr(alldense, name, tracer.wrap(name, fn, len if name in COUNTED else None))
        FlowNetwork.max_flow = tracer.wrap("max_flow", saved_flow)
        yield
    finally:
        for name, fn in saved.items():
            setattr(alldense, name, fn)
        FlowNetwork.max_flow = saved_flow


def replay(ug, w, seed: int, blocks: list[tuple[int, int]], tracer) -> tuple[list[World], list[int]]:
    """Sample and solve every world of ``blocks``; returns worlds and sampler state bytes."""
    worlds, states = [], []
    for bi, (lo, hi) in enumerate(blocks):
        tracer.trace = f"block-{bi}"
        with tracer.span("sample_block"):
            masks, weights, state = sample_block(ug.probs, lo, hi, seed, w.method, w.theta)
        states.append(state)
        for row in range(hi - lo):
            we = ug.edges[masks[row]]
            tracer.trace = f"world-{lo + row}"
            with tracer.span("all_densest"):
                res = alldense.all_densest(we, w.notion, w.max_enum)
            worlds.append(World(lo + row, bi, len(np.unique(we)), res, float(weights[row])))
    return worlds, states


def replay_topk(w, worlds: list[World], tracer) -> list[tuple[frozenset[int], float]]:
    """The query's top-k recomputed from the replayed worlds, ordered as the program orders it."""
    if w.query == "nds":
        tx = [(x.result.max_sized, x.weight) for x in worlds if x.result.max_sized]
        tracer.trace = "tfp"
        with tracer.span("topk_closed_itemsets"):
            top = topk_closed_itemsets(tx, w.k, w.l_m)
        return [(s, sup / w.theta) for s, sup in top]
    tau: dict[frozenset[int], float] = {}
    for x in worlds:
        for s in x.result.subgraphs:
            tau[s] = tau.get(s, 0.0) + x.weight
    ranked = sorted(tau.items(), key=lambda kv: (-kv[1], ",".join(map(str, sorted(kv[0])))))
    return [(s, t / w.theta) for s, t in ranked[: w.k]]


@dataclass
class Traced:
    metrics: dict[str, tuple[float, str]]
    tracer: Tracer
    top: list[tuple[frozenset[int], float]]  # replayed top-k, to compare with the query's


def traced_layers(
    ug, w, seed: int, blocks, query_spans: list[Span], candidates: int, cores: int
) -> Traced:
    """Replays the worlds untraced, traced, untraced again, and derives every per-layer metric.

    The tracing overhead compares the traced pass with the mean of the
    untraced passes around it, so warming caches favours neither side.
    """
    def timed_replay(tracer) -> tuple[float, tuple]:
        t0 = time.perf_counter()
        out = replay(ug, w, seed, blocks, tracer)
        return time.perf_counter() - t0, out

    before, _ = timed_replay(NullTracer())
    tracer = Tracer()
    with wrapped_layers(tracer):
        traced, (worlds, states) = timed_replay(tracer)
    after, _ = timed_replay(NullTracer())
    untraced = (before + after) / 2
    top = replay_topk(w, worlds, tracer)

    spans = tracer.spans
    own = self_times(spans)
    theta = len(worlds)
    # trace id → layer → seconds. Only outermost spans of a layer are
    # summed, so a layer that calls itself is not counted twice.
    by_trace: dict[str, dict[str, float]] = {}
    for s in spans:
        layer = LAYER_OF[s.name]
        if s.parent is not None and LAYER_OF[spans[s.parent].name] == layer:
            continue
        d = by_trace.setdefault(s.trace, {})
        d[layer] = d.get(layer, 0.0) + s.seconds

    def per_world(layer: str) -> list[float]:
        return [1e3 * by_trace[f"world-{x.wid}"].get(layer, 0.0) for x in worlds]

    def total_ms(layer: str) -> float:
        return 1e3 * sum(d.get(layer, 0.0) for d in by_trace.values())

    def self_ms(name: str) -> float:
        return 1e3 * sum(own[s.sid] for s in spans if s.name == name)

    block_busy = [by_trace[f"block-{bi}"]["sampling"] for bi in range(len(blocks))]
    for x in worlds:
        block_busy[x.block] += by_trace[f"world-{x.wid}"]["alldense"]
    driver = {s.name: s.seconds for s in query_spans}
    kernel_wall = driver.get("topk_mpds", driver.get("topk_nds"))
    alldense_ms = per_world("alldense")
    metrics = {
        "sampling.ms_per_world": (total_ms("sampling") / theta, "ms"),
        "sampling.state_bytes": (max(states), "bytes"),
        "peeling.ms_per_world_p50": (percentile(per_world("peeling"), 50), "ms"),
        "peeling.ms_per_world_p99": (percentile(per_world("peeling"), 99), "ms"),
        "peeling.core_node_frac": (
            sum(x.result.core_nodes for x in worlds) / max(1, sum(x.nodes for x in worlds)),
            "ratio",
        ),
        "instances.ms_per_world": (total_ms("instances") / theta, "ms"),
        "instances.count_per_world": (
            sum(s.count for s in spans if s.name in COUNTED) / theta, "count"
        ),
        "goldberg.ms_per_world_p50": (percentile(per_world("goldberg"), 50), "ms"),
        "goldberg.ms_per_world_p99": (percentile(per_world("goldberg"), 99), "ms"),
        "goldberg.build_ms_per_world": (self_ms("goldberg_search") / theta, "ms"),
        "maxflow.calls_per_world": (sum(s.name == "max_flow" for s in spans) / theta, "count"),
        "maxflow.ms_per_world": (total_ms("maxflow") / theta, "ms"),
        "alldense.world_ms_p50": (percentile(alldense_ms, 50), "ms"),
        "alldense.world_ms_p99": (percentile(alldense_ms, 99), "ms"),
        "alldense.world_ms_max": (max(alldense_ms), "ms"),
        "alldense.self_ms_per_world": (self_ms("all_densest") / theta, "ms"),
        "alldense.sets_per_world": (statistics.fmean(x.result.n_densest for x in worlds), "count"),
        "alldense.truncated_worlds": (sum(x.result.truncated for x in worlds), "count"),
        "spark.rows_per_world": (
            sum(len(x.result.subgraphs) + bool(x.result.max_sized) + 1 for x in worlds) / theta,
            "count",
        ),
        "spark.parallel_efficiency": (parallel_efficiency(sum(block_busy), kernel_wall, cores), "ratio"),
        "spark.partition_skew": (partition_skew(block_busy), "ratio"),
        "query.s": (driver["query"], "s"),
        "tfp.ms": (total_ms("tfp"), "ms"),
        "tfp.distinct_transactions": (
            len({x.result.max_sized for x in worlds if x.result.max_sized}) if w.query == "nds" else 0,
            "count",
        ),
        "estimate.s": (driver.get("estimate_set_probs", 0.0), "s"),
        "estimate.candidates": (candidates, "count"),
        "baselines.eds_s": (driver.get("expected_densest", 0.0), "s"),
        "baselines.core_s": (driver.get("innermost_eta_core", 0.0), "s"),
        "baselines.truss_s": (driver.get("innermost_gamma_truss", 0.0), "s"),
        "trace.overhead_frac": (traced / untraced - 1.0, "ratio"),
    }
    return Traced(metrics, tracer, top)
