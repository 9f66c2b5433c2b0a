"""Distributed Top-k MPDS (Algorithm 1) — correctness on known graphs."""
import numpy as np
import pytest

from repro.core.estimate import estimate_set_probs
from repro.core.mpds import (
    ZIP_STAMP_MARK,
    map_worlds,
    one_per_world,
    topk_mpds,
    topk_sets,
    world_results_df,
    world_stats,
)
from repro.core.nds import topk_nds
from repro.core.uncertain import UncertainGraph
from repro.datasets import fig1_graph, karate_club


@pytest.fixture(scope="module")
def fig1():
    return fig1_graph()


def test_fig1_top1_is_bd(spark, fig1):
    res = topk_mpds(spark, fig1, k=1, theta=1500, seed=1)
    assert res.best_set == frozenset({1, 3})  # {B, D}
    assert res.best_tau == pytest.approx(0.42, abs=0.05)


def test_fig1_topk_ordering(spark, fig1):
    res = topk_mpds(spark, fig1, k=3, theta=1500, seed=2)
    taus = [t for _, t in res.top]
    assert taus == sorted(taus, reverse=True)
    # exact values: {B,D}=.42, {A,B,C,D}=.28, {A,C}=.24
    assert [s for s, _ in res.top] == [
        frozenset({1, 3}), frozenset({0, 1, 2, 3}), frozenset({0, 2})
    ]


def test_tau_sums_reflect_world_weights(spark, fig1):
    df = world_results_df(spark, fig1, theta=200, seed=3)
    meta = df.filter(df.kind == "meta").toPandas()
    assert len(meta) == 200
    assert meta.weight.sum() == pytest.approx(200.0)


def test_empty_worlds_contribute_nothing(spark):
    ug = UncertainGraph.from_edges([(0, 1)], [0.3], n=2)
    res = topk_mpds(spark, ug, k=2, theta=1000, seed=4)
    # only one candidate set {0,1}, tau ~= 0.3
    assert len(res.top) == 1
    assert res.top[0][0] == frozenset({0, 1})
    assert res.top[0][1] == pytest.approx(0.3, abs=0.05)


def test_one_vs_all_subgraphs(spark):
    # two disjoint edges with prob 1: every world has 3 densest subgraphs;
    # "all" credits each, "one" credits the one picked per world.
    ug = UncertainGraph.from_edges([(0, 1), (2, 3)], [1.0, 1.0], n=4)
    ds = world_results_df(spark, ug, 60, seed=5).filter("kind = 'ds'")
    top_all = topk_sets(ds, 60, 5)
    assert len(top_all) == 3
    assert all(t == pytest.approx(1.0) for _, t in top_all)
    top_one = topk_sets(one_per_world(ds, 5), 60, 5)
    assert sum(t for _, t in top_one) == pytest.approx(1.0)


def test_unbiasedness_against_exact(spark, fig1):
    """τ̂ is unbiased (Lemma 1): large θ concentrates on exact τ."""
    res = topk_mpds(spark, fig1, k=6, theta=4000, seed=6)
    exact = {
        frozenset({1, 3}): 0.42, frozenset({0, 1, 2, 3}): 0.28,
        frozenset({0, 2}): 0.24, frozenset({0, 1, 3}): 0.168,
        frozenset({0, 1}): 0.072, frozenset({0, 1, 2}): 0.048,
    }
    for s, t in res.top:
        assert t == pytest.approx(exact[s], abs=0.04)


def test_world_stats_schema(spark, fig1):
    st = world_stats(spark, fig1, theta=50, seed=8)
    assert set(st.columns) == {"world_id", "rho", "n_densest", "truncated"}
    assert len(st) == 50
    assert (st.n_densest >= 0).all()


@pytest.mark.parametrize("method", ["mc", "lp", "rss"])
def test_sampling_methods_agree(spark, fig1, method):
    res = topk_mpds(spark, fig1, k=1, theta=1500, seed=9, method=method)
    assert res.best_set == frozenset({1, 3})
    assert res.best_tau == pytest.approx(0.42, abs=0.06)


def test_karate_mpds_matches_paper_regime(spark):
    """Karate MPDS probability ≈ .012 (Table IV) and one-community purity."""
    ug = karate_club()
    res = topk_mpds(spark, ug, k=1, theta=160, seed=0)
    assert 0.004 <= res.best_tau <= 0.4
    comm = ug.meta["communities"]
    sides = {comm[v] for v in res.best_set}
    assert len(sides) == 1  # 100% purity (Table X)


def test_graph_broadcast_once_per_context(spark, monkeypatch):
    ug = fig1_graph()
    sc = spark.sparkContext
    made = []
    real = type(sc).broadcast
    monkeypatch.setattr(
        type(sc), "broadcast", lambda self, value: made.append(value) or real(self, value)
    )
    topk_mpds(spark, ug, k=1, theta=8, seed=1)
    topk_mpds(spark, ug, k=1, theta=8, seed=2)
    estimate_set_probs(spark, ug, [frozenset({1, 3})], theta=8, seed=3)
    assert len(made) == 1
    first = ug.broadcast(sc)

    class NewContext:
        def broadcast(self, value):
            made.append(value)
            return object()

    other = NewContext()
    assert ug.broadcast(other) is ug.broadcast(other) is not first
    assert len(made) == 2


def _ds_rows(df):
    ds = df.filter(df.kind == "ds")
    return [
        sorted(tuple(r) for r in d.select("world_id", "nodeset", "weight").collect())
        for d in (ds, one_per_world(ds, 6))
    ]


@pytest.mark.parametrize("method", ["mc", "lp", "rss"])
def test_worlds_independent_of_partitioning(spark, method):
    """A world's densest subgraphs, and the one Table IX picks from them,
    do not depend on how Spark cuts the world ids into partitions, nor on
    the Arrow batch size."""
    ug = karate_club()
    key = "spark.sql.execution.arrow.maxRecordsPerBatch"

    def rows(**kw):
        return _ds_rows(world_results_df(spark, ug, 20, seed=6, method=method, **kw))

    ref = rows(n_partitions=1)
    every, picked = ref
    assert every
    assert [r[0] for r in picked] == sorted({r[0] for r in every})
    for n in (3, 8):
        assert rows(n_partitions=n) == ref
    old = spark.conf.get(key)
    try:
        for batch in ("1", "10000"):
            spark.conf.set(key, batch)
            assert rows(n_partitions=3) == ref
    finally:
        spark.conf.set(key, old)


def test_mpds_tau_equals_estimator_on_same_seed(spark):
    """On one seed the estimator scores Algorithm 1's best set with the
    same τ̂, since both see the same worlds (Table IV compares the MPDS
    with the baselines on that footing)."""
    ug = karate_club()
    res = topk_mpds(spark, ug, k=1, theta=40, seed=0)
    est = estimate_set_probs(spark, ug, [res.best_set], theta=40, seed=0)
    assert est.tau_hat[0] == pytest.approx(res.best_tau, abs=1e-12)


def test_world_tasks_skip_unchanged_zip_rereads(spark, fig1):
    """Every world task runs with the zipimport stamp check installed, on
    the Python versions whose ``invalidate_caches`` re-reads archives."""

    def solve(wid, edges, weight, state):
        import sys
        import zipimport

        marked = getattr(zipimport.zipimporter, ZIP_STAMP_MARK, False)
        needed = (3, 10) <= sys.version_info < (3, 13)
        return [(wid, bool(marked), needed)]

    schema = "world_id long, marked boolean, needed boolean"
    rows = map_worlds(spark, fig1, 12, 0, "mc", solve, schema, 3).collect()
    assert sorted(r.world_id for r in rows) == list(range(12))
    assert all(r.marked == r.needed for r in rows)


def _udf_stage_tasks(spark, group):
    """Task counts of the group's stages whose plan runs a mapInPandas UDF."""
    sc = spark.sparkContext
    tracker = sc.statusTracker()
    store = sc._jsc.sc().statusStore()
    dot = sc._jvm.org.apache.spark.ui.scope.RDDOperationGraph.makeDotFile
    stages = {
        sid
        for jid in tracker.getJobIdsForGroup(group)
        for sid in tracker.getJobInfo(jid).stageIds
    }
    return [
        tracker.getStageInfo(sid).numTasks
        for sid in sorted(stages)
        if 'label="MapInPandas"' in dot(store.operationGraphForStage(sid))
    ]


def test_world_jobs_run_one_wave(spark, fig1):
    """Every Python task pays a fixed start-up cost, so a world job runs
    one task per core, never a second wave."""
    sc = spark.sparkContext
    cores = sc.defaultParallelism
    queries = {
        "mpds": lambda th: topk_mpds(spark, fig1, k=1, theta=th, seed=1),
        "nds": lambda th: topk_nds(spark, fig1, k=1, theta=th, seed=1),
        "estimate": lambda th: estimate_set_probs(
            spark, fig1, [frozenset({1, 3})], theta=th, seed=1
        ),
    }
    try:
        for theta in (1, 3 * cores):
            for name, query in queries.items():
                group = f"one-wave-{name}-{theta}"
                sc.setJobGroup(group, group)
                query(theta)
                tasks = _udf_stage_tasks(spark, group)
                assert tasks, group
                assert set(tasks) == {min(theta, cores)}, group
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
