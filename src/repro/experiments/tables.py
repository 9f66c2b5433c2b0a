"""Reproduction harnesses for every table of the evaluation (§VI).

Each ``tableN_*`` function runs the experiment end-to-end and returns a
pandas DataFrame with the same row/column structure the paper reports;
``PAPER`` holds the published numbers for side-by-side diffing in
EXPERIMENTS.md. Absolute values are not expected to match (synthetic
stand-in datasets, Python kernels vs the authors' C++), but the ordering
/ factor structure should.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..baselines import (
    deterministic_densest,
    expected_densest,
    innermost_eta_core,
    innermost_gamma_truss,
)
from ..baselines.ucore import eta_core_numbers
from ..baselines.utruss import gamma_truss_numbers
from ..core.estimate import estimate_set_probs, expected_density
from ..core.exact import exact_topk_mpds
from ..core.mpds import (
    one_per_world, topk_mpds, topk_sets, world_results_df, world_stats,
)
from ..core.nds import topk_nds
from ..core.sampling import sample_block
from ..core.uncertain import UncertainGraph
from ..datasets.synth_small import ba_graph, er_graph
from ..spark_graph.metrics import (
    probabilistic_clustering_coefficient,
    probabilistic_density,
)
from .common import MAX_ENUM, THETA, load, purity

PAPER: dict[str, dict] = {
    "table3": {  # containment probs + expected densities (NDS page)
        "hs": dict(nds=1, eds=0.05, core=1, truss=1, ed_nds=54, ed_eds=54.62),
        "biomine": dict(nds=1, eds=0.01, core=0.99, truss=0, ed_nds=46.45, ed_eds=48.02),
        "twitter": dict(nds=1, eds=0, core=0.95, truss=0, ed_nds=37.65, ed_eds=38.64),
    },
    "table4": {  # densest subgraph probs + expected densities (MPDS page)
        "karate": dict(mpds=0.012, eds=0, core=0, truss=0, ed_mpds=0.703, ed_eds=0.75),
        "intel": dict(mpds=0.078, eds=0.01, core=0.01, truss=0, ed_mpds=3.246, ed_eds=3.25),
        "lastfm": dict(mpds=0.075, eds=0, core=0.04, truss=0.02, ed_mpds=0.667, ed_eds=0.86),
    },
    "table5": {  # probabilistic density
        "karate": dict(ours=0.281, eds=0.095, core=0.073, truss=0.134),
        "lastfm": dict(ours=0.333, eds=0.007, core=0.008, truss=0.013),
        "biomine": dict(ours=0.546, eds=0.191, core=0.212, truss=0.538),
        "twitter": dict(ours=0.789, eds=0.042, core=0.121, truss=0.781),
    },
    "table6": {  # probabilistic clustering coefficient
        "karate": dict(ours=0.284, eds=0.150, core=0.094, truss=0.158),
        "lastfm": dict(ours=0.333, eds=0.002, core=0.022, truss=0.257),
        "biomine": dict(ours=0.546, eds=0.203, core=0.217, truss=0.539),
        "twitter": dict(ours=0.775, eds=0.142, core=0.253, truss=0.768),
    },
    "table7": {  # MPDS vs deterministic densest subgraph
        "karate": dict(mpds=0.012, dds=0.0),
        "intel": dict(mpds=0.078, dds=0.044),
        "lastfm": dict(mpds=0.075, dds=0.0),
    },
    "table8": {  # distribution of #densest subgraphs per world
        ("karate", "edge"): (1.12, 0.54, (1, 1, 1)),
        ("karate", "clique:3"): (1.35, 0.91, (1, 1, 1)),
        ("karate", "diamond"): (1.18, 0.71, (1, 1, 1)),
        ("lastfm", "edge"): (2613.24, 22825.66, (15, 127, 1023)),
        ("lastfm", "clique:3"): (1880.74, 22134, (31, 127, 511)),
        ("lastfm", "diamond"): (3.52, 9.6, (1, 1, 3)),
    },
    "table9": {  # avg top-10 tau: all vs one densest subgraph per world
        ("karate", "edge"): (0.006, 0.005),
        ("karate", "clique:3"): (0.019, 0.018),
        ("karate", "diamond"): (0.011, 0.01),
        ("lastfm", "edge"): (0.054, 0.004),
        ("lastfm", "clique:3"): (0.08, 0.004),
        ("lastfm", "diamond"): (0.009, 0.007),
    },
    "table10": {  # purity on karate
        1: dict(mpds=1, eds=0.6, core=0.5, truss=0.538),
        2: dict(mpds=1, eds=0.6, core=0.515, truss=0.536),
        5: dict(mpds=1, eds=0.749, core=None, truss=None),
        10: dict(mpds=1, eds=0.699, core=None, truss=None),
    },
    "table11": {  # approx vs heuristic Pattern-NDS on karate
        "2-star": dict(gamma_a=0.625, gamma_h=0.6, t_a=0.0561, t_h=0.0129),
        "3-star": dict(gamma_a=0.55, gamma_h=0.525, t_a=0.0242, t_h=0.0101),
        "c3-star": dict(gamma_a=0.3313, gamma_h=0.262, t_a=0.0244, t_h=0.0109),
        "diamond": dict(gamma_a=0.8, gamma_h=0.7687, t_a=0.0212, t_h=0.0093),
    },
    "table12": {  # approx vs heuristic Edge-NDS on Friendster
        "approx": dict(gamma=0.025, hours=21.216),
        "heuristic": dict(gamma=0.021, hours=4.97),
    },
    "table13": {  # sampling strategies, MPDS Intel
        "mc": dict(theta=160, secs=2.233, mb=2.016),
        "lp": dict(theta=160, secs=2.164, mb=2.656),
        "rss": dict(theta=120, secs=2.111, mb=3.281),
    },
    "table14": {  # sampling strategies, NDS Biomine
        "mc": dict(theta=640, secs=2248, mb=781),
        "lp": dict(theta=640, secs=2178, mb=1029),
        "rss": dict(theta=600, secs=2027, mb=1516),
    },
    "table15": {  # exact vs approx runtimes (seconds)
        ("BA_7", "edge"): (0.172, 0.02), ("BA_7", "clique:3"): (0.225, 0.025),
        ("BA_7", "diamond"): (0.349, 0.025),
        ("BA_9", "edge"): (58.08, 0.04), ("BA_9", "clique:3"): (77.264, 0.042),
        ("BA_9", "diamond"): (93.095, 0.045),
        ("ER_7", "edge"): (71.39, 0.033), ("ER_7", "clique:3"): (78.919, 0.036),
        ("ER_7", "diamond"): (140.361, 0.04),
        ("ER_9", "edge"): (97413, 0.048), ("ER_9", "clique:3"): (123253, 0.054),
        ("ER_9", "diamond"): (273557, 0.064),
    },
}


def _baseline_sets(ug, notion: str = "edge"):
    """EDS, innermost η-core, innermost γ-truss node sets (η = γ = 0.1)."""
    eds, _ = expected_densest(ug, notion)
    core = innermost_eta_core(ug, 0.1)
    truss = innermost_gamma_truss(ug, 0.1)
    return eds, core, truss


def table3_nds_compare(
    spark: SparkSession,
    datasets=("hs_lite", "biomine_lite", "twitter_lite"),
    theta: int | None = None,
    seed: int = 0,
) -> pd.DataFrame:
    """Containment probabilities of NDS/EDS/core/truss + expected densities."""
    rows = []
    for name in datasets:
        ug = load(name)
        th = theta or THETA[name]
        res = topk_nds(spark, ug, k=1, l_m=4, theta=th, seed=seed)
        nds = res.best_set
        eds, core, truss = _baseline_sets(ug)
        probs = estimate_set_probs(
            spark, ug, [eds, core, truss], theta=th, seed=seed
        )
        rows.append(
            dict(
                dataset=name,
                # NDS γ̂ comes from Algorithm 5's own run (the paper
                # reports the estimated containment of the returned set).
                # The baselines are scored on that same sample (same
                # seed, so the same worlds): every number in the row
                # counts the same worlds, and a gap is not sampling noise
                # between two samples.
                cont_nds=res.best_gamma,
                cont_eds=probs.gamma_hat[0],
                cont_core=probs.gamma_hat[1], cont_truss=probs.gamma_hat[2],
                ed_nds=expected_density(ug, nds), ed_eds=expected_density(ug, eds),
                nds_size=len(nds), eds_size=len(eds),
            )
        )
    return pd.DataFrame(rows)


def table4_mpds_compare(
    spark: SparkSession,
    datasets=("karate", "intel", "lastfm"),
    theta: int | None = None,
    seed: int = 0,
) -> pd.DataFrame:
    """Densest subgraph probabilities of MPDS/EDS/core/truss + exp. densities."""
    rows = []
    for name in datasets:
        ug = load(name)
        th = theta or THETA[name]
        res = topk_mpds(spark, ug, k=1, theta=th, seed=seed, max_enum=MAX_ENUM[name])
        mpds = res.best_set
        eds, core, truss = _baseline_sets(ug)
        probs = estimate_set_probs(
            spark, ug, [eds, core, truss], theta=th, seed=seed
        )
        rows.append(
            dict(
                dataset=name,
                # MPDS τ̂ from Algorithm 1's own run; baselines scored on
                # the same sample (see table3 comment), where no set can
                # score above the MPDS unless a world hit max_enum.
                dsp_mpds=res.best_tau,
                dsp_eds=probs.tau_hat[0],
                dsp_core=probs.tau_hat[1], dsp_truss=probs.tau_hat[2],
                ed_mpds=expected_density(ug, mpds), ed_eds=expected_density(ug, eds),
            )
        )
    return pd.DataFrame(rows)


def _ours_set(spark, name, theta, seed):
    """MPDS set for the small datasets, NDS set for the large ones (§VI-B)."""
    ug = load(name)
    if name in ("karate", "intel", "lastfm"):
        return ug, topk_mpds(
            spark, ug, k=1, theta=theta, seed=seed, max_enum=MAX_ENUM[name]
        ).best_set
    return ug, topk_nds(spark, ug, k=1, l_m=4, theta=theta, seed=seed).best_set


def table5_probabilistic_density(
    spark: SparkSession,
    datasets=("karate", "lastfm", "biomine_lite", "twitter_lite"),
    theta: int | None = None,
    seed: int = 0,
) -> pd.DataFrame:
    """PD(U) (Eq. 19) of ours vs EDS/core/truss — Spark SQL metric."""
    rows = []
    for name in datasets:
        ug, ours = _ours_set(spark, name, theta or THETA[name], seed)
        eds, core, truss = _baseline_sets(ug)
        edf = ug.to_df(spark).cache()
        rows.append(
            dict(
                dataset=name,
                pd_ours=probabilistic_density(edf, ours),
                pd_eds=probabilistic_density(edf, eds),
                pd_core=probabilistic_density(edf, core),
                pd_truss=probabilistic_density(edf, truss),
            )
        )
        edf.unpersist()
    return pd.DataFrame(rows)


def table6_probabilistic_clustering(
    spark: SparkSession,
    datasets=("karate", "lastfm", "biomine_lite", "twitter_lite"),
    theta: int | None = None,
    seed: int = 0,
) -> pd.DataFrame:
    """PCC(U) (Eq. 20) of ours vs EDS/core/truss — Spark SQL metric."""
    rows = []
    for name in datasets:
        ug, ours = _ours_set(spark, name, theta or THETA[name], seed)
        eds, core, truss = _baseline_sets(ug)
        edf = ug.to_df(spark).cache()
        rows.append(
            dict(
                dataset=name,
                pcc_ours=probabilistic_clustering_coefficient(edf, ours),
                pcc_eds=probabilistic_clustering_coefficient(edf, eds),
                pcc_core=probabilistic_clustering_coefficient(edf, core),
                pcc_truss=probabilistic_clustering_coefficient(edf, truss),
            )
        )
        edf.unpersist()
    return pd.DataFrame(rows)


def table7_mpds_vs_dds(
    spark: SparkSession,
    datasets=("karate", "intel", "lastfm"),
    theta: int | None = None,
    seed: int = 0,
) -> pd.DataFrame:
    """Densest-subgraph probability of the MPDS vs the DDS."""
    rows = []
    for name in datasets:
        ug = load(name)
        th = theta or THETA[name]
        res = topk_mpds(spark, ug, k=1, theta=th, seed=seed, max_enum=MAX_ENUM[name])
        dds, _ = deterministic_densest(ug)
        # Scored on Algorithm 1's sample (see table3 comment).
        probs = estimate_set_probs(spark, ug, [dds], theta=th, seed=seed)
        rows.append(
            dict(dataset=name, dsp_mpds=res.best_tau, dsp_dds=probs.tau_hat[0])
        )
    return pd.DataFrame(rows)


def table8_n_densest_distribution(
    spark: SparkSession,
    datasets=("karate", "lastfm"),
    notions=("edge", "clique:3", "diamond"),
    theta: int | None = None,
    seed: int = 0,
    max_enum: int = 20_000,
) -> pd.DataFrame:
    """Distribution of the number of densest subgraphs per sampled world.

    Counts above ``max_enum`` are censored at the cap (the paper's
    LastFM tail is combinatorial; quartiles are far below the cap).
    """
    rows = []
    for name in datasets:
        ug = load(name)
        th = theta or THETA[name]
        for notion in notions:
            st = world_stats(spark, ug, th, notion, seed, max_enum=max_enum)
            nd = st["n_densest"].to_numpy(dtype=float)
            q = np.percentile(nd, [25, 50, 75])
            rows.append(
                dict(
                    dataset=name, notion=notion, mean=nd.mean(), sd=nd.std(),
                    q25=q[0], q50=q[1], q75=q[2],
                    censored=int(st["truncated"].sum()),
                )
            )
    return pd.DataFrame(rows)


def table9_all_vs_one(
    spark: SparkSession,
    datasets=("karate", "lastfm"),
    notions=("edge", "clique:3", "diamond"),
    theta: int | None = None,
    seed: int = 0,
) -> pd.DataFrame:
    """Avg τ̂ of the top-10 MPDSs: all densest subgraphs vs one per world.

    Both columns query one persisted world table: "all" credits every
    densest subgraph of a world, "one" only the one ``one_per_world``
    picks.
    """
    rows = []
    for name in datasets:
        ug = load(name)
        th = theta or THETA[name]
        for notion in notions:
            df = world_results_df(spark, ug, th, notion, seed, max_enum=MAX_ENUM[name])
            ds = df.filter("kind = 'ds'").persist()
            try:
                top_all = topk_sets(ds, th, 10)
                top_one = topk_sets(one_per_world(ds, seed), th, 10)
            finally:
                ds.unpersist()
            avg = lambda top: float(np.mean([t for _, t in top])) if top else 0.0  # noqa: E731
            rows.append(
                dict(dataset=name, notion=notion, all=avg(top_all), one=avg(top_one))
            )
    return pd.DataFrame(rows)


def table10_purity(
    spark: SparkSession, ks=(1, 2, 5, 10), theta: int = 160, seed: int = 0
) -> pd.DataFrame:
    """Avg purity of top-k subgraphs on Karate: MPDS vs EDS/core/truss.

    EDS top-k: peel-and-rerun (remove the found subgraph, recompute).
    Core/truss top-k: the k innermost shells of the decompositions —
    karate has few distinct shells, so large k rows are blank (as in the
    paper).
    """
    ug = load("karate")
    comm = ug.meta["communities"]
    res = topk_mpds(spark, ug, k=max(ks), theta=theta, seed=seed)
    mpds_sets = [s for s, _ in res.top]
    # EDS top-k by iterated removal
    eds_sets = []
    cur = ug
    for _ in range(max(ks)):
        s, _d = expected_densest(cur, "edge")
        if not s:
            break
        eds_sets.append(s)
        keep = [
            i for i, (u, v) in enumerate(cur.edges)
            if int(u) not in s and int(v) not in s
        ]
        if not keep:
            break
        cur = UncertainGraph.from_edges(
            cur.edges[keep], cur.probs[keep], n=cur.n
        )
    # core / truss shells (innermost first)
    core_nums = eta_core_numbers(ug, 0.1)
    shells = sorted({int(c) for c in core_nums if c > 0}, reverse=True)
    core_sets = [
        frozenset(int(v) for v in np.flatnonzero(core_nums >= kk))
        for kk in shells
    ]
    truss_nums = gamma_truss_numbers(ug, 0.1)
    tshells = sorted({t for t in truss_nums.values() if t > 1}, reverse=True)
    truss_sets = [
        frozenset(v for e, t in truss_nums.items() if t >= kk for v in e)
        for kk in tshells
    ]

    def avgp(sets, k):
        sets = sets[:k]
        if len(sets) < k:
            return None
        return float(np.mean([purity(s, comm) for s in sets]))

    rows = []
    for k in ks:
        rows.append(
            dict(
                k=k,
                mpds=avgp(mpds_sets, k), eds=avgp(eds_sets, k),
                core=avgp(core_sets, k), truss=avgp(truss_sets, k),
            )
        )
    return pd.DataFrame(rows)


def table11_pattern_nds(
    spark: SparkSession,
    patterns=("2-star", "3-star", "c3-star", "diamond"),
    theta: int = 160,
    seed: int = 0,
) -> pd.DataFrame:
    """Approx vs heuristic Pattern-NDS on Karate: γ̂ + runtime."""
    ug = load("karate")
    rows = []
    for pat in patterns:
        t0 = time.time()
        approx = topk_nds(
            spark, ug, k=1, l_m=3, theta=theta, notion=pat, seed=seed
        ).best_set
        t_a = time.time() - t0
        t0 = time.time()
        heur = topk_nds(
            spark, ug, k=1, l_m=3, theta=theta, notion=pat, seed=seed,
            heuristic=True,
        ).best_set
        t_h = time.time() - t0
        probs = estimate_set_probs(
            spark, ug, [approx, heur], theta=theta, notion=pat, seed=seed + 1
        )
        rows.append(
            dict(
                pattern=pat, gamma_approx=probs.gamma_hat[0],
                gamma_heur=probs.gamma_hat[1], secs_approx=t_a, secs_heur=t_h,
            )
        )
    return pd.DataFrame(rows)


def table12_friendster_nds(
    spark: SparkSession, theta: int = 160, seed: int = 0
) -> pd.DataFrame:
    """Approx vs heuristic Edge-NDS on friendster_lite: γ̂ + runtime."""
    ug = load("friendster_lite")
    rows = []
    t0 = time.time()
    approx = topk_nds(spark, ug, k=1, l_m=4, theta=theta, seed=seed).best_set
    t_a = time.time() - t0
    t0 = time.time()
    heur = topk_nds(
        spark, ug, k=1, l_m=4, theta=theta, seed=seed, heuristic=True
    ).best_set
    t_h = time.time() - t0
    probs = estimate_set_probs(
        spark, ug, [approx, heur], theta=theta, seed=seed + 1
    )
    rows.append(dict(method="approx", gamma=probs.gamma_hat[0], secs=t_a))
    rows.append(dict(method="heuristic", gamma=probs.gamma_hat[1], secs=t_h))
    return pd.DataFrame(rows)


def _sampling_table(ug, query, seed: int, thetas) -> pd.DataFrame:
    """Per sampling method: converged θ, its run's seconds, sampler state.

    θ doubles through ``thetas`` until the top-k of ``query(θ, method)``
    stabilizes (avg Jaccard ≥ .99 against the previous θ's). The state
    bytes come from a direct draw of the first block of worlds (per-task
    bookkeeping).
    """
    rows = []
    for method in ("mc", "lp", "rss"):
        prev = None
        for th in thetas:
            t0 = time.time()
            sets = [s for s, _ in query(th, method).top]
            secs = time.time() - t0
            if prev and sets:
                inter = [
                    max((len(a & b) / max(1, len(a | b)) for b in prev), default=0.0)
                    for a in sets
                ]
                if float(np.mean(inter)) >= 0.99:
                    break
            prev = sets
        _, _, state = sample_block(ug.probs, 0, min(th, 64), seed, method, th)
        rows.append(dict(method=method, theta=th, secs=secs, state_bytes=state))
    return pd.DataFrame(rows)


def table13_sampling_mpds(
    spark: SparkSession, seed: int = 0, k: int = 5
) -> pd.DataFrame:
    """MC vs LP vs RSS for MPDS on Intel: converged θ, runtime, memory."""
    ug = load("intel")

    def query(th, method):
        return topk_mpds(spark, ug, k=k, theta=th, seed=seed, method=method)

    return _sampling_table(ug, query, seed, (10, 20, 40, 80, 160, 320, 640))


def table14_sampling_nds(
    spark: SparkSession, seed: int = 0, k: int = 5
) -> pd.DataFrame:
    """MC vs LP vs RSS for NDS on biomine_lite: θ, runtime, memory."""
    ug = load("biomine_lite")

    def query(th, method):
        return topk_nds(spark, ug, k=k, l_m=4, theta=th, seed=seed, method=method)

    return _sampling_table(ug, query, seed, (20, 40, 80, 160, 320))


EXACT_GRAPHS = {
    "BA_7": lambda: ba_graph(7, 2),
    "BA_9": lambda: ba_graph(9, 3),
    "ER_7": lambda: er_graph(7, 20),
    # paper's ER_9 has m=30 (2^30 worlds); we cap at 24 — DESIGN.md §4
    "ER_9": lambda: er_graph(9, 24),
}


def table15_exact_vs_approx(
    spark: SparkSession,
    graphs=("BA_7", "BA_9", "ER_7", "ER_9"),
    notions=("edge", "clique:3", "diamond"),
    theta: int = 1000,
    seed: int = 0,
    k: int = 10,
) -> pd.DataFrame:
    """Exact (2^m worlds) vs approximate MPDS: runtimes + top-k F1."""
    rows = []
    for gname in graphs:
        ug = EXACT_GRAPHS[gname]()
        for notion in notions:
            t0 = time.time()
            exact = exact_topk_mpds(spark, ug, k=k, notion=notion)
            t_e = time.time() - t0
            t0 = time.time()
            approx = topk_mpds(
                spark, ug, k=k, theta=theta, notion=notion, seed=seed
            ).top
            t_a = time.time() - t0
            f1s = []
            for (se, _), (sa, _) in zip(exact, approx):
                inter = len(se & sa)
                f1s.append(
                    2 * inter / (len(se) + len(sa)) if (se or sa) else 1.0
                )
            rows.append(
                dict(
                    graph=gname, m=ug.m, notion=notion,
                    secs_exact=t_e, secs_approx=t_a,
                    f1_top1=f1s[0] if f1s else None,
                    f1_avg=float(np.mean(f1s)) if f1s else None,
                )
            )
    return pd.DataFrame(rows)
