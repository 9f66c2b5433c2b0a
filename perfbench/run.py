"""Benchmark of the MPDS / NDS query pipeline, run end to end through Spark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the program from ``src/``.
One closed-loop client issues the workload's queries: the next query
starts only when the previous one has returned its top-k.

``--trace 0`` times the queries with tracing off and reports the
end-to-end metrics. ``--trace 1`` runs one query with driver-side spans,
replays that query's worlds in this process with spans around each
layer, and reports the per-layer metrics. Either way one query's output
is checked against the program's own estimator, outside the timed
region; a failed check makes the command exit with status 1, and so
does a traced replay whose top-k differs from the query's.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name → value and unit). The
line before it is the run record: context, inputs and the checked
query's top-k with Hoeffding half-widths. Everything the run writes
goes under ``.bench_run/`` in the repository root.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
# The driver JVM's heap starts at its maximum: a heap grown on demand
# made query times and peak memory swing between runs.
DRIVER_MEMORY = "1g"
# Sampling-seed indices of the warm-up queries, apart from the timed ones.
WARMUP_INDEX = 90_000


def parse_args(argv: list[str]) -> argparse.Namespace:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def configure_environment(cores: int) -> None:
    """Settings the Spark JVM and its Python workers read at launch."""
    tmp = RUN_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    # spark-submit's launcher JVM would otherwise write to /tmp/hsperfdata_*.
    os.environ["SPARK_LAUNCHER_OPTS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    java_options = f"-Xms{DRIVER_MEMORY} -Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    local_dir = f"spark.local.dir={RUN_DIR / 'spark-local'}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{cores}]",
        f"--driver-memory {DRIVER_MEMORY}",
        f"--driver-java-options {shlex.quote(java_options)}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf {shlex.quote(local_dir)}",
        "pyspark-shell",
    ])


def start_session():
    """The SparkSession of the repo's spark-submit jobs (``jobs/_common.py:session``)."""
    from _common import session

    spark = session("perfbench")
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def shutdown_spark(spark) -> None:
    """Stops the session and the JVM, and waits for every process they started."""
    import proctree
    from pyspark import SparkContext

    started = proctree.descendants(os.getpid())
    spark.stop()
    gateway = SparkContext._gateway
    if gateway is not None:
        gateway.shutdown()
        gateway.proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            gateway.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            gateway.proc.kill()
            gateway.proc.wait(timeout=30)
        SparkContext._gateway = None
        SparkContext._jvm = None
    for pid in proctree.wait_gone(started, 30):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proctree.wait_gone(started, 30)


def setup(w, seed: int, state: dict):
    """Session start (the JVM launch with it), dataset build and the warm-up job.

    The warm-up also starts every Python worker. Returns the session and graph.
    """
    from workloads import query_seed, warm_up

    state["spark"] = spark = start_session()
    ug = w.graph()
    warm_up(spark, w, ug, query_seed(seed, WARMUP_INDEX))
    return spark, ug


def timed_run(w, seed: int, seconds: float, state: dict) -> dict:
    from spans import NullTracer, tail_percentile
    from workloads import check, query_seed, record, run_query

    off = NullTracer()
    t0 = time.perf_counter()
    spark, ug = setup(w, seed, state)
    setup_s = time.perf_counter() - t0

    walls, failed, checked = [], 0, None
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        qseed = query_seed(seed, i)
        i += 1
        t0 = time.perf_counter()
        try:
            res = run_query(spark, w, ug, qseed, off)
        except Exception:  # one failed query must not end the run
            traceback.print_exc()
            failed += 1
            continue
        walls.append(time.perf_counter() - t0)
        if checked is None:
            checked = (qseed, res)

    problem = check(spark, w, ug, *checked) if checked else "no query completed"
    if problem:
        print(f"output check failed: {problem}", file=sys.stderr)
        failed += 1
    attempted = i
    metrics = {"setup_s": (setup_s, "s")}
    if walls:
        metrics["query_s"] = (statistics.median(walls), "s")
        metrics["worlds_per_s"] = (w.theta * len(walls) / sum(walls), "1/s")
    extra = {
        "error_rate": (failed / max(1, attempted), "ratio"),
        "query_s_samples": (walls, "s"),
    }
    tail = tail_percentile(walls)
    if tail:
        extra["query_s_tail"] = (tail[1], "s")
        extra["query_s_tail_percentile"] = (tail[0], "%")
    extra["query_count"] = (len(walls), "count")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "extra": extra,
        "results": record(w, checked[0], checked[1]) if checked else None,
        "check": problem or "ok",
    }


def traced_run(w, seed: int, cores: int, state: dict) -> dict:
    from layers import query_layout, traced_layers
    from spans import Tracer
    from workloads import check, query_seed, record, run_query

    t0 = time.perf_counter()
    spark, ug = setup(w, seed, state)
    setup_s = time.perf_counter() - t0

    qseed = query_seed(seed, 0)
    driver = Tracer()
    driver.trace = "query-0"
    group = "perfbench-traced-query"
    spark.sparkContext.setJobGroup(group, "traced query")
    with driver.span("query"):
        res = run_query(spark, w, ug, qseed, driver)
    spark.sparkContext.setLocalProperty("spark.jobGroup.id", None)
    blocks = query_layout(spark, group, w.theta)
    traced = traced_layers(ug, w, qseed, blocks, driver.spans, len(res.baselines), cores)
    problem = check(spark, w, ug, qseed, res)
    if problem:
        print(f"output check failed: {problem}", file=sys.stderr)
    replay_matches = len(traced.top) == len(res.top) and all(
        a == b and abs(x - y) <= 1e-9 for (a, x), (b, y) in zip(traced.top, res.top)
    )
    if not replay_matches:
        # The per-layer figures would describe worlds the query never sampled.
        print("replayed top-k differs from the query's; no per-layer metrics", file=sys.stderr)
    with open(RUN_DIR / f"spans-{w.name}-{seed}.json", "w") as fh:
        json.dump({
            "query": [vars(s) for s in driver.spans],
            "replay": [vars(s) for s in traced.tracer.spans],
        }, fh)
    return {
        "attempted": 1,
        "failed": int(problem is not None or not replay_matches),
        "metrics": traced.metrics if replay_matches else {},
        "extra": {"setup_s": (setup_s, "s")},
        "results": record(w, qseed, res),
        "check": problem or "ok",
        "replay_matches_query": replay_matches,
        "blocks": blocks,
    }


def context(nproc: int, cores: int) -> dict:
    import numpy
    import pyspark

    sha = "unknown"
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        sha = out.stdout.strip() or sha
    return {
        "git_sha": sha,
        "nproc": nproc,
        "spark_master": f"local[{cores}]",
        "driver_memory": DRIVER_MEMORY,
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
    }


def main(argv: list[str]) -> int:
    for need in (SRC / "repro" / "__init__.py", ROOT / "jobs" / "_common.py"):
        if not need.is_file():
            print(f"the program's sources are missing: no {need}", file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))
    sys.path.append(str(ROOT / "jobs"))  # for _common, the jobs' session builder
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    # Spark gets half the CPUs. On the 4-vCPU VM this benchmark was tuned
    # on, four busy processes ran a fixed Python loop in 0.4 s or 0.9 s
    # depending on the moment, two always in 0.3-0.46 s.
    cores = max(1, nproc // 2)
    configure_environment(cores)

    import proctree
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    state: dict = {}
    try:
        if args.trace:
            out = traced_run(w, args.seed, cores, state)
        else:
            with proctree.PeakRss(os.getpid()) as rss:
                out = timed_run(w, args.seed, args.seconds, state)
            out["metrics"]["peak_rss_mb"] = (rss.peak / 2**20, "MB")
    finally:
        if state.get("spark") is not None:
            shutdown_spark(state["spark"])

    run_record = {
        "workload": w.name,
        "trace": args.trace,
        "context": context(nproc, cores),
        "inputs": {"seed": args.seed, "theta": w.theta, "seconds": args.seconds},
        "check": out["check"],
        "results": out["results"],
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in out["extra"].items()},
    }
    for key in ("replay_matches_query", "blocks"):
        if key in out:
            run_record[key] = out[key]
    for name, (value, unit) in {**out["metrics"], **out["extra"]}.items():
        print(f"{name:32s} {value} {unit}")
    print(json.dumps({"run_record": run_record}))
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
