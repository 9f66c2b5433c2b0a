#!/usr/bin/env python
"""Run every table harness at full θ and print paper-vs-measured rows.

Usage: spark-submit jobs/run_all_tables.py [table3 table4 ...]
(no args = all tables). This is what populates EXPERIMENTS.md.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from _common import session, show

from repro.experiments import tables as T

# Next to this script, whatever the working directory.
MEASURED = Path(__file__).resolve().parent / "tables_measured.json"

RUNNERS = {
    "table3": lambda s: T.table3_nds_compare(s),
    "table4": lambda s: T.table4_mpds_compare(s),
    "table5": lambda s: T.table5_probabilistic_density(s),
    "table6": lambda s: T.table6_probabilistic_clustering(s),
    "table7": lambda s: T.table7_mpds_vs_dds(s),
    "table8": lambda s: T.table8_n_densest_distribution(s),
    "table9": lambda s: T.table9_all_vs_one(s),
    "table10": lambda s: T.table10_purity(s),
    "table11": lambda s: T.table11_pattern_nds(s),
    "table12": lambda s: T.table12_friendster_nds(s),
    "table13": lambda s: T.table13_sampling_mpds(s),
    "table14": lambda s: T.table14_sampling_nds(s),
    "table15": lambda s: T.table15_exact_vs_approx(s),
}


def main() -> None:
    which = sys.argv[1:] or list(RUNNERS)
    spark = session("mpds-tables")
    spark.sparkContext.setLogLevel("ERROR")
    results = {}
    try:  # merge with earlier partial runs
        results = json.loads(MEASURED.read_text())
    except (OSError, json.JSONDecodeError):
        pass
    for name in which:
        t0 = time.time()
        df = RUNNERS[name](spark)
        secs = time.time() - t0
        show(f"{name} ({secs:.1f}s)", df)
        results[name] = json.loads(df.to_json(orient="records"))
    MEASURED.write_text(json.dumps(results, indent=2, default=str))
    print(f"\nwrote {MEASURED}")
    spark.stop()


if __name__ == "__main__":
    main()
