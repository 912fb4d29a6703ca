"""One campaign in a fresh interpreter: the benchmark's unit of work.

``run.py`` starts this script once per timed or traced campaign, so every
campaign starts cold, as a CLI user's does.  The script

1. imports ``repro`` from the checkout's ``src/``, builds the workload's
   config from the seed and opens the database (set-up), then prints
   ``ready`` so the parent can time set-up from interpreter start;
2. runs ``ScamV(config).run()`` once, with the layer wrappers installed
   when ``--trace 1``, timing the call alone;
3. prints one JSON summary line: counters, a digest of the experiment
   records, per-test latencies, peak RSS and, when traced, the per-layer
   metrics.

Usage (normally only ``run.py`` calls it)::

    python3 campaign_bench/campaign.py --workload NAME --seed N \\
        --programs P --tests T --trace 0|1 [--db-dir DIR]
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"campaign_bench: no repro package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    found = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    if found != SRC:
        raise SystemExit(f"campaign_bench: imported repro from {found}")
    return repro


def records_digest(result) -> str:
    """blake2b over every experiment record, timing fields excluded."""
    h = hashlib.blake2b(digest_size=16)
    for record in result.records:
        doc = record.to_json()
        del doc["gen_time"], doc["exe_time"]
        h.update(json.dumps(doc, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def setup(workload, seed: int, db_dir=None):
    """Build the workload's config and open its database: ``(config, db)``."""
    from repro.exps.registry import build_experiment
    from repro.pipeline.database import ExperimentDatabase
    from repro.pipeline import driver  # noqa: F401  (import cost is set-up)

    config = build_experiment(
        workload.experiment,
        workload.refined,
        num_programs=workload.programs,
        tests_per_program=workload.tests,
        seed=seed,
    )
    database = None
    if workload.database:
        database = ExperimentDatabase(os.path.join(db_dir, "campaign.sqlite"))
    return config, database


def run_campaign(workload, config, database, traced: bool) -> dict:
    """Run the campaign once and summarise it (see the module docstring)."""
    from repro.pipeline.driver import ScamV

    import layers

    clock = layers.LayerClock() if traced else None
    installed = layers.Installed(config, clock) if traced else None
    try:
        started = time.perf_counter()
        result = ScamV(config, database=database).run()
        campaign_s = time.perf_counter() - started
    finally:
        if installed is not None:
            installed.uninstall()
    stats = result.stats
    return {
        "campaign_s": campaign_s,
        "counters": stats.deterministic_counters(),
        "digest": records_digest(result),
        "findings": sum(
            1 for r in result.records if r.outcome.value == workload.finding
        ),
        "latencies_ms": [
            1000.0 * (r.gen_time + r.exe_time) for r in result.records
        ],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        # A fresh file holds exactly one campaign, with id 1.
        "db_experiments": (
            database.experiment_count(1) if database is not None else None
        ),
        "layers": (
            layers.metrics(clock, stats, campaign_s) if traced else None
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--programs", type=int, required=True)
    parser.add_argument("--tests", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--db-dir")
    args = parser.parse_args(argv)

    import_repro()
    from workloads import WORKLOADS

    workload = dataclasses.replace(
        WORKLOADS[args.workload], programs=args.programs, tests=args.tests
    )
    if workload.database and not args.db_dir:
        parser.error(f"{workload.name} needs --db-dir")
    config, database = setup(workload, args.seed, args.db_dir)
    print("ready", flush=True)
    try:
        summary = run_campaign(workload, config, database, bool(args.trace))
    finally:
        if database is not None:
            database.close()
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
