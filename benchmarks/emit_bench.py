#!/usr/bin/env python
"""Seed the perf trajectory: write ``BENCH_<experiment>.json`` documents.

Each file is a standard experiment-export document (see
``repro.validation.export``) whose telemetry carries the measured wall
time of one minimum-scale driver run, so successive commits can be
compared on both *results* (the digest-covered experiment/manifest
sections) and *speed* (the telemetry section).  Run from the repo root::

    PYTHONPATH=src python benchmarks/emit_bench.py                 # default set
    PYTHONPATH=src python benchmarks/emit_bench.py --all           # every driver
    PYTHONPATH=src python benchmarks/emit_bench.py figure12 table2 --out-dir .
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.validation import export
from repro.validation.experiments.fast import FAST_KWARGS, run_fast
from repro.validation.runner import consume_run_stats, reset_run_stats

#: The fast-and-representative default set: one microbenchmark, one
#: sweep, one application validation and one N-tier hybrid-memory sweep.
#: The KV service is timed by the ``kv-service`` workload of
#: ``benchmarks/e2e`` instead.
DEFAULT_EXPERIMENTS = (
    "table2", "figure8", "pagerank-validation", "tier-sweep",
)


def emit_one(experiment: str, out_dir: Path, jobs: int) -> Path:
    """Run one fast experiment and write its BENCH document."""
    reset_run_stats()
    started = time.perf_counter()
    result = run_fast(experiment, jobs=jobs)
    wall_s = time.perf_counter() - started
    stats = consume_run_stats()
    path = out_dir / f"BENCH_{experiment}.json"
    manifest = export.build_manifest(
        stats=stats,
        knobs={
            "command": "emit_bench",
            "experiment": experiment,
            "preset": "fast",
        },
    )
    telemetry = stats.telemetry() if stats is not None else {}
    telemetry["driver_wall_s"] = wall_s
    document = export.build_document(result, manifest, telemetry=telemetry)
    path.write_text(export.dumps_document(document), encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="experiment",
        help=f"experiment ids (default: {' '.join(DEFAULT_EXPERIMENTS)})",
    )
    parser.add_argument(
        "--all", action="store_true", help="emit every experiment"
    )
    parser.add_argument(
        "--out-dir", default=".", help="directory for BENCH_*.json files"
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="runner worker processes (default 1: stable wall times)",
    )
    args = parser.parse_args(argv)
    if args.all:
        experiments = sorted(FAST_KWARGS)
    else:
        experiments = list(args.experiments) or list(DEFAULT_EXPERIMENTS)
    unknown = [name for name in experiments if name not in FAST_KWARGS]
    if unknown:
        parser.error(
            f"unknown experiment(s): {', '.join(unknown)} "
            f"(choose from {', '.join(sorted(FAST_KWARGS))})"
        )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for experiment in experiments:
        path = emit_one(experiment, out_dir, jobs=args.jobs)
        document = export.load_experiment_json(path)
        wall = document["telemetry"]["driver_wall_s"]
        print(f"{path}: {len(document['experiment']['rows'])} row(s), "
              f"{wall:.2f}s driver wall time")
    return 0


if __name__ == "__main__":
    sys.exit(main())
