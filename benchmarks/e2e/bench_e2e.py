#!/usr/bin/env python3
"""End-to-end benchmark of the Quartz reproduction, split by layer.

One workload (see ``workloads.py``) is a closed-loop batch of public
registry driver calls.  Each repeat runs in a fresh interpreter, one at
a time, with ``jobs=1``, ``PYTHONHASHSEED=0`` and an empty calibration
cache.  Every call's experiment digest is checked against
``digests.json`` (seed 0, or any seed of a workload the seed does not
reach) or else against the first repeat.  Every metric is printed with
its unit; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer ones (from one cProfile-traced
repeat plus one plain repeat) with ``--trace 1``.  From the repository
root::

    python3 benchmarks/e2e/bench_e2e.py run --workload kv-service --seed 0
    python3 benchmarks/e2e/bench_e2e.py run --workload threads --trace 1
    python3 benchmarks/e2e/bench_e2e.py run --workload graphs --out A.jsonl
    python3 benchmarks/e2e/bench_e2e.py compare A.jsonl B.jsonl
    python3 benchmarks/e2e/bench_e2e.py pin
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

from layers import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
PINS = HERE / "digests.json"
GOLDEN = ROOT / "tests" / "golden" / "experiment_digests.json"
#: Per-repeat temporary directories (calibration cache, result file).
SCRATCH = ROOT / ".bench_e2e"
#: A repeat that runs longer than this is a hung benchmark, not a result.
CHILD_TIMEOUT_S = 150
MIN_REPEATS = 3

#: ``--trace 0`` metrics: name -> (unit, better).  Driver time is given
#: in ``ref`` units: each call's best wall time over the run's repeats,
#: summed, over the best time of a fixed reference loop sampled in the
#: same processes (``workloads.reference_s``).  On a shared host, other
#: tenants slow a repeat in bursts and the host's speed drifts over
#: minutes; best-of-N drops the bursts and the ratio cancels the drift.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_ref": ("ref", "lower"),
    "events_per_ref": ("1/ref", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}

#: ``--trace 1`` metrics: name -> (unit, better).
PER_LAYER = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    **{f"{layer}.share": ("fraction", "lower") for layer in LAYERS},
    "sim.events": ("count", "lower"),
    "sim.schedule_calls": ("count", "lower"),
    "os.ops_dispatched": ("count", "lower"),
    "hw.ops_executed": ("count", "lower"),
    "hw.cache_resolves": ("count", "lower"),
    "hw.flow_submits": ("count", "lower"),
    "hw.flow_reallocations": ("count", "lower"),
    "hw.frequency_queries_per_op": ("calls/op", "lower"),
    "quartz.epoch_closes": ("count", "lower"),
    "quartz.emulation_error_pct": ("%", "lower"),
    "workloads.input_builds": ("count", "lower"),
    "workloads.input_build_s": ("s", "lower"),
    "service.ops": ("count", "higher"),
    "service.cache_hit_ratio": ("fraction", "higher"),
    "service.sim_p99_us": ("us", "lower"),
    "service.sim_throughput_kops": ("kops", "higher"),
    "faults.invariant_checks": ("count", "higher"),
    "explore.schedules": ("count", "lower"),
    "pmem.crash_images_checked": ("count", "higher"),
    "validation.runs": ("count", "lower"),
    "validation.calib_hit_ratio": ("fraction", "higher"),
    "validation.runner_overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
    "trace.unattributed_frac": ("fraction", "lower"),
}

#: Per-layer metrics that a change must leave exactly equal unless it
#: changes what is simulated or how much work is done.
EXACT = frozenset(
    name for name, (unit, _) in PER_LAYER.items()
    if unit in ("count", "calls/op")
) | {
    "quartz.emulation_error_pct", "service.cache_hit_ratio",
    "service.sim_p99_us", "service.sim_throughput_kops",
    "validation.calib_hit_ratio",
}


class BenchError(Exception):
    """The benchmark itself could not run (not a failed driver call)."""


# ----------------------------------------------------------------------
# Running repeats
# ----------------------------------------------------------------------


def _run_child(name: str, seed: int, smoke: bool, trace: bool) -> dict:
    """One repeat in a fresh interpreter with an empty calibration cache."""
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as scratch:
        result = Path(scratch) / "repeat.json"
        env = dict(
            os.environ,
            PYTHONHASHSEED="0",
            QUARTZ_REPRO_JOBS="1",
            QUARTZ_REPRO_CACHE_DIR=str(Path(scratch) / "cache"),
        )
        command = [
            sys.executable, str(HERE / "workloads.py"),
            "--workload", name, "--seed", str(seed), "--result", str(result),
        ]
        command += ["--smoke"] * smoke + ["--trace"] * trace
        try:
            completed = subprocess.run(
                command, cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as error:
            raise BenchError(f"{name}: a repeat ran past {error.timeout}s")
        if completed.returncode != 0:
            raise BenchError(
                f"{name}: repeat exited with {completed.returncode}:\n"
                f"{completed.stderr[-2000:]}"
            )
        return json.loads(result.read_text(encoding="utf-8"))


def _failures(docs: list, pinned: Optional[dict]) -> tuple[int, list]:
    """Count failed driver calls over all repeats.

    A call fails if it raised, if its tail check failed, or if its digest
    differs from *pinned* (when given) or else from the first repeat's.
    """
    reference = pinned if pinned is not None else {}
    failed, messages = 0, []
    for index, doc in enumerate(docs):
        for call in doc["calls"]:
            want = (
                reference.get(call["id"]) if pinned is not None
                else reference.setdefault(call["id"], call["digest"])
            )
            problem = None
            if call["error"] is not None:
                problem = "raised " + call["error"].strip().splitlines()[-1]
            elif not call["check"]:
                problem = "failed the p99 >= p50 > 0 check"
            elif call["digest"] != want:
                problem = f"digest {call['digest'][:12]} != expected {str(want)[:12]}"
            if problem is not None:
                failed += 1
                messages.append(f"repeat {index}: {call['id']} {problem}")
    return failed, messages


def _wall_ref(docs: list) -> float:
    """Each call's best wall time over *docs*, summed, in ``ref`` units."""
    best: dict = {}
    for doc in docs:
        for call in doc["calls"]:
            best[call["id"]] = min(best.get(call["id"], call["wall_s"]),
                                   call["wall_s"])
    return sum(best.values()) / min(min(doc["ref_s"]) for doc in docs)


def _end_to_end(docs: list) -> dict:
    wall = _wall_ref(docs)
    return {
        "setup_s": statistics.median(doc["setup_s"] for doc in docs),
        "wall_ref": wall,
        "events_per_ref": (
            statistics.median(doc["stats"]["events"] for doc in docs) / wall
        ),
        "peak_rss_mb": max(doc["rss_mb"] for doc in docs),
    }


def _per_layer(plain: dict, traced: dict) -> dict:
    profile, stats, sim = traced["profile"], traced["stats"], plain["sim"]
    total, counts = profile["total_s"], profile["counts"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = profile["layers"][layer]
        metrics[f"{layer}.share"] = profile["layers"][layer] / total
    metrics.update(
        {name: value for name, value in counts.items() if name in PER_LAYER}
    )
    executed = counts["hw.ops_executed"]
    calibration = traced["calibration"]
    metrics.update({
        "sim.events": stats["events"],
        "hw.frequency_queries_per_op": (
            counts["hw.frequency_queries"] / executed if executed else 0.0
        ),
        "quartz.emulation_error_pct": sim.get("emulation_error_pct", 0.0),
        "workloads.input_build_s": profile["input_build_s"],
        "service.ops": stats["service_ops"],
        "service.cache_hit_ratio": sim.get("cache_hit_ratio", 0.0),
        "service.sim_p99_us": sim.get("sim_p99_us", 0.0),
        "service.sim_throughput_kops": sim.get("sim_throughput_kops", 0.0),
        "faults.invariant_checks": stats["invariant_checks"],
        "explore.schedules": stats["explore_schedules"],
        "pmem.crash_images_checked": stats["crash_images_checked"],
        "validation.runs": stats["runs"],
        "validation.calib_hit_ratio": (
            1.0 - calibration["measurements"] / calibration["calls"]
            if calibration["calls"] else 0.0
        ),
        "validation.runner_overhead_s": (
            plain["wall_s"] - plain["stats"]["run_wall_s"]
        ),
        "trace.overhead_frac": _wall_ref([traced]) / _wall_ref([plain]) - 1.0,
        "trace.unattributed_frac": profile["unattributed_s"] / total,
    })
    return metrics


def run_workload(
    name: str,
    seed: int = 0,
    seconds: float = 0.0,
    repeats: Optional[int] = None,
    trace: bool = False,
    smoke: bool = False,
    pinned: Optional[dict] = None,
) -> dict:
    """Run one workload and return its result record.

    Untraced, it makes *repeats* repeats, by default as many as fit in
    *seconds* on the reference host (at least :data:`MIN_REPEATS`).
    Traced, it makes one plain and one traced repeat.  *pinned* maps
    experiment id -> expected digest; ``None`` checks only that repeats
    agree.
    """
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"no package source under {ROOT / 'src'}")
    workload = WORKLOADS[name]
    if trace:
        docs = [
            _run_child(name, seed, smoke, trace=False),
            _run_child(name, seed, smoke, trace=True),
        ]
    else:
        if repeats is None:
            repeats = max(MIN_REPEATS, int(seconds // workload.repeat_s))
        docs = [_run_child(name, seed, smoke, trace=False) for _ in range(repeats)]
    if seed != 0 and workload.seeded:
        pinned = None
    failed, messages = _failures(docs, pinned)
    metrics = _per_layer(*docs) if trace else _end_to_end(docs)
    units = PER_LAYER if trace else END_TO_END
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "repeats": len(docs),
        "correct": failed == 0,
        "attempted": sum(len(doc["calls"]) for doc in docs),
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric][0]}
            for metric, value in metrics.items()
        },
        "digests": {call["id"]: call["digest"] for call in docs[0]["calls"]},
        "messages": messages,
        # Raw host seconds per repeat, behind the ``ref``-unit metrics.
        "wall_s": [doc["wall_s"] for doc in docs],
        "ref_s": [min(doc["ref_s"]) for doc in docs],
    }


def load_pins(smoke: bool = False) -> dict:
    """Workload -> {experiment id: seed-0 digest} at full or smoke size."""
    table = json.loads(PINS.read_text(encoding="utf-8"))
    return table["smoke" if smoke else "full"]


def _cleanup_scratch() -> None:
    try:
        SCRATCH.rmdir()
    except OSError:  # absent, or still in use by a concurrent run
        pass


# ----------------------------------------------------------------------
# compare: two sets of runs, metric by metric
# ----------------------------------------------------------------------


def _quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """better / worse / unchanged / unresolved, by the small-sandbox rule.

    Better: the change wins at least 9 of 10 seed-paired runs (ties count
    for neither) and the medians differ by more than the parent's
    interquartile spread.  Unresolved: the parent's spread is wider than
    the bound and the change does not read better, or worse, on every run
    against every run.  Worse: the change's median is worse than the
    parent's by more than the bound.
    """
    sign = 1.0 if better == "higher" else -1.0
    q1, parent_median, q3 = _quartiles(parent)
    change_median = statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for old, new in pairs if sign * (new - old) > 0)
    if (pairs and wins >= 0.9 * len(pairs)
            and sign * (change_median - parent_median) > q3 - q1):
        return "better"
    scale = abs(parent_median) or 1.0
    every_better = all(sign * (new - old) > 0 for old in parent for new in change)
    every_worse = all(sign * (new - old) < 0 for old in parent for new in change)
    if (q3 - q1) / scale > bound and not (every_better or every_worse):
        return "unresolved"
    if sign * (parent_median - change_median) / scale > bound:
        return "worse"
    return "unchanged"


def _load_records(path: str) -> list:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _runs(records: list, workload: str, trace: int) -> list:
    return sorted(
        (r for r in records if (r["workload"], r["trace"]) == (workload, trace)),
        key=lambda r: r["seed"],
    )


def compare(path_a: str, path_b: str) -> int:
    """Print one verdict per workload x metric; 1 if any is worse or any
    digest or exact count differs between the two sets."""
    bounds = {
        metric["name"]: metric["bound"]
        for metric in json.loads(
            (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
        )["end_to_end"]
    }
    side_a, side_b = _load_records(path_a), _load_records(path_b)
    status = 0
    groups = sorted({(r["workload"], r["trace"]) for r in side_a + side_b})
    for workload, trace in groups:
        runs_a = _runs(side_a, workload, trace)
        runs_b = _runs(side_b, workload, trace)
        if not runs_a or not runs_b:
            print(f"{workload} trace={trace}: only one side has runs")
            status = 1
            continue
        digests_a = {r["seed"]: r["digests"] for r in runs_a}
        for run in runs_b:
            if run["seed"] in digests_a and run["digests"] != digests_a[run["seed"]]:
                print(f"{workload} seed {run['seed']}: DIGESTS DIFFER")
                status = 1
        if any(r["failed"] for r in runs_a + runs_b):
            print(f"{workload}: failed driver calls present")
            status = 1
        for metric, (unit, better) in (PER_LAYER if trace else END_TO_END).items():
            values_a = [r["metrics"][metric]["value"] for r in runs_a]
            values_b = [r["metrics"][metric]["value"] for r in runs_b]
            if trace:
                same = values_a == values_b
                label = "identical" if same else "-"
                if metric in EXACT and not same:
                    label, status = "MOVED", 1
            else:
                label = verdict(values_a, values_b, better, bounds[metric])
                if label == "worse":
                    status = 1
            qa, qb = _quartiles(values_a), _quartiles(values_b)
            print(
                f"{workload:<11} {metric:<30} "
                f"A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                f"B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {unit}  "
                f"n={len(values_a)}/{len(values_b)}  {label}"
            )
    return status


# ----------------------------------------------------------------------
# pin: regenerate digests.json
# ----------------------------------------------------------------------


def pin() -> int:
    """Rewrite ``digests.json`` from seed-0 runs at both sizes; 1 if a
    registry digest disagrees with the repository's golden table."""
    table: dict = {}
    for size in ("full", "smoke"):
        table[size] = {}
        for name in WORKLOADS:
            record = run_workload(name, 0, repeats=2, smoke=size == "smoke")
            if record["failed"]:
                raise BenchError(f"{name} ({size}): {record['messages']}")
            table[size][name] = record["digests"]
            print(f"pinned {name} ({size}): {len(record['digests'])} digest(s)")
    PINS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    status = 0
    if GOLDEN.exists():
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        for size in ("full", "smoke"):
            for experiment_id, digest in table[size]["registry"].items():
                if experiment_id in golden and golden[experiment_id] != digest:
                    print(f"{experiment_id} ({size}): differs from {GOLDEN.name}")
                    status = 1
    return status


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def _print_record(record: dict) -> None:
    print(
        f"{record['workload']} seed {record['seed']} trace {record['trace']}: "
        f"{record['repeats']} repeat(s), {record['attempted']} driver call(s), "
        f"{record['failed']} failed; raw wall median "
        f"{statistics.median(record['wall_s']):.4g} s, best reference loop "
        f"{min(record['ref_s']):.4g} s"
    )
    for message in record["messages"]:
        print(f"  FAILED {message}")
    for metric, entry in record["metrics"].items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        key: record[key] for key in ("correct", "attempted", "failed", "metrics")
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run one workload")
    run.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--seconds", type=float, default=0.0,
        help="measure about this long (sets the repeat count; at least 3)",
    )
    run.add_argument(
        "--repeats", type=int, default=None,
        help="repeat count (overrides --seconds)",
    )
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--smoke", action="store_true", help="test-sized inputs")
    run.add_argument("--out", help="append the result record to this JSONL file")
    compare_parser = commands.add_parser("compare", help="compare two JSONL sets")
    compare_parser.add_argument("parent")
    compare_parser.add_argument("change")
    commands.add_parser("pin", help="regenerate digests.json")
    args = parser.parse_args(argv)
    if args.command == "run" and args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")

    try:
        if args.command == "compare":
            return compare(args.parent, args.change)
        if args.command == "pin":
            return pin()
        record = run_workload(
            args.workload, args.seed, seconds=args.seconds,
            repeats=args.repeats, trace=bool(args.trace), smoke=args.smoke,
            pinned=load_pins(args.smoke).get(args.workload, {}),
        )
    except BenchError as error:
        print(f"bench_e2e: {error}", file=sys.stderr)
        return 2
    finally:
        _cleanup_scratch()
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    _print_record(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
