"""The benchmark's workloads, and the child process that runs one repeat.

Every repeat runs in a fresh interpreter (``python workloads.py ...``,
started by ``bench_e2e.py``) with an empty calibration cache directory,
so a cache the program adds pays its fill cost inside the measurement
and cannot carry over from one repeat to the next.  The child:

1. times set-up: importing the package plus a cold calibration of the
   workload's testbeds (``setup_s``);
2. times each driver call from outside, with ``jobs=1`` (``wall_s``),
   optionally under cProfile (``--trace``);
3. times a fixed reference loop a few times before set-up and again
   after the last call (``ref_s``), so the parent can express host time
   in units of the host's speed during the run;
4. writes one JSON document: timings, peak RSS, each call's experiment
   digest and sanity check, the runner's public counters, the simulated
   headline numbers, and (traced) the per-layer profile summary.

The module imports only the standard library at top level, so that the
parent can read :data:`WORKLOADS` without importing the package under
test and the child's set-up timer covers the whole package import.
"""

from __future__ import annotations

import argparse
import heapq
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[2]

#: Registry ids the smoke-sized ``registry`` workload runs: all five are
#: pinned in the repository's golden digest table, and together they
#: reach the service, crash-check and N-tier paths in about a second.
SMOKE_REGISTRY_IDS = (
    "table2", "figure12", "crash-check", "tier-sweep", "service-latency",
)


@dataclass(frozen=True)
class Workload:
    """One closed-loop batch of driver calls: the next starts when the
    previous one returns."""

    #: Seconds one repeat takes on the reference host (a 2-vCPU Xeon VM),
    #: interpreter start and set-up included.  A run of ``--seconds S``
    #: makes ``S // repeat_s`` repeats (at least 3): a count fixed by S,
    #: so best-of-N means the same N on a slow host as on a fast one.
    repeat_s: float
    #: Whether ``--seed`` changes the driver inputs.  When it does not,
    #: every seed is checked against the pinned digests.
    seeded: bool
    #: Testbeds calibrated during set-up.
    archs: tuple
    #: Run every call under ``active_faults(check_invariants=True)``.
    check_invariants: bool
    #: ``calls(seed, smoke) -> [(call id, zero-arg driver call)]``, each
    #: call short, so that best-of-N is taken call by call.
    calls: Callable[[int, bool], list]
    #: ``sim(results) -> dict`` of simulated headline numbers.
    sim: Callable[[list], dict]


def _kv_calls(seed: int, smoke: bool) -> list:
    from repro.service.traces import TraceConfig
    from repro.validation.experiments.service import (
        DEFAULT_LATENCY_PAIRS, run_service_latency,
    )

    trace = TraceConfig(
        tenants=2,
        ops_per_tenant=300 if smoke else 3_000,
        keys_per_tenant=5_000 if smoke else 50_000,
        mix="ycsb-a",
        seed=1200 + seed,
    )
    return [
        (f"service-latency@{read_ns:g}/{write_ns:g}",
         lambda pair=(read_ns, write_ns): run_service_latency(
             latency_pairs=(pair,), trace=trace, jobs=1))
        for read_ns, write_ns in DEFAULT_LATENCY_PAIRS
    ]


def _kv_sim(results: list) -> dict:
    # The ``all`` row of the slowest rung of the NVM latency ladder.
    row = [row for row in results[-1].rows if row["tenant"] == "all"][-1]
    return {
        "sim_p99_us": row["p99_us"],
        "sim_throughput_kops": row["throughput_kops"],
        "cache_hit_ratio": row["hit_pct"] / 100.0,
    }


def _threads_calls(seed: int, smoke: bool) -> list:
    from repro.hw.arch import IVY_BRIDGE
    from repro.validation.experiments.threads import run_figure13

    kwargs = {"archs": (IVY_BRIDGE,), "sections": 120, "jobs": 1}
    if smoke:
        kwargs.update(min_epochs_ms=(0.01, 1.0), sections=50)
    return [
        (f"figure13@{threads}-threads/{case}",
         lambda threads=threads, cs_only=cs_only: run_figure13(
             thread_counts=(threads,), cs_only=cs_only,
             with_compute=not cs_only, **kwargs))
        for case, cs_only in (("cs-only", True), ("with-compute", False))
        for threads in ((2,) if smoke else (2, 4, 8))
    ]


def _threads_sim(results: list) -> dict:
    # The paper's claim is about min epochs <= 1 ms (under ~3% error).
    return {
        "emulation_error_pct": max(
            row["error_pct"] for result in results for row in result.rows
            if row["min_epoch_ms"] <= 1.0
        )
    }


def _graphs_calls(seed: int, smoke: bool) -> list:
    from repro.validation.experiments.applications import run_pagerank_validation
    from repro.workloads.pagerank import PageRankConfig

    graphs = 1 if smoke else 3
    return [
        (f"pagerank-validation@graph-{index}",
         lambda workload=PageRankConfig(
             vertex_count=40_000 if smoke else 50_000,
             seed=graphs * seed + index,
         ): run_pagerank_validation(workload=workload, jobs=1))
        for index in range(graphs)
    ]


def _graphs_sim(results: list) -> dict:
    return {
        "emulation_error_pct": max(
            row["error_pct"] for result in results for row in result.rows
        )
    }


def _registry_calls(seed: int, smoke: bool) -> list:
    from repro.validation.experiments.fast import FAST_KWARGS, run_fast

    return [
        (experiment_id, lambda experiment_id=experiment_id: run_fast(
            experiment_id, jobs=1))
        for experiment_id in (SMOKE_REGISTRY_IDS if smoke else FAST_KWARGS)
    ]


def _no_sim(results: list) -> dict:
    return {}


WORKLOADS: dict[str, Workload] = {
    "kv-service": Workload(
        repeat_s=3.3, seeded=True, archs=("ivy-bridge",),
        check_invariants=False, calls=_kv_calls, sim=_kv_sim,
    ),
    # run_figure13 pins its own seed (500).
    "threads": Workload(
        repeat_s=2.8, seeded=False, archs=("ivy-bridge",),
        check_invariants=False, calls=_threads_calls, sim=_threads_sim,
    ),
    "graphs": Workload(
        repeat_s=2.6, seeded=True, archs=("sandy-bridge",),
        check_invariants=False, calls=_graphs_calls, sim=_graphs_sim,
    ),
    # The fast presets carry their own seeds.
    "registry": Workload(
        repeat_s=4.6, seeded=False,
        archs=("ivy-bridge", "sandy-bridge"), check_invariants=True,
        calls=_registry_calls, sim=_no_sim,
    ),
}


class _Event:
    __slots__ = ("time", "seq", "payload")

    def __init__(self, time_ns: int, seq: int, payload: int):
        self.time, self.seq, self.payload = time_ns, seq, payload


#: Reference-loop samples taken before set-up and again after the calls.
REFERENCE_SAMPLES = 3


def reference_s(events: int = 120_000) -> float:
    """Seconds a fixed pure-Python event loop takes on this host now.

    It shares nothing with the package under test, so a change to the
    program cannot move it; only the host's speed can.
    """
    started = time.perf_counter()
    heap, tally = [], {}
    for seq in range(events):
        event = _Event((seq * 7919) % 4093 + seq, seq, seq & 255)
        heapq.heappush(heap, (event.time, event.seq, event))
        if len(heap) > 64:
            _, _, due = heapq.heappop(heap)
            tally[due.payload] = tally.get(due.payload, 0) + due.time
    return time.perf_counter() - started


def _check(result) -> bool:
    """Tails are ordered and positive wherever a result reports them."""
    return all(
        row["p99_us"] >= row["p50_us"] > 0
        for row in result.rows
        if "p50_us" in row and "p99_us" in row
    )


def run_repeat(name: str, seed: int, smoke: bool, trace: bool) -> dict:
    """Set up, run one repeat of workload *name*, and summarise it."""
    ref_s = [reference_s() for _ in range(REFERENCE_SAMPLES)]
    started = time.perf_counter()
    from repro.faults.context import active_faults
    from repro.hw.arch import arch_by_name
    from repro.quartz.calibration import cache_counters, calibrate_arch
    from repro.validation import export
    from repro.validation.experiments import fast  # noqa: F401  (every driver)
    from repro.validation.runner import (
        RunnerStats, consume_run_stats, reset_run_stats,
    )

    workload = WORKLOADS[name]
    for arch_name in workload.archs:
        calibrate_arch(arch_by_name(arch_name))
    setup_s = time.perf_counter() - started

    profiler = None
    if trace:
        import cProfile

        profiler = cProfile.Profile()
    guard = (
        active_faults(check_invariants=True)
        if workload.check_invariants else nullcontext()
    )
    calls, results = [], []
    reset_run_stats()
    with guard:
        for call_id, call in workload.calls(seed, smoke):
            result, error = None, None
            call_started = time.perf_counter()
            if profiler is not None:
                profiler.enable()
            try:
                result = call()
            except Exception:  # a failed call is counted, not fatal
                error = traceback.format_exc(limit=-3)
            finally:
                if profiler is not None:
                    profiler.disable()
            calls.append({
                "id": call_id,
                "wall_s": time.perf_counter() - call_started,
                "error": error,
                "digest": None if result is None else export.experiment_digest(
                    {"experiment": result.to_dict()}
                ),
                "check": result is not None and _check(result),
            })
            results.append(result)
    stats = consume_run_stats() or RunnerStats()
    memory_hits, disk_hits, measurements, _ = cache_counters.snapshot()

    ref_s += [reference_s() for _ in range(REFERENCE_SAMPLES)]

    document = {
        "setup_s": setup_s,
        "wall_s": sum(call["wall_s"] for call in calls),
        "ref_s": ref_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": calls,
        "sim": workload.sim(results) if None not in results else {},
        "stats": {
            "runs": stats.runs,
            "events": stats.events,
            "run_wall_s": stats.run_wall_s,
            "service_ops": stats.service_ops,
            "invariant_checks": (
                stats.invariant_epoch_checks + stats.invariant_sim_checks
            ),
            "explore_schedules": stats.explore_schedules,
            "crash_images_checked": stats.crash_images_checked,
        },
        "calibration": {
            "calls": memory_hits + disk_hits + measurements,
            "measurements": measurements,
        },
        "profile": None,
    }
    if profiler is not None:
        from layers import summarize

        document["profile"] = summarize(profiler)
    return document


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark repeat.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--result", required=True, help="JSON output path")
    args = parser.parse_args(argv)
    document = run_repeat(args.workload, args.seed, args.smoke, args.trace)
    Path(args.result).write_text(json.dumps(document), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
