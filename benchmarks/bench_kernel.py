#!/usr/bin/env python
"""DES-kernel microbenchmark: events/sec on the kernel's hot paths.

Measures raw dispatch throughput of :class:`repro.sim.Simulator` across
the workload shapes that dominate real experiments, plus wall clock per
registry experiment (fast presets).  Results land in the perf trajectory
as ``BENCH_kernel.json`` — an export document whose digest-covered
``experiment`` section holds only deterministic facts (scenario names,
event counts, heap hygiene counters) while the measured throughput lives
in ``telemetry``, like every other ``BENCH_*.json``.

Scenarios:

* ``heap-drain``       — drain a large pre-seeded heap of no-op events:
  pure dispatch cost (heap comparisons, pop, fire) with no callback or
  scheduling work in the timed region.
* ``timer-chain``      — self-rescheduling callback chains: the pure
  schedule/dispatch cycle with no process machinery.
* ``process-timeouts`` — generator processes yielding ``Timeout``: the
  op-execution shape every workload drives.
* ``cancel-churn``     — cancel/reschedule-heavy deadlines (the
  ``PmWriteEmulator`` signal-interrupt pattern): lazy-cancellation
  hygiene and heap growth.
* ``observed-chain``   — ``timer-chain`` with a no-op dispatch observer
  armed: the fall-back observable path faults/invariants see.
* ``experiment:<id>``  — wall clock and events/sec of registry fast
  presets through the full stack.

Usage (repo root)::

    PYTHONPATH=src python benchmarks/bench_kernel.py                # run + print
    PYTHONPATH=src python benchmarks/bench_kernel.py --out BENCH_kernel.json
    PYTHONPATH=src python benchmarks/bench_kernel.py --baseline seed.json \
        --out BENCH_kernel.json                                     # stamp speedups
    PYTHONPATH=src python benchmarks/bench_kernel.py --check BENCH_kernel.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.sim import Simulator, Timeout

#: Registry experiments timed through the full stack (fast presets):
#: the two most event-heavy presets plus one cheap microbenchmark.
EXPERIMENT_IDS = ("model-ablation", "figure13", "table2")

#: Kernel scenarios gated by ``--check`` (experiment wall clock is too
#: machine-dependent to gate; it is recorded for the trajectory only).
GATED_SCENARIOS = ("heap-drain", "timer-chain", "process-timeouts",
                   "cancel-churn", "observed-chain")


# ----------------------------------------------------------------------
# Kernel scenarios
# ----------------------------------------------------------------------


def run_heap_drain(total_events: int = 300_000) -> dict:
    """Drain a large pre-seeded heap of no-op events: pure dispatch cost.

    With 300k live entries every pop sifts through ~18 comparison
    levels, so this isolates the heap machinery (entry comparisons, pop,
    fire) from callback and scheduling work — the shape of a fully
    loaded completion queue.  Seeding happens outside the timed region.
    """
    sim = Simulator(seed=1)

    def noop():
        pass

    # A fixed stride coprime with the count interleaves times so the
    # heap genuinely reorders (a monotone seed order would make every
    # pop trivially cheap).
    for index in range(total_events):
        sim.schedule(float((index * 7919) % total_events), noop)
    started = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - started
    return _scenario_row("heap-drain", sim, wall)


def run_timer_chain(total_events: int = 400_000, chains: int = 64) -> dict:
    """Self-rescheduling timer chains: the bare schedule/dispatch cycle."""
    sim = Simulator(seed=1)
    remaining = [total_events]

    def make_chain(period: float):
        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(period, tick)
        return tick

    for chain in range(chains):
        sim.schedule(float(chain + 1), make_chain(float(chains + chain)))
    started = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - started
    return _scenario_row("timer-chain", sim, wall)


def run_process_timeouts(processes: int = 32, timeouts: int = 6_000) -> dict:
    """Generator processes blocking on Timeouts (the op-execution shape)."""
    sim = Simulator(seed=1)

    def body(period: float):
        # One Timeout reused across yields: it is immutable, and reuse
        # keeps the measurement on the kernel/process machinery rather
        # than on waitable construction.
        wait = Timeout(period)
        for _ in range(timeouts):
            yield wait

    for index in range(processes):
        sim.spawn(body(float(index + 1)), name=f"proc{index}")
    started = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - started
    return _scenario_row("process-timeouts", sim, wall)


def run_cancel_churn(ticks: int = 2_000, slots: int = 128) -> dict:
    """Cancel/reschedule-heavy deadlines (PmWriteEmulator interrupts).

    Each tick cancels every armed deadline and re-arms it further out —
    under lazy cancellation the heap retains every cancelled entry until
    popped, so heap growth here is the leak the compactor bounds.
    """
    sim = Simulator(seed=1)
    deadlines = [None] * slots
    state = {"ticks": 0, "heap_peak": 0}

    def tick():
        state["ticks"] += 1
        for slot in range(slots):
            event = deadlines[slot]
            if event is not None and event.pending:
                event.cancel()
            deadlines[slot] = sim.schedule(
                10_000.0 + slot, lambda: None
            )
        heap_len = len(sim._heap)
        if heap_len > state["heap_peak"]:
            state["heap_peak"] = heap_len
        if state["ticks"] < ticks:
            sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    started = time.perf_counter()
    sim.run(until_ns=float(ticks + 10))
    wall = time.perf_counter() - started
    row = _scenario_row("cancel-churn", sim, wall)
    row["heap_peak"] = state["heap_peak"]
    row["heap_final"] = len(sim._heap)
    row["compactions"] = getattr(sim, "compactions", 0)
    return row


def run_observed_chain(total_events: int = 400_000, chains: int = 64) -> dict:
    """timer-chain with a no-op dispatch observer armed (observable path)."""
    sim = Simulator(seed=1)
    remaining = [total_events]

    def make_chain(period: float):
        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(period, tick)
        return tick

    for chain in range(chains):
        sim.schedule(float(chain + 1), make_chain(float(chains + chain)))
    observed = [0]

    def observer(event):
        observed[0] += 1

    sim.hooks.subscribe("dispatch", observer)
    started = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - started
    row = _scenario_row("observed-chain", sim, wall)
    row["observed"] = observed[0]
    return row


def _scenario_row(name: str, sim: Simulator, wall_s: float) -> dict:
    events = sim.events_dispatched
    return {
        "scenario": name,
        "events": events,
        "wall_s": wall_s,
        "events_per_sec": events / wall_s if wall_s > 0 else 0.0,
    }


KERNEL_SCENARIOS = {
    "heap-drain": run_heap_drain,
    "timer-chain": run_timer_chain,
    "process-timeouts": run_process_timeouts,
    "cancel-churn": run_cancel_churn,
    "observed-chain": run_observed_chain,
}


# ----------------------------------------------------------------------
# Full-stack experiment timing
# ----------------------------------------------------------------------


def run_experiment_scenario(experiment: str) -> dict:
    """Wall clock + events/sec of one registry fast preset."""
    from repro.validation.experiments.fast import run_fast
    from repro.validation.runner import consume_run_stats, reset_run_stats

    reset_run_stats()
    started = time.perf_counter()
    run_fast(experiment, jobs=1)
    wall = time.perf_counter() - started
    stats = consume_run_stats()
    events = stats.events if stats is not None else 0
    return {
        "scenario": f"experiment:{experiment}",
        "events": events,
        "wall_s": wall,
        "events_per_sec": events / wall if wall > 0 else 0.0,
    }


# ----------------------------------------------------------------------
# Measurement / document assembly
# ----------------------------------------------------------------------


def measure(repeats: int = 3, experiments: bool = True) -> list[dict]:
    """Run every scenario; keep the best (min-wall) of *repeats*."""
    rows = []
    for name, runner in KERNEL_SCENARIOS.items():
        best = None
        for _ in range(repeats):
            row = runner()
            if best is None or row["wall_s"] < best["wall_s"]:
                best = row
        rows.append(best)
    if experiments:
        for experiment in EXPERIMENT_IDS:
            best = None
            # Repeats matter here too: the first run may pay cold
            # calibration-cache costs and the stack is noise-sensitive.
            for _ in range(repeats):
                row = run_experiment_scenario(experiment)
                if best is None or row["wall_s"] < best["wall_s"]:
                    best = row
            rows.append(best)
    return rows


def build_bench_document(rows: list[dict], baseline: dict | None) -> dict:
    """Assemble the BENCH_kernel export document.

    Deterministic facts (scenario names, event counts, heap hygiene)
    form the digest-covered ``experiment`` section; measured throughput
    and any seed-baseline comparison go to ``telemetry``.
    """
    from repro.validation import export
    from repro.validation.reporting import ExperimentResult

    result = ExperimentResult(
        experiment_id="kernel-bench",
        title="DES kernel dispatch throughput",
        columns=["scenario", "events", "heap_peak", "heap_final",
                 "compactions"],
    )
    for row in rows:
        result.add_row(
            scenario=row["scenario"],
            events=row["events"],
            heap_peak=row.get("heap_peak"),
            heap_final=row.get("heap_final"),
            compactions=row.get("compactions"),
        )
    result.note(
        "events are deterministic per scenario; throughput lives in "
        "telemetry.scenarios (events_per_sec, wall_s)"
    )
    telemetry: dict = {
        "scenarios": {
            row["scenario"]: {
                "wall_s": row["wall_s"],
                "events_per_sec": row["events_per_sec"],
            }
            for row in rows
        }
    }
    if baseline is not None:
        comparison = {}
        for row in rows:
            name = row["scenario"]
            base = baseline.get(name)
            if not base:
                continue
            comparison[name] = {
                "baseline_events_per_sec": base,
                "speedup": row["events_per_sec"] / base if base else None,
            }
        telemetry["seed_baseline"] = comparison
    manifest = export.build_manifest(
        knobs={"command": "bench_kernel", "gated": list(GATED_SCENARIOS)}
    )
    return export.build_document(result, manifest, telemetry=telemetry)


def load_baseline(path: Path) -> dict:
    """scenario -> events_per_sec from a prior bench document."""
    document = json.loads(path.read_text(encoding="utf-8"))
    scenarios = document.get("telemetry", {}).get("scenarios", {})
    return {
        name: payload.get("events_per_sec", 0.0)
        for name, payload in scenarios.items()
    }


def check_against(path: Path, rows: list[dict], tolerance: float) -> int:
    """CI gate: fail if any gated scenario regressed past *tolerance*."""
    committed = load_baseline(path)
    failures = []
    for row in rows:
        name = row["scenario"]
        if name not in GATED_SCENARIOS:
            continue
        base = committed.get(name)
        if not base:
            print(f"check: {name}: no committed baseline, skipping")
            continue
        ratio = row["events_per_sec"] / base
        verdict = "ok" if ratio >= 1.0 - tolerance else "REGRESSION"
        print(
            f"check: {name}: {row['events_per_sec']:,.0f} ev/s vs committed "
            f"{base:,.0f} ev/s ({ratio:.2f}x) {verdict}"
        )
        if ratio < 1.0 - tolerance:
            failures.append(name)
    if failures:
        print(
            f"kernel bench gate FAILED: >{tolerance:.0%} throughput "
            f"regression in {', '.join(failures)}"
        )
        return 1
    print("kernel bench gate passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write BENCH_kernel.json here")
    parser.add_argument(
        "--baseline",
        help="prior bench JSON whose throughput becomes telemetry."
             "seed_baseline (speedup ratios)",
    )
    parser.add_argument(
        "--check",
        help="committed bench JSON to gate against (CI mode)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.20,
        help="allowed fractional regression in --check mode (default 0.20)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="per-scenario repeats; best wall time wins (default 3)",
    )
    parser.add_argument(
        "--no-experiments", action="store_true",
        help="skip the full-stack registry experiment scenarios",
    )
    args = parser.parse_args(argv)

    rows = measure(repeats=args.repeats, experiments=not args.no_experiments)
    for row in rows:
        line = (
            f"{row['scenario']:24s} {row['events']:>9,d} events  "
            f"{row['wall_s']:7.3f}s  {row['events_per_sec']:>12,.0f} ev/s"
        )
        if "heap_peak" in row:
            line += (
                f"  heap peak {row['heap_peak']:,} final {row['heap_final']:,}"
                f" compactions {row['compactions']}"
            )
        print(line)

    if args.check:
        return check_against(Path(args.check), rows, args.tolerance)

    baseline = None
    if args.baseline:
        baseline = load_baseline(Path(args.baseline))
    if args.out:
        document = build_bench_document(rows, baseline)
        from repro.validation import export

        Path(args.out).write_text(
            export.dumps_document(document), encoding="utf-8"
        )
        print(f"written to {args.out}")
        if baseline is not None:
            for name, payload in (
                document["telemetry"].get("seed_baseline", {}).items()
            ):
                print(f"  {name}: {payload['speedup']:.2f}x vs baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
