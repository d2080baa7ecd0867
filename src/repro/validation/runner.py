"""The parallel experiment runner: declarative run grids, fanned out.

Every validation run is a pure function of a small picklable description
— which workload, which architecture, which Quartz configuration, which
seed.  :class:`RunSpec` captures that description; :func:`run_specs`
executes a grid of them, optionally across a ``ProcessPoolExecutor``
(``jobs`` argument / ``QUARTZ_REPRO_JOBS``), and returns results in
exactly the submitted order — so a driver's output table is byte-for-byte
identical whatever the job count.  It and the checkpointed sweep engine
(:mod:`repro.validation.sweep`) are two front ends to one grid executor,
``_run_grid``.  Drivers derive each Conf_1 run from its reference with
:func:`emulated_runs` and read results back per cell with
:func:`run_cells`.

Workers share calibration through the persistent on-disk cache (see
``repro.quartz.calibration``): the parent pre-warms every calibration a
grid needs before fanning out, so workers only ever hit the cache.  Each
result carries per-run wall time, simulator event counts, and the
calibration cache-counter deltas; :func:`consume_run_stats` hands the
aggregate to the CLI summary line.

Execution degrades gracefully: ``jobs=1``, single-spec grids, and
environments where process pools are unavailable all run in-process with
identical results.
"""

from __future__ import annotations

import copy
import os
import pickle
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Any, Callable, Optional, Sequence

from repro.errors import RunInterrupted, ValidationError
from repro.faults.context import get_active_faults
from repro.faults.plan import FaultPlan
from repro.hw.arch import arch_by_name
from repro.quartz.calibration import (
    arch_fingerprint,
    cache_counters,
    calibrate_arch,
)
from repro.quartz.config import QuartzConfig
from repro.quartz.stats import QuartzStats
from repro.explore.litmus import disjoint_locks_body, mutex_log_body
from repro.pmem.domain import PersistenceDomain
from repro.service.kvservice import kvservice_main_body
from repro.stats_util import percentile
from repro.validation.configs import (
    Drive,
    RunOutcome,
    drive_body,
    drive_crash_check,
    run_explore,
    run_testbed,
)
from repro.workloads import ablations
from repro.workloads.graph500 import graph500_body
from repro.workloads.kvstore import kvstore_main_body
from repro.workloads.memlat import memlat_body
from repro.workloads.multilat import multilat_body
from repro.workloads.multithreaded import multithreaded_main_body
from repro.workloads.pagerank import pagerank_body
from repro.workloads.pagerank_parallel import parallel_pagerank_body
from repro.workloads.stream import stream_main_body

# ----------------------------------------------------------------------
# Declarative run units
# ----------------------------------------------------------------------

#: Workload id -> body-factory builder.  A builder receives the spec's
#: workload config plus its extras dict and returns the ``factory(out)``
#: callable the Conf_1/Conf_2 helpers drive.  Builders are module-level
#: so a spec stays picklable: workers reconstruct closures locally.
WORKLOADS: dict[str, Callable[[Any, dict], Callable]] = {
    "memlat": lambda config, extras: (lambda out: memlat_body(config, out)),
    "stream": lambda config, extras: (lambda out: stream_main_body(config, out)),
    "multithreaded": lambda config, extras: (
        lambda out: multithreaded_main_body(config, out)
    ),
    "multilat": lambda config, extras: (lambda out: multilat_body(config, out)),
    "kvstore": lambda config, extras: (lambda out: kvstore_main_body(config, out)),
    "pagerank": lambda config, extras: (
        lambda out: pagerank_body(config, out, graph=extras.get("graph"))
    ),
    "graph500": lambda config, extras: (
        lambda out: graph500_body(config, out, graph=extras.get("graph"))
    ),
    "parallel-pagerank": lambda config, extras: (
        lambda out: parallel_pagerank_body(config, out, graph=extras.get("graph"))
    ),
    # Litmus workloads (exploration-sized; see ``repro.explore.litmus``).
    # Outside explore mode they run against a detached shadow domain —
    # the recorded content goes unchecked, the traffic shape is real.
    "mutex-log": lambda config, extras: (
        lambda out: mutex_log_body(
            config, out, PersistenceDomain(), extras.get("mutant")
        )
    ),
    "disjoint-locks": lambda config, extras: (
        lambda out: disjoint_locks_body(config, out, PersistenceDomain())
    ),
    "kvservice": lambda config, extras: (
        lambda out: kvservice_main_body(config, out)
    ),
    "persist-barriers": lambda config, extras: (
        lambda out: ablations.persist_barriers_body(config, out)
    ),
    "rw-streams": lambda config, extras: (lambda out: ablations.rw_streams_body(config, out)),
    "background-load": lambda config, extras: (
        lambda out: ablations.background_load_body(config, out)
    ),
}


@dataclass(frozen=True)
class Mode:
    """One run mode: the only place its testbed wiring is spelled out."""

    #: Conf_1-style: Quartz attached (the spec needs a QuartzConfig), the
    #: testbed calibrated at the spec's ``calibration_seed``, and the run
    #: streamed to the ``--trace-out`` sink.
    emulated: bool = False
    #: Extras key -> what it must hold (checked when the spec is built).
    requires: dict = field(default_factory=dict)
    #: Spec -> the attachment that drives the run.  ``None`` for explore,
    #: the one mode that builds no testbed (:func:`run_explore`).
    drive: Optional[Callable[["RunSpec"], Drive]] = None
    #: Extras -> :func:`run_testbed` keywords: where memory lives, latency
    #: jitter, the throttle register.
    testbed: Callable[[dict], dict] = lambda extras: {}


def _body(name: str = "main", report: Optional[str] = None):
    """Drive the spec's workload body on one thread called *name* (or
    ``extras["thread"]``), after a daemon thread per workload id in
    ``extras["beside"]``, named after it."""
    return lambda spec: drive_body(
        WORKLOADS[spec.workload](spec.config, spec.extras),
        spec.extras.get("thread", name),
        report,
        [(w, WORKLOADS[w](None, spec.extras)({})) for w in spec.extras.get("beside", ())],
    )


#: Mode name -> :class:`Mode` (testbeds: ``repro.validation.configs``).
#: ``chase`` is the Table 2 latency loop (memory on ``mem_node``) and
#: ``throttled`` the Figure 8 bandwidth loop (no jitter, ``register``
#: programmed); both predate the named configurations and keep an
#: unnamed main thread, as does ``ablation``, the Section 6 studies'
#: jitter-free Conf_1 on a machine built with ``extras["machine"]``.
#: ``crash`` is Conf_1 plus the crash-consistency checker (``repro.pmem``),
#: ``service`` is Conf_1 driving the multi-tenant KV service
#: (``repro.service``), and ``explore`` is the model-checking mode
#: (``repro.explore``), which takes no fault plan.  A ``crash`` or ``explore``
#: spec's extras are the keyword arguments of its attachment
#: (:func:`drive_crash_check`, :func:`run_explore`): the plan plus
#: optional ``shard``/``shards``/``mutant``.
MODES: dict[str, Mode] = {
    "conf1": Mode(emulated=True, drive=_body()),
    "conf2": Mode(drive=_body(), testbed=lambda extras: {"mem_node": 1}),
    "native": Mode(drive=_body()),
    "chase": Mode(
        drive=_body(name=""),
        testbed=lambda extras: {"mem_node": extras.get("mem_node", 0)},
    ),
    "throttled": Mode(
        drive=_body(name=""),
        testbed=lambda extras: {
            "latency_jitter": False,
            "throttle_register": extras.get("register", 0),
        },
    ),
    "ablation": Mode(
        emulated=True,
        drive=_body(name=""),
        testbed=lambda extras: {"latency_jitter": False, **extras.get("machine", {})},
    ),
    "crash": Mode(
        emulated=True,
        requires={"crash_plan": "a CrashPlan"},
        drive=lambda spec: drive_crash_check(
            spec.workload, spec.config, spec.seed, **spec.extras
        ),
    ),
    "explore": Mode(requires={"explore_plan": "an ExplorePlan"}),
    "service": Mode(emulated=True, drive=_body(report="service")),
}


@dataclass(frozen=True)
class RunSpec:
    """One validation run, described declaratively and picklably.

    A spec carries no live objects — only the workload id (a key into
    :data:`WORKLOADS`), its config dataclass, the architecture *name*,
    the testbed mode, seeds, and an ``extras`` dict of picklable inputs
    (a pre-built graph, the Table 2 memory node, the Figure 8 register).
    """

    workload: str
    config: Any
    arch_name: str
    mode: str = "native"
    seed: int = 0
    quartz: Optional[QuartzConfig] = None
    #: Seed of the calibration pass Conf_1 attaches (paper: one
    #: calibration per machine, shared by every run on it).
    calibration_seed: int = 0
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ValidationError(f"unknown workload id: {self.workload!r}")
        mode = MODES.get(self.mode)
        if mode is None:
            raise ValidationError(f"unknown run mode: {self.mode!r}")
        if mode.emulated and self.quartz is None:
            raise ValidationError(f"{self.mode} runs need a QuartzConfig")
        for key, what in mode.requires.items():
            if key not in self.extras:
                raise ValidationError(f"{self.mode} runs need {what} in extras")


@dataclass
class RunResult:
    """The picklable outcome of one :class:`RunSpec`.

    Unlike :class:`~repro.validation.configs.RunOutcome` this drops the
    live machine (unpicklable) and adds the observability counters the
    runner aggregates.
    """

    index: int
    workload_result: Any
    elapsed_ns: float
    quartz_stats: Optional[QuartzStats] = None
    wall_s: float = 0.0
    events: int = 0
    calib_memory_hits: int = 0
    calib_disk_hits: int = 0
    calib_measurements: int = 0
    #: The outcome's attachment reports (name -> report dict), folded
    #: into :class:`RunnerStats` by :data:`REDUCERS`.
    reports: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def _execute(
    spec: RunSpec,
    index: int = 0,
    fault_plan: Optional[FaultPlan] = None,
    check_invariants: bool = False,
) -> RunOutcome:
    arch = arch_by_name(spec.arch_name)
    mode = MODES[spec.mode]
    if mode.drive is None:
        return run_explore(arch, spec.workload, spec.config, **spec.extras)
    sink = _trace_writer if mode.emulated else None
    if sink is not None:
        sink.begin_run(
            index=index,
            workload=spec.workload,
            arch=spec.arch_name,
            mode=spec.mode,
            seed=spec.seed,
        )
    emulation = {}
    if mode.emulated:
        emulation = {
            "quartz_config": spec.quartz,
            "calibration": calibrate_arch(arch, seed=spec.calibration_seed),
            "trace_sink": sink,
        }
    outcome = run_testbed(
        arch,
        mode.drive(spec),
        seed=spec.seed,
        fault_plan=fault_plan,
        check_invariants=check_invariants,
        **emulation,
        **mode.testbed(spec.extras),
    )
    if sink is not None:
        sink.write_stats(outcome.quartz_stats)
    return outcome


def _run_one(payload: tuple) -> RunResult:
    """Worker entry point: execute one spec, package a picklable result.

    The payload is ``(index, spec)`` or ``(index, spec, fault_context)``
    with ``fault_context = (FaultPlan | None, check_invariants)`` — the
    explicit third element is how the active fault context crosses into
    pool workers under both fork and spawn start methods.
    """
    index, spec = payload[0], payload[1]
    fault_plan, check_invariants = (
        payload[2] if len(payload) > 2 else (None, False)
    )
    mem0, disk0, meas0, _ = cache_counters.snapshot()
    started = time.perf_counter()
    outcome = _execute(
        spec, index, fault_plan=fault_plan, check_invariants=check_invariants
    )
    wall = time.perf_counter() - started
    mem1, disk1, meas1, _ = cache_counters.snapshot()
    return RunResult(
        index=index,
        workload_result=outcome.workload_result,
        elapsed_ns=outcome.elapsed_ns,
        quartz_stats=outcome.quartz_stats,
        wall_s=wall,
        events=outcome.events,
        calib_memory_hits=mem1 - mem0,
        calib_disk_hits=disk1 - disk0,
        calib_measurements=meas1 - meas0,
        reports=outcome.reports,
    )


def _env_jobs() -> Optional[int]:
    """``QUARTZ_REPRO_JOBS`` as an int, or ``None`` when unset or blank."""
    env = os.environ.get("QUARTZ_REPRO_JOBS", "").strip()
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        raise ValidationError(f"QUARTZ_REPRO_JOBS must be an integer, got {env!r}") from None


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Normalise a job count: explicit > ``QUARTZ_REPRO_JOBS`` > 1.

    Library calls default to in-process execution; the CLI resolves its
    own default (``os.cpu_count()``) before calling a driver.
    """
    if jobs is None:
        jobs = _env_jobs() or 1
    return max(1, int(jobs))


def default_cli_jobs() -> int:
    """The CLI default: the environment override, else every core."""
    env = _env_jobs()
    return max(1, env if env is not None else os.cpu_count() or 1)


def _prewarm_calibrations(specs: Sequence[RunSpec]) -> int:
    """Calibrate every testbed a grid needs, once, in the parent.

    Fork-started workers inherit the in-memory cache; spawn-started ones
    read the disk cache.  Either way no worker re-measures.  Deduping is
    by *calibration fingerprint* — ``(arch_fingerprint, seed)`` — so a
    thousand-spec grid whose specs alias the same physical testbed under
    different names still warms it exactly once.  Returns the number of
    unique calibrations warmed.
    """
    fingerprints: dict[str, str] = {}
    needed: dict[tuple[str, int], tuple[str, int]] = {}
    for spec in specs:
        if not MODES[spec.mode].emulated:
            continue
        fingerprint = fingerprints.get(spec.arch_name)
        if fingerprint is None:
            fingerprint = arch_fingerprint(arch_by_name(spec.arch_name))
            fingerprints[spec.arch_name] = fingerprint
        needed.setdefault(
            (fingerprint, spec.calibration_seed),
            (spec.arch_name, spec.calibration_seed),
        )
    for key in sorted(needed):
        arch_name, calibration_seed = needed[key]
        calibrate_arch(arch_by_name(arch_name), seed=calibration_seed)
    return len(needed)


def _in_process_note(error: BaseException) -> None:
    print(
        f"note: process pool unavailable ({error!r}); running in-process",
        file=sys.stderr,
    )


def _run_parallel(
    payloads: list[tuple], jobs: int, deliver: Callable[[RunResult], None]
) -> bool:
    """Fan out over a process pool, *deliver*-ing results as they finish.

    Returns ``False`` when no pool is available; the caller then runs
    in-process.  Each payload is submitted as its own future (work-queue
    scheduling: an idle worker always pulls the next pending spec, so
    one straggler never idles a chunk's worth of workers).  Whatever
    stops the loop — a run raising, ``KeyboardInterrupt`` (also one
    raised by *deliver*), a pool breaking mid-grid — cancels every
    pending future; on an interrupt every run that did finish is
    delivered first.
    """
    try:
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(payloads)))
    except (NotImplementedError, OSError, PermissionError) as error:
        _in_process_note(error)
        return False
    futures: list = []
    finished = False
    try:
        futures = [pool.submit(_run_one, payload) for payload in payloads]
        for future in as_completed(futures):
            deliver(future.result())
        finished = True
    except (KeyboardInterrupt, BrokenProcessPool):
        pool.shutdown(wait=False, cancel_futures=True)
        for future in futures:
            if future.done() and not future.cancelled() and future.exception() is None:
                deliver(future.result())
        raise
    except pickle.PicklingError as error:
        _in_process_note(error)
        return False
    finally:
        pool.shutdown(wait=finished, cancel_futures=True)
    return True


def _fault_payload() -> tuple:
    """The active fault context as a run-payload suffix (empty if clean).

    The context rides in every payload so pool workers see it regardless
    of start method; per-run seeding keeps any fan-out byte-identical to
    the in-process order.
    """
    context = get_active_faults()
    if context is None or not context.active:
        return ()
    return ((context.plan, context.check_invariants),)


def _run_grid(
    specs: Sequence[RunSpec],
    jobs: Optional[int],
    consume: Callable[[RunSpec, RunResult], None],
    reuse: Optional[dict[int, Callable[[], RunResult]]] = None,
    record: Optional[Callable[[RunResult], None]] = None,
    interrupt_after: Optional[int] = None,
) -> None:
    """The one grid executor, behind :func:`run_specs` and ``run_sweep``.

    Runs every spec not in *reuse* (index -> loader of an earlier
    result): over a process pool when ``jobs`` resolves above one, no
    ``--trace-out`` sink is open and two or more specs need to run;
    otherwise, or when no pool is available, in-process.
    ``record(result)`` sees each fresh result as it finishes;
    ``consume(spec, result)`` sees every result in submission order, as
    soon as those before it are in (only out-of-order completions are
    buffered).  The :class:`RunnerStats` window gets the specs'
    provenance, the fresh results in submission order, the job count
    used, the wall time and the peak count of buffered results.  Ctrl-C, a broken pool
    or ``interrupt_after`` fresh results fold every finished run into
    the window, mark it ``"interrupted"`` and raise
    :class:`~repro.errors.RunInterrupted`.
    """
    specs = list(specs)
    reuse = reuse or {}
    total = len(specs)
    faults = _fault_payload()
    plan = faults[0][0] if faults else None
    if plan and not plan.is_empty and any(MODES[s.mode].drive is None for s in specs):
        raise ValidationError(
            "explore runs take no fault plan: the explorer builds its own simulators"
        )
    todo = [
        (index, spec, *faults)
        for index, spec in enumerate(specs)
        if index not in reuse
    ]
    jobs = resolve_jobs(jobs)
    if _trace_writer is not None or len(todo) < 2:
        # Streaming a trace: stay in-process so the JSONL stream is
        # ordered and single-writer (results are identical either way).
        jobs = 1
    stats = current_run_stats()
    for spec in specs:
        _record_spec(stats, spec)
    ran: set[int] = set()
    pending: dict[int, RunResult] = {}
    merged = peak = 0

    def drain() -> None:
        nonlocal merged
        while merged < total:
            if merged in pending:
                result = pending.pop(merged)
                _record_result(stats, result)
            elif merged in reuse:
                result = reuse[merged]()
                result.index = merged
            else:
                break
            consume(specs[merged], result)
            merged += 1

    def take(result: RunResult) -> None:
        nonlocal peak
        if result.index in ran:
            return
        ran.add(result.index)
        if record is not None:
            record(result)
        pending[result.index] = result
        peak = max(peak, len(pending))
        drain()
        if len(ran) == interrupt_after:
            raise KeyboardInterrupt

    started = time.perf_counter()
    try:
        drain()
        if jobs > 1:
            _prewarm_calibrations([payload[1] for payload in todo])
            if not _run_parallel(todo, jobs, take):
                jobs = 1
        for payload in todo:
            if payload[0] not in ran:
                take(_run_one(payload))
    except (KeyboardInterrupt, BrokenProcessPool) as error:
        # Completed work is not lost: fold the runs the merge still
        # buffers, so the partial window (the CLI prints its summary)
        # covers every finished run.
        for index in sorted(pending):
            _record_result(stats, pending[index])
        stats.stop_reason = "interrupted"
        raise RunInterrupted(
            f"run grid interrupted ({type(error).__name__}) after "
            f"{len(ran) + len(reuse)} of {total} run(s)",
            completed=len(ran) + len(reuse),
            total=total,
        ) from error
    finally:
        stats.wall_s += time.perf_counter() - started
        stats.jobs = max(stats.jobs, jobs)
        stats.stream_merge_peak_rows = max(stats.stream_merge_peak_rows, peak)


# ----------------------------------------------------------------------
# Streaming epoch traces (CLI --trace-out)
# ----------------------------------------------------------------------

_trace_writer = None  # Optional[JsonlTraceWriter]


def set_trace_out(path: Optional[str]):
    """Open (or, with ``None``, close) the streaming epoch-trace sink.

    While a sink is active every emulated run the runner executes (the
    :data:`MODES` marked ``emulated``) streams its epoch closes
    and final emulator statistics to the JSONL file
    (see :mod:`repro.quartz.trace`), and the grid executor pins itself
    to in-process execution so the stream stays ordered and race-free.
    Returns the live writer (``None`` when closing).
    """
    global _trace_writer
    close_trace_out()
    if path is not None:
        # Local import: repro.quartz.trace imports validation.metrics.
        from repro.quartz.trace import JsonlTraceWriter

        _trace_writer = JsonlTraceWriter(path)
    return _trace_writer


def close_trace_out() -> Optional[tuple[str, int, int]]:
    """Close the active trace sink; returns (path, runs, records)."""
    global _trace_writer
    writer, _trace_writer = _trace_writer, None
    if writer is None:
        return None
    writer.close()
    return (str(writer.path), writer.runs_written, writer.records_written)


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------


def _summing(**fields: str) -> Callable[[dict, dict], None]:
    """A fold that adds each report key into its total key."""

    def fold(total: dict, report: dict) -> None:
        for key, source in fields.items():
            total[key] = total.get(key, 0) + report.get(source, 0)

    return fold


def _fold_faults(total: dict, report: dict) -> None:
    injections = total.setdefault("injections", {})
    for kind, count in report.get("injections", {}).items():
        injections[kind] = injections.get(kind, 0) + count
    total["total"] = sum(injections.values())


_sum_invariant_checks = _summing(
    epoch_checks="epoch_checks", sim_checks="sim_checks",
    violations="violations",
)


def _fold_invariants(total: dict, report: dict) -> None:
    _sum_invariant_checks(total, report)
    total["max_epoch_length_ns"] = max(
        total.get("max_epoch_length_ns", 0.0),
        report.get("max_epoch_length_ns", 0.0),
    )


def _fold_service(total: dict, report: dict) -> None:
    total["runs"] = total.get("runs", 0) + 1
    total["ops"] = total.get("ops", 0) + report.get("overall", {}).get("ops", 0)
    worst = total.get("p99_ns_max", 0.0)
    tenants = total.setdefault("tenants", {})
    for tenant, summary in report.get("tenants", {}).items():
        p99 = summary.get("p99_ns") or 0.0
        worst = max(worst, p99)
        rollup = tenants.setdefault(
            tenant,
            {"runs": 0, "ops": 0, "p99_ns_max": 0.0,
             "throughput_ops_s_sum": 0.0},
        )
        rollup["runs"] += 1
        rollup["ops"] += summary.get("ops", 0)
        rollup["p99_ns_max"] = max(rollup["p99_ns_max"], p99)
        rollup["throughput_ops_s_sum"] += summary.get("throughput_ops_s", 0.0)
    total["p99_ns_max"] = worst


@dataclass(frozen=True)
class Reducer:
    """How one attachment's per-run reports aggregate over a window."""

    #: ``fold(total, report)`` adds one run's report into the running total.
    fold: Callable[[dict, dict], None]
    #: Whether the total is worth reporting (summary and telemetry).
    shown: Callable[[dict], bool]
    #: The total's clause of the CLI summary line.
    summary: Callable[[dict], str]


#: Report name -> reducer, in summary-line order.  A shown total becomes
#: the telemetry section of the same name.  Crash points are summed over
#: runs: every shard of a sharded run enumerates the full point sequence,
#: so they count enumeration work, not unique points.
REDUCERS: dict[str, Reducer] = {
    "faults": Reducer(
        _fold_faults,
        lambda total: bool(total["injections"]),
        lambda total: f"faults: {total['total']} injection(s)",
    ),
    "invariants": Reducer(
        _fold_invariants,
        lambda total: bool(total["epoch_checks"] or total["sim_checks"]),
        lambda total: (
            f"invariants: {total['epoch_checks']} epoch + "
            f"{total['sim_checks']} sim checks, "
            f"{total['violations']} violation(s)"
        ),
    ),
    "crash": Reducer(
        _summing(
            points="points", images_checked="checked",
            violations="violation_total",
        ),
        lambda total: bool(total["images_checked"]),
        lambda total: (
            f"crash: {total['images_checked']} image(s) checked, "
            f"{total['violations']} violation(s)"
        ),
    ),
    "explore": Reducer(
        _summing(
            schedules="schedules", executions="executions", pruned="pruned",
            images_checked="images_checked", violations="violation_total",
        ),
        lambda total: bool(total["schedules"]),
        lambda total: (
            f"explore: {total['schedules']} schedule(s) "
            f"({total['pruned']} pruned), "
            f"{total['images_checked']} image(s) checked, "
            f"{total['violations']} violation(s)"
        ),
    ),
    "service": Reducer(
        _fold_service,
        lambda total: bool(total["runs"]),
        lambda total: (
            f"service: {total['ops']:,} op(s) over "
            f"{len(total['tenants'])} tenant(s), "
            f"worst p99 {total['p99_ns_max'] / 1e3:.1f}us"
        ),
    ),
}


@dataclass
class RunnerStats:
    """Aggregate observability over one driver invocation."""

    runs: int = 0
    jobs: int = 1
    wall_s: float = 0.0
    run_wall_s: float = 0.0
    events: int = 0
    sim_ns: float = 0.0
    calib_memory_hits: int = 0
    calib_disk_hits: int = 0
    calib_measurements: int = 0
    #: How the accumulation window ended: ``"completed"`` normally,
    #: ``"interrupted"`` when a grid/sweep was cut short (Ctrl-C, broken
    #: pool, deterministic crash point) with only partial results.
    stop_reason: str = "completed"
    #: Per-run wall times (seconds), one entry per executed run — the
    #: raw series behind the p50/p99 tail summary.
    run_wall_times: list = field(default_factory=list)
    #: Sweep counters (zero outside ``run_sweep``): the specs queued for
    #: execution, those reused from a checkpoint journal without
    #: re-execution and the journaled checkpoints that failed
    #: verification and re-ran; then the grid executor's peak count of
    #: buffered out-of-order result rows.
    queue_depth: int = 0
    specs_skipped: int = 0
    specs_tampered: int = 0
    stream_merge_peak_rows: int = 0
    #: Provenance of the grid (deterministic for any job count): which
    #: testbeds, workloads, modes, and seeds the runs covered.  These
    #: feed the exported :class:`~repro.validation.export.RunManifest`.
    arch_names: set = field(default_factory=set)
    workloads: set = field(default_factory=set)
    modes: set = field(default_factory=set)
    seeds: set = field(default_factory=set)
    calibration_seeds: set = field(default_factory=set)
    #: Report name -> its :data:`REDUCERS` total across all runs.
    totals: dict = field(default_factory=dict)

    def count(self, name: str, key: str):
        """One aggregated counter (zero when no run filed *name*)."""
        return self.totals.get(name, {}).get(key, 0)

    # The counters the end-to-end benchmark reads by attribute.
    service_ops = property(lambda self: self.count("service", "ops"))
    invariant_epoch_checks = property(
        lambda self: self.count("invariants", "epoch_checks")
    )
    invariant_sim_checks = property(
        lambda self: self.count("invariants", "sim_checks")
    )
    explore_schedules = property(lambda self: self.count("explore", "schedules"))
    crash_images_checked = property(
        lambda self: self.count("crash", "images_checked")
    )

    @property
    def calib_hits(self) -> int:
        """Calibration requests served from either cache layer."""
        return self.calib_memory_hits + self.calib_disk_hits

    @property
    def events_per_sec(self) -> Optional[float]:
        """Kernel dispatch throughput over summed per-run wall time."""
        if self.run_wall_s <= 0.0:
            return None
        return self.events / self.run_wall_s

    def wall_percentile(self, fraction: float) -> Optional[float]:
        """Nearest-rank percentile of the per-run wall times (seconds)."""
        return percentile(self.run_wall_times, fraction)

    @property
    def wall_p50_s(self) -> Optional[float]:
        """Median per-run wall time (tail visibility for uneven grids)."""
        return self.wall_percentile(0.50)

    @property
    def wall_p99_s(self) -> Optional[float]:
        """99th-percentile per-run wall time."""
        return self.wall_percentile(0.99)

    def _shown_totals(self) -> dict:
        """The report totals worth reporting, in :data:`REDUCERS` order."""
        return {
            name: self.totals[name]
            for name, reducer in REDUCERS.items()
            if name in self.totals and reducer.shown(self.totals[name])
        }

    def summary(self) -> str:
        """The CLI summary line."""
        rate = self.events_per_sec
        rate_text = f" ({rate:,.0f} ev/s)" if rate is not None else ""
        line = (
            f"runner: {self.runs} runs on {self.jobs} job(s), "
            f"{self.events:,} events{rate_text}, "
            f"{self.run_wall_s:.1f}s total run time in {self.wall_s:.1f}s wall; "
            f"calibration cache: {self.calib_hits} hits "
            f"({self.calib_memory_hits} memory / {self.calib_disk_hits} disk), "
            f"{self.calib_measurements} measurements"
        )
        p50, p99 = self.wall_p50_s, self.wall_p99_s
        if p50 is not None and p99 is not None:
            line += f"; per-run wall p50/p99: {p50 * 1e3:.1f}/{p99 * 1e3:.1f}ms"
        if self.queue_depth or self.specs_skipped:
            # A cut grid did not execute all of its queue.
            executed = "executed" if self.stop_reason == "completed" else "queued"
            line += (
                f"; sweep: {self.queue_depth + self.specs_skipped} spec(s), "
                f"{self.queue_depth} {executed}, "
                f"{self.specs_skipped} reused from checkpoints"
            )
            if self.specs_tampered:
                line += f", {self.specs_tampered} tampered record(s) re-run"
            line += f", peak {self.stream_merge_peak_rows} buffered row(s)"
        if self.stop_reason != "completed":
            line += f"; stopped: {self.stop_reason}"
        for name, total in self._shown_totals().items():
            line += "; " + REDUCERS[name].summary(total)
        return line

    def telemetry(self) -> dict:
        """The volatile counters as a JSON-safe dict.

        This is the export document's ``telemetry`` section: wall times,
        job counts, and cache hit/miss counters legitimately vary
        between invocations (and between ``--jobs`` values), so they
        live outside the canonical, digest-covered portion.
        """
        payload: dict = {
            "runs": self.runs,
            "jobs": self.jobs,
            "wall_s": self.wall_s,
            "run_wall_s": self.run_wall_s,
            "wall_p50_s": self.wall_p50_s,
            "wall_p99_s": self.wall_p99_s,
            "events": self.events,
            "events_per_sec": self.events_per_sec,
            "sim_ns": self.sim_ns,
            "stop_reason": self.stop_reason,
            "calibration_cache": {
                "memory_hits": self.calib_memory_hits,
                "disk_hits": self.calib_disk_hits,
                "measurements": self.calib_measurements,
            },
        }
        if self.queue_depth or self.specs_skipped:
            payload["sweep"] = {
                "queue_depth": self.queue_depth,
                "specs_skipped": self.specs_skipped,
                "specs_tampered": self.specs_tampered,
                "stream_merge_peak_rows": self.stream_merge_peak_rows,
            }
        payload.update(copy.deepcopy(self._shown_totals()))
        return payload


_run_stats: Optional[RunnerStats] = None


def reset_run_stats() -> None:
    """Start a fresh accumulation window (CLI calls this per experiment)."""
    global _run_stats
    _run_stats = None


def consume_run_stats() -> Optional[RunnerStats]:
    """Return and clear the stats accumulated since the last reset."""
    global _run_stats
    stats, _run_stats = _run_stats, None
    return stats


def current_run_stats() -> RunnerStats:
    """The live accumulation window, created on first use.

    The grid executor folds every run into it; the sweep engine adds its
    checkpoint counters.
    """
    global _run_stats
    if _run_stats is None:
        _run_stats = RunnerStats()
    return _run_stats


def _record_spec(stats: RunnerStats, spec: RunSpec) -> None:
    """Fold one spec's provenance into the manifest-feeding sets."""
    stats.arch_names.add(spec.arch_name)
    stats.workloads.add(spec.workload)
    stats.modes.add(spec.mode)
    stats.seeds.add(spec.seed)
    if MODES[spec.mode].emulated:
        stats.calibration_seeds.add(spec.calibration_seed)


def _record_result(stats: RunnerStats, result: RunResult) -> None:
    """Fold one executed run's counters into the window."""
    stats.runs += 1
    stats.run_wall_s += result.wall_s
    stats.run_wall_times.append(result.wall_s)
    stats.events += result.events
    stats.sim_ns += result.elapsed_ns
    stats.calib_memory_hits += result.calib_memory_hits
    stats.calib_disk_hits += result.calib_disk_hits
    stats.calib_measurements += result.calib_measurements
    for name, report in result.reports.items():
        REDUCERS[name].fold(stats.totals.setdefault(name, {}), report)


# ----------------------------------------------------------------------
# The entry point
# ----------------------------------------------------------------------


def run_specs(
    specs: Sequence[RunSpec], jobs: Optional[int] = None
) -> list[RunResult]:
    """Execute a grid of specs; results come back in submitted order.

    Every run builds its own simulator from its own seed, so execution
    order and placement cannot change any result: the returned tables are
    byte-identical for any ``jobs`` value.
    """
    results: list[RunResult] = []
    _run_grid(specs, jobs, lambda spec, result: results.append(result))
    return results


def emulated_runs(reference: RunSpec, *quartz: QuartzConfig) -> list[RunSpec]:
    """*reference* followed by one Conf_1 run of it per Quartz config.

    The emulated runs are the reference with only the mode and the
    Quartz config swapped, so same workload, arch, seed and extras on
    both sides: only the memory differs (Section 4.3).  The reference is
    Conf_2 for a remote-latency target or a native run for a baseline.
    """
    return [reference] + [replace(reference, mode="conf1", quartz=q) for q in quartz]


def run_cells(
    cells: Sequence[Sequence[RunSpec]], jobs: Optional[int] = None
) -> list[list[RunResult]]:
    """Run every cell's specs as one grid; results come back per cell."""
    results = iter(run_specs([spec for cell in cells for spec in cell], jobs=jobs))
    return [list(islice(results, len(cell))) for cell in cells]


def run_mutant_shards(
    mode: str, plan, mutants: Sequence[str], shards: int,
    jobs: Optional[int] = None, **spec,
) -> list[list[dict]]:
    """Each mutant's shard reports, from one *mode* run per (mutant, shard).

    The oracle grid of the ``crash`` and ``explore`` modes: *plan* rides
    in the ``<mode>_plan`` extra, *spec* holds the :class:`RunSpec`
    fields every run shares, and each run's report is the one filed
    under the mode's name.
    """
    cells = [
        [
            RunSpec(
                mode=mode,
                extras={
                    f"{mode}_plan": plan,
                    "shard": shard,
                    "shards": shards,
                    "mutant": None if mutant == "none" else mutant,
                },
                **spec,
            )
            for shard in range(shards)
        ]
        for mutant in mutants
    ]
    return [[run.reports[mode] for run in runs] for runs in run_cells(cells, jobs)]
