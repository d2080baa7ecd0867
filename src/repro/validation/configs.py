"""The validation testbed configurations of Section 4.3 (Figure 10).

Every run is built by one function, :func:`run_testbed`: a
:class:`~repro.os.testbed.Testbed` (Simulator → Machine → SimOS) → fault
engine and invariant monitor → optional Quartz (calibrate, perturb,
attach, epoch trace) → a *drive* that runs the workload and returns the
outcome.  The testbeds differ only in where memory lives and whether
the emulator is attached; the paper's named configurations are one call
each:

* :func:`run_conf1` — computation and memory on socket 0, Quartz attached
  and emulating a higher latency (Figure 10a);
* :func:`run_conf2` — computation on socket 0, memory physically bound to
  socket 1 with the numactl analogue, **no emulator** (Figure 10b);
* :func:`run_native` — computation and memory on socket 0, no emulator
  (the "no emulation" baseline of Figure 13).

Each run builds a fresh machine (caches cold, counters zeroed — the
paper's "invalidate caches between runs"), drives the workload's main
body to completion, and returns the workload result plus emulator
statistics.  Each attachment that reports (``faults``, ``invariants``,
``crash``, ``service``; ``explore`` from :func:`run_explore`) adds its
report to :attr:`RunOutcome.reports` under its name.

The testbed lives for one run.  Once the drive has returned and the
outcome has taken the event count, the Quartz stats and the reports,
:func:`run_testbed` closes the testbed (on error too), which breaks
the run's reference cycles, so the whole run is freed by reference
counting as soon as the call returns.  The outcome holds no reference
into it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.faults.engine import FaultEngine
from repro.faults.invariants import InvariantMonitor
from repro.faults.plan import FaultPlan
from repro.hw.arch import ArchSpec
from repro.os.system import SimOS
from repro.os.testbed import Testbed
from repro.quartz.calibration import CalibrationData, calibrate_arch
from repro.quartz.config import QuartzConfig
from repro.quartz.emulator import Quartz
from repro.quartz.stats import QuartzStats

if TYPE_CHECKING:
    from repro.explore import ExplorePlan
    from repro.pmem.crash import CrashPlan
    from repro.quartz.trace import JsonlTraceWriter


@dataclass
class RunOutcome:
    """Everything observable from one validation run."""

    workload_result: Any
    elapsed_ns: float
    quartz_stats: Optional[QuartzStats] = None
    #: Events the run's simulator dispatched (0 for an exploration, which
    #: runs many private simulators).
    events: int = 0
    #: Attachment name -> its JSON-safe report: ``faults``
    #: (:meth:`FaultEngine.report`), ``invariants``
    #: (:meth:`InvariantMonitor.report`), ``crash``
    #: (:meth:`~repro.pmem.checker.CrashCheckReport.to_dict`),
    #: ``explore`` (:meth:`~repro.explore.ExploreReport.to_dict`) and
    #: ``service`` (:meth:`~repro.service.kvservice.ServiceResult.report`).
    #: An attachment that was not on the run has no entry.
    reports: dict = field(default_factory=dict)


BodyFactory = Callable[[dict], Callable]
#: Runs the workload on a built testbed and returns its outcome.
Drive = Callable[[SimOS], RunOutcome]


def drive_body(
    body_factory: BodyFactory,
    name: str = "main",
    report: Optional[str] = None,
    daemons: Sequence[tuple[str, Callable]] = (),
) -> Drive:
    """Drive one main thread built by *body_factory* to completion.

    ``name`` is the thread name.  It keys the random streams, so the
    Table 2 / Figure 8 measurement loops keep their historical unnamed
    (``""``) thread.  ``report`` files the workload result's
    ``report()`` under that name — the KV service's tail-latency summary.
    ``daemons`` are ``(name, body)`` daemon threads started first, in
    order (a background load the workload runs beside).
    """

    def drive(os: SimOS) -> RunOutcome:
        out: dict = {}
        start = os.sim.now
        for daemon_name, body in daemons:
            os.create_thread(body, name=daemon_name, daemon=True)
        os.create_thread(body_factory(out), name=name)
        os.run_to_completion()
        outcome = RunOutcome(
            workload_result=out.get("result"), elapsed_ns=os.sim.now - start
        )
        if report is not None and outcome.workload_result is not None:
            outcome.reports[report] = outcome.workload_result.report()
        return outcome

    return drive


def drive_crash_check(
    workload_id: str,
    workload_config: Any,
    seed: int,
    crash_plan: "CrashPlan",
    shard: int = 0,
    shards: int = 1,
    mutant: Optional[str] = None,
) -> Drive:
    """Drive a *recoverable* workload under the crash-consistency checker.

    Via :func:`repro.pmem.check_workload`: a persistence domain shadows
    every pmalloc'd line, a :class:`~repro.pmem.crash.CrashInjector`
    enumerates crash points, and recovery is replayed against each
    stored image.  ``shard``/``shards`` split snapshot *storage* (never
    enumeration) for the parallel runner; the result is the ``crash``
    report.
    """

    def drive(os: SimOS) -> RunOutcome:
        from repro.pmem import check_workload

        report, result, elapsed = check_workload(
            os,
            workload_id,
            workload_config,
            crash_plan,
            run_seed=seed,
            shard=shard,
            shards=shards,
            mutant=mutant,
        )
        return RunOutcome(
            workload_result=result,
            elapsed_ns=elapsed,
            reports={"crash": report.to_dict()},
        )

    return drive


def run_testbed(
    arch: ArchSpec,
    drive: Drive,
    seed: int = 0,
    mem_node: Optional[int] = None,
    latency_jitter: bool = True,
    throttle_register: Optional[int] = None,
    quartz_config: Optional[QuartzConfig] = None,
    calibration: Optional[CalibrationData] = None,
    trace_sink: Optional["JsonlTraceWriter"] = None,
    fault_plan: Optional[FaultPlan] = None,
    check_invariants: bool = False,
    dvfs: bool = False,
    **machine_options,
) -> RunOutcome:
    """Build one testbed, attach what is asked for, and *drive* it.

    ``mem_node`` binds memory to a node (``None``: first-touch local);
    ``latency_jitter`` draws per-access DRAM latencies from the measured
    range; ``throttle_register`` programs the node-0 controller before
    the workload starts (Figure 8); ``dvfs`` lets core frequencies wander
    and ``machine_options`` go to :class:`~repro.hw.machine.Machine`.
    ``quartz_config`` attaches Quartz with ``calibration`` (measured on
    first use when omitted), and ``trace_sink`` (a
    :class:`~repro.quartz.trace.JsonlTraceWriter`) streams every closed
    epoch to a JSONL file as the run executes — free in simulated time,
    so tracing never changes results.

    ``fault_plan`` runs the experiment under seeded fault injection;
    ``check_invariants`` attaches an :class:`InvariantMonitor` that
    raises :class:`~repro.errors.InvariantViolation` at the first broken
    runtime invariant.  Both file their reports on the outcome.

    The testbed is closed when the drive returns or raises, after the
    outcome has taken what it reports, so a drive must read everything
    it needs from the run before it returns.
    """
    testbed = Testbed(
        arch, seed, mem_node=mem_node, latency_jitter=latency_jitter, **machine_options
    )
    machine, os = testbed.machine, testbed.os
    engine = None
    try:
        if dvfs:
            machine.dvfs.enable()
        if throttle_register is not None:
            machine.controller(0).program_throttle_register(
                throttle_register, privileged=True
            )
        if fault_plan is not None and not fault_plan.is_empty:
            engine = FaultEngine(fault_plan, run_seed=seed)
            engine.install(machine=machine, os=os)
        monitor = None
        if check_invariants:
            monitor = InvariantMonitor()
            monitor.attach_sim(testbed.sim)
        quartz = None
        if quartz_config is not None:
            calibration = calibration or calibrate_arch(arch)
            if engine is not None:
                # Perturbed calibration models a mis-measured testbed; it
                # must be in place before the emulator derives its model.
                calibration = engine.perturb_calibration(calibration)
            quartz = Quartz(os, quartz_config, calibration=calibration)
            quartz.attach()
            if trace_sink is not None:
                # Local import: repro.quartz.trace imports validation.metrics.
                from repro.quartz.trace import attach_trace

                attach_trace(quartz, sink=trace_sink)
        outcome = drive(os)
        outcome.events = testbed.sim.events_dispatched
        if quartz is not None:
            outcome.quartz_stats = quartz.stats
        if engine is not None:
            outcome.reports["faults"] = engine.report()
        if monitor is not None:
            outcome.reports["invariants"] = monitor.report()
        return outcome
    finally:
        if engine is not None:
            engine.uninstall()  # its subscriber list holds its own methods
        testbed.close()


def run_conf1(
    arch: ArchSpec,
    body_factory: BodyFactory,
    quartz_config: QuartzConfig,
    **options,
) -> RunOutcome:
    """Conf_1: local memory, Quartz emulating the target latency.

    ``options`` are :func:`run_testbed`'s (``seed``, ``calibration``,
    ``trace_sink``, ``fault_plan``, ``check_invariants``).
    """
    return run_testbed(
        arch, drive_body(body_factory), quartz_config=quartz_config, **options
    )


def run_conf2(arch: ArchSpec, body_factory: BodyFactory, **options) -> RunOutcome:
    """Conf_2: memory physically on the remote socket, no emulator."""
    return run_testbed(arch, drive_body(body_factory), mem_node=1, **options)


def run_native(arch: ArchSpec, body_factory: BodyFactory, **options) -> RunOutcome:
    """Local memory, no emulator (the unmodified baseline)."""
    return run_testbed(arch, drive_body(body_factory), **options)


def run_explore(
    arch: ArchSpec,
    workload_id: str,
    workload_config: Any,
    explore_plan: "ExplorePlan",
    shard: int = 0,
    shards: int = 1,
    mutant: Optional[str] = None,
) -> RunOutcome:
    """Model-checking mode: enumerate interleavings x crash points.

    The one mode that builds no testbed: it is not one run but a whole
    exploration.  The :class:`~repro.explore.Explorer` re-executes the
    workload once per schedule on private simulators (no Quartz, no
    latency jitter — scheduling nondeterminism is the subject under
    test, timing emulation is not), so fault plans and invariant
    monitors, which act inside a single simulation, do not apply: the
    runner rejects a fault plan on an explore spec.
    ``shard``/``shards`` partition the schedule tree at its first
    decision point, so shard outcomes merge to the identical whole for
    any job fan-out.
    """
    from repro.explore import Explorer

    explorer = Explorer(
        arch,
        workload_id,
        workload_config,
        plan=explore_plan,
        mutant=mutant,
        shard=shard,
        shards=shards,
    )
    report = explorer.run()
    return RunOutcome(
        workload_result=report.result,
        elapsed_ns=report.elapsed_ns,
        reports={"explore": report.to_dict()},
    )
