"""The validation testbed configurations of Section 4.3 (Figure 10).

* :func:`run_conf1` — computation and memory on socket 0, Quartz attached
  and emulating a higher latency (Figure 10a);
* :func:`run_conf2` — computation on socket 0, memory physically bound to
  socket 1 with the numactl analogue, **no emulator** (Figure 10b);
* :func:`run_native` — computation and memory on socket 0, no emulator
  (the "no emulation" baseline of Figure 13).

Each run builds a fresh machine (caches cold, counters zeroed — the
paper's "invalidate caches between runs"), drives the workload's main
body to completion, and returns the workload result plus emulator
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.faults.engine import FaultEngine
from repro.faults.invariants import InvariantMonitor
from repro.faults.plan import FaultPlan
from repro.hw.arch import ArchSpec
from repro.hw.machine import Machine
from repro.os.system import SimOS
from repro.quartz.calibration import CalibrationData, calibrate_arch
from repro.quartz.config import QuartzConfig
from repro.quartz.emulator import Quartz
from repro.quartz.stats import QuartzStats
from repro.sim import Simulator

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
    machine: Optional[Machine] = None
    #: :meth:`FaultEngine.report` of a faulted run (None when clean).
    fault_report: Optional[dict] = None
    #: :meth:`InvariantMonitor.report` when ``check_invariants`` was set.
    invariant_report: Optional[dict] = None
    #: :meth:`~repro.pmem.checker.CrashCheckReport.to_dict` of a
    #: crash-checked run (None otherwise).
    crash_report: Optional[dict] = None
    #: :meth:`~repro.explore.ExploreReport.to_dict` of a model-checking
    #: run (None otherwise).
    explore_report: Optional[dict] = None
    #: :meth:`~repro.service.kvservice.ServiceResult.report` of a KV
    #: service run (None otherwise).
    service_report: Optional[dict] = None


def _fault_setup(
    machine: Machine,
    os: SimOS,
    seed: int,
    fault_plan: Optional[FaultPlan],
    check_invariants: bool,
) -> tuple[Optional[FaultEngine], Optional[InvariantMonitor]]:
    """Install the run's fault engine and/or invariant monitor (if any)."""
    engine = None
    if fault_plan is not None and not fault_plan.is_empty:
        engine = FaultEngine(fault_plan, run_seed=seed)
        engine.install(machine=machine, os=os)
    monitor = None
    if check_invariants:
        monitor = InvariantMonitor()
        monitor.attach_sim(machine.sim)
    return engine, monitor


def _fault_finish(
    outcome: "RunOutcome",
    engine: Optional[FaultEngine],
    monitor: Optional[InvariantMonitor],
) -> RunOutcome:
    if engine is not None:
        outcome.fault_report = engine.report()
    if monitor is not None:
        outcome.invariant_report = monitor.report()
    return outcome


BodyFactory = Callable[[dict], Callable]


def _attach_emulator(
    os: SimOS,
    quartz_config: QuartzConfig,
    calibration: Optional[CalibrationData],
    engine: Optional[FaultEngine],
    trace_sink: Optional["JsonlTraceWriter"],
) -> Quartz:
    """Attach Quartz to a Conf_1 testbed, with its epoch trace if asked."""
    calibration = calibration or calibrate_arch(os.machine.arch)
    if engine is not None:
        # Perturbed calibration models a mis-measured testbed; it must be
        # in place before the emulator derives its latency model from it.
        calibration = engine.perturb_calibration(calibration)
    quartz = Quartz(os, quartz_config, calibration=calibration)
    quartz.attach()
    if trace_sink is not None:
        # Local import: repro.quartz.trace imports validation.metrics.
        from repro.quartz.trace import attach_trace

        attach_trace(quartz, sink=trace_sink)
    return quartz


def _drive(os: SimOS, body_factory: BodyFactory) -> RunOutcome:
    out: dict = {}
    start = os.sim.now
    os.create_thread(body_factory(out), name="main")
    os.run_to_completion()
    return RunOutcome(
        workload_result=out.get("result"),
        elapsed_ns=os.sim.now - start,
        machine=os.machine,
    )


def run_conf1(
    arch: ArchSpec,
    body_factory: BodyFactory,
    quartz_config: QuartzConfig,
    seed: int = 0,
    calibration: Optional[CalibrationData] = None,
    trace_sink: Optional["JsonlTraceWriter"] = None,
    fault_plan: Optional[FaultPlan] = None,
    check_invariants: bool = False,
) -> RunOutcome:
    """Conf_1: local memory, Quartz emulating the target latency.

    ``trace_sink`` (a :class:`~repro.quartz.trace.JsonlTraceWriter`)
    streams every closed epoch to a JSONL file as the run executes —
    the CLI's ``--trace-out`` plumbing.  Tracing never changes results
    (it is free in simulated time).

    ``fault_plan`` runs the experiment under seeded fault injection;
    ``check_invariants`` attaches an :class:`InvariantMonitor` that
    raises :class:`~repro.errors.InvariantViolation` at the first broken
    runtime invariant.  Both are recorded on the outcome.
    """
    sim = Simulator(seed=seed)
    machine = Machine(sim, arch, latency_jitter=True)
    os = SimOS(machine, default_cpu_node=0)
    engine, monitor = _fault_setup(machine, os, seed, fault_plan, check_invariants)
    quartz = _attach_emulator(os, quartz_config, calibration, engine, trace_sink)
    outcome = _drive(os, body_factory)
    outcome.quartz_stats = quartz.stats
    return _fault_finish(outcome, engine, monitor)


def run_service(
    arch: ArchSpec,
    body_factory: BodyFactory,
    quartz_config: QuartzConfig,
    seed: int = 0,
    calibration: Optional[CalibrationData] = None,
    trace_sink: Optional["JsonlTraceWriter"] = None,
    fault_plan: Optional[FaultPlan] = None,
    check_invariants: bool = False,
) -> RunOutcome:
    """Conf_1 driving the multi-tenant KV service.

    Identical machine setup to :func:`run_conf1` (local memory, Quartz
    emulating the target latency, the same ``trace_sink``); the only
    difference is the outcome's ``service_report`` — the per-tenant
    tail-latency/throughput/cache summary of :class:`~repro.service.kvservice.ServiceResult`.  The
    service body runs its DRAM-cache accounting conservation check on
    every completion path, so a faulted run that corrupts cache
    bookkeeping surfaces as an :class:`~repro.errors.InvariantViolation`
    here, not as silently wrong tails.
    """
    sim = Simulator(seed=seed)
    machine = Machine(sim, arch, latency_jitter=True)
    os = SimOS(machine, default_cpu_node=0)
    engine, monitor = _fault_setup(machine, os, seed, fault_plan, check_invariants)
    quartz = _attach_emulator(os, quartz_config, calibration, engine, trace_sink)
    outcome = _drive(os, body_factory)
    outcome.quartz_stats = quartz.stats
    if outcome.workload_result is not None:
        outcome.service_report = outcome.workload_result.report()
    return _fault_finish(outcome, engine, monitor)


def run_crash(
    arch: ArchSpec,
    workload_id: str,
    workload_config: Any,
    quartz_config: QuartzConfig,
    crash_plan: "CrashPlan",
    seed: int = 0,
    calibration: Optional[CalibrationData] = None,
    shard: int = 0,
    shards: int = 1,
    mutant: Optional[str] = None,
    trace_sink: Optional["JsonlTraceWriter"] = None,
    fault_plan: Optional[FaultPlan] = None,
    check_invariants: bool = False,
) -> RunOutcome:
    """Conf_1 with the crash-consistency checker attached.

    Builds the same machine as :func:`run_conf1` (local memory, Quartz
    emulating the target, the same ``trace_sink``), then drives a
    *recoverable* workload via :func:`repro.pmem.check_workload`: a
    persistence domain shadows every pmalloc'd line, a
    :class:`~repro.pmem.crash.CrashInjector` enumerates
    crash points, and recovery is replayed against each stored image.
    ``shard``/``shards`` split snapshot *storage* (never enumeration)
    for the parallel runner; the result lands in ``crash_report``.
    """
    from repro.pmem import check_workload

    sim = Simulator(seed=seed)
    machine = Machine(sim, arch, latency_jitter=True)
    os = SimOS(machine, default_cpu_node=0)
    engine, monitor = _fault_setup(machine, os, seed, fault_plan, check_invariants)
    quartz = _attach_emulator(os, quartz_config, calibration, engine, trace_sink)
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
    outcome = RunOutcome(
        workload_result=result,
        elapsed_ns=elapsed,
        machine=machine,
        crash_report=report.to_dict(),
    )
    outcome.quartz_stats = quartz.stats
    return _fault_finish(outcome, engine, monitor)


def run_explore(
    arch: ArchSpec,
    workload_id: str,
    workload_config: Any,
    explore_plan: "ExplorePlan",
    seed: int = 0,
    shard: int = 0,
    shards: int = 1,
    mutant: Optional[str] = None,
    fault_plan: Optional[FaultPlan] = None,
    check_invariants: bool = False,
) -> RunOutcome:
    """Model-checking mode: enumerate interleavings x crash points.

    Unlike the other configurations this is not one run but a whole
    exploration: the :class:`~repro.explore.Explorer` re-executes the
    workload once per schedule on private simulators (no Quartz, no
    latency jitter — scheduling nondeterminism is the subject under
    test, timing emulation is not).  ``shard``/``shards`` partition the
    schedule tree at its first decision point, so shard outcomes merge
    to the identical whole for any job fan-out.

    ``fault_plan``/``check_invariants`` are accepted for runner-protocol
    compatibility and ignored: fault injection perturbs timing inside a
    single simulation, while exploration owns its internal simulators
    end to end.
    """
    del fault_plan, check_invariants  # exploration owns its simulators
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
        machine=None,
        explore_report=report.to_dict(),
    )


def run_conf2(
    arch: ArchSpec,
    body_factory: BodyFactory,
    seed: int = 0,
    fault_plan: Optional[FaultPlan] = None,
    check_invariants: bool = False,
) -> RunOutcome:
    """Conf_2: memory physically on the remote socket, no emulator."""
    sim = Simulator(seed=seed)
    machine = Machine(sim, arch, latency_jitter=True)
    os = SimOS(machine, default_cpu_node=0, default_mem_node=1)
    engine, monitor = _fault_setup(machine, os, seed, fault_plan, check_invariants)
    return _fault_finish(_drive(os, body_factory), engine, monitor)


def run_native(
    arch: ArchSpec,
    body_factory: BodyFactory,
    seed: int = 0,
    fault_plan: Optional[FaultPlan] = None,
    check_invariants: bool = False,
) -> RunOutcome:
    """Local memory, no emulator (the unmodified baseline)."""
    sim = Simulator(seed=seed)
    machine = Machine(sim, arch, latency_jitter=True)
    os = SimOS(machine, default_cpu_node=0)
    engine, monitor = _fault_setup(machine, os, seed, fault_plan, check_invariants)
    return _fault_finish(_drive(os, body_factory), engine, monitor)


def _drive_default_thread(os: SimOS, body_factory: BodyFactory) -> RunOutcome:
    """Like :func:`_drive` but with the OS-assigned thread name.

    The Table 2 / Figure 8 measurement loops predate the Conf_1/Conf_2
    helpers and create their thread unnamed; thread names key the random
    streams, so the distinction is load-bearing for reproducibility.
    """
    out: dict = {}
    start = os.sim.now
    os.create_thread(body_factory(out))
    os.run_to_completion()
    return RunOutcome(
        workload_result=out.get("result"),
        elapsed_ns=os.sim.now - start,
        machine=os.machine,
    )


def run_chase(
    arch: ArchSpec,
    body_factory: BodyFactory,
    seed: int = 0,
    mem_node: int = 0,
    fault_plan: Optional[FaultPlan] = None,
    check_invariants: bool = False,
) -> RunOutcome:
    """Raw latency measurement: memory bound to *mem_node*, no emulator.

    The Table 2 configuration — node 0 gives the local-DRAM row, node 1
    the remote one.
    """
    sim = Simulator(seed=seed)
    machine = Machine(sim, arch, latency_jitter=True)
    os = SimOS(machine, default_cpu_node=0, default_mem_node=mem_node)
    engine, monitor = _fault_setup(machine, os, seed, fault_plan, check_invariants)
    return _fault_finish(_drive_default_thread(os, body_factory), engine, monitor)


def run_throttled(
    arch: ArchSpec,
    body_factory: BodyFactory,
    seed: int = 0,
    register: int = 0,
    fault_plan: Optional[FaultPlan] = None,
    check_invariants: bool = False,
) -> RunOutcome:
    """Bandwidth measurement under one thermal-throttle register setting.

    The Figure 8 configuration: no latency jitter, no emulator, the
    node-0 controller programmed before the workload starts.
    """
    sim = Simulator(seed=seed)
    machine = Machine(sim, arch)
    machine.controller(0).program_throttle_register(register, privileged=True)
    os = SimOS(machine, default_cpu_node=0)
    engine, monitor = _fault_setup(machine, os, seed, fault_plan, check_invariants)
    return _fault_finish(_drive_default_thread(os, body_factory), engine, monitor)
