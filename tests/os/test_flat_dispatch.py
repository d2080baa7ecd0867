"""The flat op step against the generator chain it replaced.

:mod:`tests.os.generator_chain` keeps the old per-op generator chain as a
reference driver.  Each scenario runs once through it and once through
:class:`SimOS`; the two runs must agree on every dispatched event
``(time, seq)``, every op result, every interrupted op's remainder (seen
as the op stream the ``op`` subscribers get), the order of gate,
interposer, observer and handler calls, and the cores' accounting.
"""

import cProfile
import dataclasses
import gc
import pstats

import pytest

from repro.explore import ControlledScheduler
from repro.hw import IVY_BRIDGE, Machine
from repro.hw.topology import PageSize
from repro.ops import (
    BarrierWait,
    Commit,
    Compute,
    Flush,
    FlushOpt,
    JoinThread,
    MemBatch,
    MutexLock,
    MutexUnlock,
    OpResult,
    PatternKind,
    SpawnThread,
    Spin,
)
from repro.os import Barrier, Mutex, SimOS, Signal
from repro.os.thread import SimThread
from repro.quartz import Quartz, QuartzConfig, calibrate_arch
from repro.sim import Simulator
from repro.units import GIB, KIB, MIB

from tests.os.generator_chain import GeneratorChainOS

SIG = 40
SIG2 = 41


def describe(op):
    """An op's type and size, without process-global ids."""
    fields = {
        name: getattr(op, name)
        for name in ("cycles", "duration_ns", "accesses", "lines", "line", "drain_ns")
        if hasattr(op, name)
    }
    return type(op).__name__, tuple(sorted(fields.items()))


def describe_result(result):
    if isinstance(result, OpResult):
        return "result", describe(result.op), result.duration_ns
    if isinstance(result, SimThread):
        return "thread", result.name
    return "value", result


def recorded(log, make_ops):
    """A body yielding *make_ops(ctx)* and logging each op's result."""

    def body(ctx):
        ops = make_ops(ctx)
        result = None
        while True:
            try:
                op = ops.send(result)
            except StopIteration:
                return
            result = yield op
            log.append(("done", ctx.thread.name, ctx.now_ns, describe_result(result)))

    return body


def logging_handler(os, log, *ops):
    def handler(thread, signal):
        log.append(("handler", thread.name, os.sim.now, signal.signum))
        for op in ops:
            yield op

    return handler


def post_every(os, thread, period_ns, until_ns):
    def tick():
        os.post_signal(thread, Signal(SIG))
        if os.sim.now + period_ns < until_ns:
            os.sim.schedule(period_ns, tick)

    os.sim.schedule(period_ns, tick)


def run(os_cls, scenario):
    """Run *scenario* on a fresh stack; return everything observable."""
    sim = Simulator(seed=7)
    machine = Machine(sim, IVY_BRIDGE)
    os = os_cls(machine)
    log = []
    sim.hooks.subscribe(
        "dispatch", lambda event: log.append(("event", event.time, event.seq))
    )
    os.hooks.subscribe(
        "op", lambda thread, op: log.append(("op", thread.name, sim.now, describe(op)))
    )
    scenario(os, log)
    stats = [(t.name, dataclasses.asdict(t.core.stats)) for t in os.threads]
    return log, stats, sim.now, sim.events_dispatched


def core_ops(os, log):
    os.signal_handlers[SIG] = logging_handler(os, log, Compute(440.0), Spin(25.0))

    def ops(ctx):
        big = ctx.malloc(8 * GIB, page_size=PageSize.HUGE_2M)
        small = ctx.malloc(16 * KIB)
        pm = ctx.pmalloc(MIB)
        yield Compute(220_000.0)
        yield Spin(40_000.0)
        yield Flush(pm, lines=500)
        yield MemBatch(big, 1_000, PatternKind.CHASE)
        yield MemBatch(small, 200_000, PatternKind.SEQUENTIAL, stride_bytes=8)

    thread = os.create_thread(recorded(log, ops), name="worker")
    post_every(os, thread, 9_000.0, 420_000.0)
    os.run_to_completion()


def masked_signals(os, log):
    os.signal_handlers[SIG] = logging_handler(os, log, Spin(5_000.0))
    os.signal_handlers[SIG2] = logging_handler(os, log, Compute(1_000.0))
    def ops(ctx):
        yield Compute(2_200_000.0)
        yield Spin(3_000.0)

    thread = os.create_thread(recorded(log, ops), name="worker")
    # The first signal runs the handler; the rest land while it is masked:
    # two SIGs coalesce into one pending delivery beside one SIG2.
    for at, signum in ((100_000.0, SIG), (101_000.0, SIG), (102_000.0, SIG),
                       (103_000.0, SIG2), (1_012_000.0, SIG)):
        os.sim.schedule(
            at, lambda signum=signum: os.post_signal(thread, Signal(signum))
        )
    os.run_to_completion()


def quartz_locks(os, log):
    quartz = Quartz(
        os,
        QuartzConfig(
            nvm_read_latency_ns=400.0, min_epoch_ns=5_000.0, max_epoch_ns=20_000.0
        ),
        calibration=calibrate_arch(IVY_BRIDGE),
    )
    quartz.attach()
    mutex = Mutex(os, name="m")
    barrier = Barrier(os, 2, name="b")

    def ops(ctx):
        region = ctx.malloc(GIB, page_size=PageSize.HUGE_2M)
        for _ in range(6):
            yield MutexLock(mutex)
            yield MemBatch(region, 300, PatternKind.RANDOM)
            yield MutexUnlock(mutex)
            yield Compute(11_000.0)
        yield BarrierWait(barrier)

    for index in range(2):
        os.create_thread(recorded(log, ops), name=f"app{index}")
    os.run_to_completion()


def explore_gates(os, log):
    scheduler = ControlledScheduler(os)

    def gate_log(thread, op):
        log.append(("gate", thread.name, os.sim.now, None if op is None else describe(op)))
        return
        yield  # pragma: no cover - makes this a generator

    os.hooks.subscribe("gate", gate_log)
    mutex = Mutex(os, name="m")

    def child_ops(ctx):
        pm = ctx.pmalloc(MIB, label=f"pm-{ctx.thread.name}")
        yield MutexLock(mutex)
        yield FlushOpt(pm, lines=4)
        yield Commit()
        yield MutexUnlock(mutex)
        yield Flush(pm, lines=2, line=0)

    def parent_ops(ctx):
        child = yield SpawnThread(recorded(log, child_ops), name="child")
        yield from child_ops(ctx)
        yield JoinThread(child)

    os.create_thread(recorded(log, parent_ops), name="parent")
    step = 0
    while scheduler.unfinished():
        os.sim.run()
        enabled = scheduler.enabled()
        if not enabled:
            break
        scheduler.grant(enabled[step % len(enabled)])
        step += 1
    os.sim.run()
    log.append(("granted", scheduler.ops_granted, scheduler.trace_digest()))


def faulted_signals(os, log):
    verdicts = iter([None, "drop", 3_000.0] * 100)
    os.hooks.subscribe("signal", lambda thread, signal: next(verdicts))
    core_ops(os, log)


SCENARIOS = {
    "core-ops": core_ops,
    "masked-signals": masked_signals,
    "quartz-locks": quartz_locks,
    "explore-gates": explore_gates,
    "faulted-signals": faulted_signals,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_flat_step_matches_the_generator_chain(name):
    oracle = run(GeneratorChainOS, SCENARIOS[name])
    flat = run(SimOS, SCENARIOS[name])
    assert flat[0] == oracle[0]
    assert flat[1:] == oracle[1:]


def test_scenarios_reach_the_paths_they_name():
    log = run(SimOS, core_ops)[0]
    handled = [entry for entry in log if entry[0] == "handler"]
    assert len(handled) >= 30
    ops = [entry[3] for entry in log if entry[0] == "op" and entry[1] == "worker"]
    # Every core op kind was cut short at least once: its remainder was
    # dispatched as a smaller op of the same kind.
    for kind in ("Compute", "Spin", "Flush", "MemBatch"):
        assert sum(1 for op in ops if op[0] == kind) >= 3, kind
    big_and_small = {dict(op[1])["accesses"] for op in ops if op[0] == "MemBatch"}
    assert {1_000, 200_000} <= big_and_small

    sim = Simulator(seed=7)
    machine = Machine(sim, IVY_BRIDGE)
    small = machine.allocate(16 * KIB, node=0)
    big = machine.allocate(8 * GIB, node=0, page_size=PageSize.HUGE_2M)
    resolve = machine.cache_model(0).resolve
    # One batch moves through a DRAM flow, the other waits on a timeout.
    assert resolve(MemBatch(big, 1_000, PatternKind.CHASE)).dram_bytes > 0
    assert resolve(
        MemBatch(small, 200_000, PatternKind.SEQUENTIAL, stride_bytes=8)
    ).dram_bytes == 0

    masked = run(SimOS, masked_signals)[0]
    assert [entry[3] for entry in masked if entry[0] == "handler"] == [
        SIG, SIG, SIG2, SIG
    ]

    faulted = run(SimOS, faulted_signals)[0]
    assert 0 < len([e for e in faulted if e[0] == "handler"]) < len(handled)

    gated = run(SimOS, explore_gates)[0]
    assert len([entry for entry in gated if entry[0] == "gate"]) >= 10

    # The monitor's epoch signals cut the application's ops short.
    quartz_stats = dict(run(SimOS, quartz_locks)[1])
    assert quartz_stats["app0"]["interrupts_taken"] > 0


def test_dispatch_count_does_not_depend_on_garbage_collection():
    """``os.ops_dispatched`` counts ops, not generator resumes.

    The Quartz monitor is still parked in ``Sleep`` when the run ends.
    Collecting the finished run closes its generators; no ``_dispatch``
    frame may be among them, or the profiled count would depend on when
    the collector runs.
    """
    calibration = calibrate_arch(IVY_BRIDGE)

    def scenario():
        sim = Simulator(seed=3)
        os = SimOS(Machine(sim, IVY_BRIDGE))
        Quartz(os, QuartzConfig(nvm_read_latency_ns=400.0), calibration=calibration).attach()

        def body(ctx):
            region = ctx.malloc(GIB, page_size=PageSize.HUGE_2M)
            for _ in range(20):
                yield MemBatch(region, 2_000, PatternKind.RANDOM)
                yield Compute(50_000.0)

        os.create_thread(body)
        os.run_to_completion()

    def dispatches(collect):
        profiler = cProfile.Profile()
        if not collect:
            gc.disable()
        try:
            profiler.enable()
            scenario()
            if collect:
                gc.collect()
            profiler.disable()
        finally:
            gc.enable()
        return sum(
            row[1]
            for (path, _, name), row in pstats.Stats(profiler).stats.items()
            if name == "_dispatch" and path.endswith("system.py")
        )

    without_gc = dispatches(False)
    gc.collect()
    assert dispatches(True) == without_gc > 0
