"""One testbed lifetime: a closed testbed is freed by reference counting.

Every run builds its Simulator → Machine → SimOS through a
:class:`~repro.os.testbed.Testbed` and closes it once its results are
read.  With the cyclic garbage collector off, nothing of a closed run may
stay reachable: the oracle holds weak references to the three layers.
"""

import weakref

from repro.explore import Explorer, ExplorePlan, LitmusConfig, explorer
from repro.hw import IVY_BRIDGE
from repro.ops import Compute, MemBatch, MutexLock, MutexUnlock, PatternKind
from repro.os import Mutex, Signal
from repro.os.testbed import Testbed as _Testbed  # not a test class
from repro.quartz import calibration


def _layers(testbed):
    return [weakref.ref(layer) for layer in (testbed.sim, testbed.machine, testbed.os)]


def _recording(built):
    """A :class:`Testbed` that files weak references to its layers in *built*."""

    class RecordingTestbed(_Testbed):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(_layers(self))

    return RecordingTestbed


def test_close_frees_a_run_that_left_work_behind(no_cyclic_gc):
    testbed = _Testbed(IVY_BRIDGE, seed=1)
    os = testbed.os
    finalized, handled, seen = [], [], []

    def daemon(ctx):
        region = ctx.malloc(1 << 30)
        try:
            while True:  # a memory flow is in service when the run ends
                yield MemBatch(region, 100_000, PatternKind.SEQUENTIAL)
        finally:
            finalized.append(ctx.thread.name)

    def handler(thread, signal):
        handled.append(os.sim.now)
        yield Compute(10.0)

    def main(ctx):
        lock = Mutex(os)
        yield MutexLock(lock)
        yield Compute(10_000.0)
        yield MutexUnlock(lock)

    os.signal_handlers[10] = handler
    os.hooks.subscribe("op", lambda thread, op: seen.append(os.sim.now))
    os.create_thread(daemon, name="daemon", daemon=True)
    main_thread = os.create_thread(main, name="main")
    testbed.sim.schedule(500.0, lambda: os.post_signal(main_thread, Signal(10)))
    os.run_to_completion()
    testbed.sim.schedule(5.0, lambda: None)  # left queued

    refs = _layers(testbed)
    testbed.close()
    assert handled and seen
    assert finalized == ["daemon"]  # the suspended daemon's finally ran
    assert testbed.sim.events_dispatched > 0  # still readable
    del testbed, os, main_thread
    assert [ref() for ref in refs] == [None, None, None]


def test_close_keeps_core_stats_and_counts_readable():
    stalls = IVY_BRIDGE.counter_events.l2_stalls
    with _Testbed(IVY_BRIDGE, seed=1) as testbed:
        def body(ctx):
            region = ctx.malloc(1 << 30)
            yield MemBatch(region, 10_000, PatternKind.CHASE)

        testbed.os.create_thread(body)
        testbed.os.run_to_completion()
        core = testbed.machine.core(0)
        counted = testbed.machine.pmc(0).true_value(stalls)
    assert core.machine is None
    assert core.stats.busy_ns > 0
    assert counted > 0
    assert testbed.machine.pmc(0).true_value(stalls) == counted


def test_machine_builds_only_the_cores_a_run_uses():
    with _Testbed(IVY_BRIDGE, seed=1) as testbed:
        def body(ctx):
            yield Compute(100.0)

        testbed.os.create_thread(body)
        testbed.os.run_to_completion()
        machine = testbed.machine
        assert [core_id for core_id, core in enumerate(machine._cores) if core] == [0]
        assert not any(machine._pmcs)


def test_an_explorer_execution_frees_its_testbed(monkeypatch, no_cyclic_gc):
    built = []
    monkeypatch.setattr(explorer, "Testbed", _recording(built))
    record = Explorer(
        IVY_BRIDGE, "mutex-log", LitmusConfig(threads=2), ExplorePlan()
    )._execute([])
    assert record.outcome == "completed"
    assert len(built) == 1
    assert [ref() for ref in built[0]] == [None, None, None]


def test_a_calibration_measurement_frees_its_testbed(monkeypatch, no_cyclic_gc):
    built = []
    monkeypatch.setattr(calibration, "Testbed", _recording(built))
    assert calibration._measure_chase_latency(IVY_BRIDGE, 1, 1 << 30, 2_000, seed=0) > 0
    assert calibration._measure_bandwidth(IVY_BRIDGE, 2_000, seed=0) > 0
    assert len(built) == 2
    assert [ref() for refs in built for ref in refs] == [None] * 6


def test_a_pmc_file_built_after_programming_starts_programmed():
    with _Testbed(IVY_BRIDGE, seed=1) as testbed:
        machine = testbed.machine
        events = IVY_BRIDGE.counter_events.all_events()
        machine.program_counters(events, privileged=True)
        assert [core_id for core_id, pmc in enumerate(machine._pmcs) if pmc] == [0]
        assert machine.pmc(17).programmed_events == frozenset(events)
