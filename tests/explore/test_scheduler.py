"""Unit tests of the controlled scheduler and its independence relation."""

import pytest

from repro.errors import WorkloadError
from repro.explore import (
    ControlledScheduler,
    boundary_footprint,
    describe_boundary,
    independent,
)
from repro.explore.scheduler import GLOBAL, PERSIST, START, SYNC
from repro.hw import IVY_BRIDGE
from repro.hw.machine import Machine
from repro.hw.topology import PageSize
from repro.ops import Commit, JoinThread, MutexLock, MutexUnlock, SpawnThread
from repro.os.sync import Mutex
from repro.os.system import SimOS
from repro.sim import Simulator
from repro.units import MIB


def _os():
    sim = Simulator(seed=1)
    machine = Machine(sim, IVY_BRIDGE, latency_jitter=False)
    return SimOS(machine, default_cpu_node=0)


# ----------------------------------------------------------------------
# Footprints and independence
# ----------------------------------------------------------------------
def test_footprints_classify_ops():
    os = _os()
    mutex_a = Mutex(os, name="a")
    mutex_b = Mutex(os, name="b")
    lock_a = boundary_footprint(MutexLock(mutex_a))
    unlock_a = boundary_footprint(MutexUnlock(mutex_a))
    lock_b = boundary_footprint(MutexLock(mutex_b))
    assert lock_a[0] == SYNC and lock_a == unlock_a
    assert boundary_footprint(None) == (START, ())
    assert boundary_footprint(Commit())[0] == PERSIST
    assert boundary_footprint(SpawnThread(lambda ctx: iter(())))[0] == GLOBAL

    # Same mutex: dependent.  Different mutexes: independent.
    assert not independent(lock_a, unlock_a)
    assert independent(lock_a, lock_b)
    # Persists never commute (crash images see the global persist order).
    assert not independent(
        boundary_footprint(Commit()), boundary_footprint(Commit())
    )
    # Spawn/join are dependent with everything.
    spawn = boundary_footprint(SpawnThread(lambda ctx: iter(())))
    assert not independent(spawn, lock_a)
    assert not independent(spawn, boundary_footprint(None))
    # Thread starts are independent of unrelated sync ops.
    assert independent(boundary_footprint(None), lock_a)


def test_describe_boundary_labels():
    os = _os()
    mutex = Mutex(os, name="m")
    assert describe_boundary(MutexLock(mutex)) == "lock:m"
    assert describe_boundary(MutexUnlock(mutex)) == "unlock:m"
    assert describe_boundary(Commit()) == "commit"
    assert describe_boundary(None) == "start"


def test_unknown_boundary_op_is_rejected():
    with pytest.raises(WorkloadError):
        boundary_footprint(object())


# ----------------------------------------------------------------------
# Gate mechanics
# ----------------------------------------------------------------------
def test_scheduler_parks_and_grants_threads():
    os = _os()
    scheduler = ControlledScheduler(os)
    mutex = Mutex(os, name="m")
    order = []

    def worker(ctx, tag):
        yield MutexLock(mutex)
        order.append(tag)
        yield MutexUnlock(mutex)

    def main(ctx):
        first = yield SpawnThread(worker, name="w0", args=("w0",))
        second = yield SpawnThread(worker, name="w1", args=("w1",))
        yield JoinThread(first)
        yield JoinThread(second)

    os.create_thread(main, name="main")
    # Steer w1 into the critical section first: hold every MutexLock
    # grant until both workers are parked at it, then release w1's.
    granted = 0
    steered = False
    while True:
        os.sim.run()
        if not scheduler.unfinished():
            break
        candidates = scheduler.enabled()
        assert candidates, f"deadlock: {scheduler.blocked_summary()}"
        at_lock = [
            entry for entry in candidates if type(entry.op) is MutexLock
        ]
        if not steered and len(at_lock) == 2:
            entry = next(e for e in at_lock if e.thread.name == "w1")
            steered = True
        elif not steered and at_lock and len(candidates) > len(at_lock):
            entry = next(
                e for e in candidates if type(e.op) is not MutexLock
            )
        else:
            entry = candidates[0]
        granted += 1
        scheduler.grant(entry)
    assert steered
    assert order == ["w1", "w0"]
    assert scheduler.ops_granted == granted
    # Every granted boundary op was observed by the trace digest; the
    # three thread-start gates (main, w0, w1) are grants without ops.
    assert scheduler.ops_granted == scheduler.ops_observed + 3


def test_lock_enabledness_tracks_owner():
    os = _os()
    scheduler = ControlledScheduler(os)
    mutex = Mutex(os, name="m")

    def holder(ctx):
        yield MutexLock(mutex)
        yield MutexUnlock(mutex)

    def contender(ctx):
        yield MutexLock(mutex)
        yield MutexUnlock(mutex)

    def main(ctx):
        a = yield SpawnThread(holder, name="holder")
        b = yield SpawnThread(contender, name="contender")
        yield JoinThread(a)
        yield JoinThread(b)

    os.create_thread(main, name="main")
    # Drive until both workers are parked at their MutexLock ops,
    # granting only non-lock boundaries on the way there.
    while True:
        os.sim.run()
        at_lock = {
            entry.thread.name
            for entry in scheduler._parked.values()
            if type(entry.op) is MutexLock
        }
        if at_lock == {"holder", "contender"}:
            break
        non_lock = [
            entry
            for entry in scheduler.enabled()
            if type(entry.op) is not MutexLock
        ]
        assert non_lock, f"stuck: {scheduler.blocked_summary()}"
        scheduler.grant(non_lock[0])
    # Grant the holder's lock: the contender's acquire becomes disabled.
    holder_entry = next(
        entry
        for entry in scheduler.enabled()
        if entry.thread.name == "holder"
    )
    scheduler.grant(holder_entry)
    os.sim.run()
    assert mutex.owner is not None
    enabled_names = {entry.thread.name for entry in scheduler.enabled()}
    assert "contender" not in enabled_names
    assert scheduler.parked_count() >= 1


def test_double_gate_install_is_rejected():
    os = _os()
    ControlledScheduler(os)
    with pytest.raises(WorkloadError):
        ControlledScheduler(os)


def test_observer_chains_to_prior_dispatch_observer():
    os = _os()
    seen = []
    os.hooks.subscribe("op", lambda thread, op: seen.append(type(op)))
    scheduler = ControlledScheduler(os)

    def main(ctx):
        region = ctx.pmalloc(MIB, page_size=PageSize.HUGE_2M, label="pm")
        yield from ctx.pflush(region, lines=1, line=0)

    os.create_thread(main, name="main")
    while True:
        os.sim.run()
        if not scheduler.unfinished():
            break
        candidates = scheduler.enabled()
        assert candidates
        scheduler.grant(candidates[0])
    assert seen, "earlier op subscriber never fired"
    assert scheduler.ops_observed == len(seen)
