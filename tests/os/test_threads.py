"""Tests for thread lifecycle, scheduling, and NUMA policy."""

import pytest

from repro.errors import OsError
from repro.hw import IVY_BRIDGE, Machine
from repro.ops import Compute, JoinThread, Sleep, SpawnThread
from repro.os import SimOS
from repro.sim import Simulator


def make_os(arch=IVY_BRIDGE, **kwargs):
    sim = Simulator(seed=1)
    return SimOS(Machine(sim, arch), **kwargs)


def test_simple_thread_runs_and_returns():
    os = make_os()

    def body(ctx):
        yield Compute(2200.0)
        return "done"

    thread = os.create_thread(body, name="worker")
    os.run_to_completion()
    assert thread.finished
    assert thread.result == "done"
    assert os.sim.now == pytest.approx(1000.0)


def test_threads_pinned_to_requested_socket():
    os = make_os()

    def body(ctx):
        yield Compute(1.0)

    t0 = os.create_thread(body, cpu_node=0)
    t1 = os.create_thread(body, cpu_node=1)
    assert t0.socket == 0
    assert t1.socket == 1
    os.run_to_completion()


def test_default_cpu_node_honoured():
    os = make_os(default_cpu_node=1)

    def body(ctx):
        yield Compute(1.0)

    thread = os.create_thread(body)
    assert thread.socket == 1
    os.run_to_completion()


def test_threads_get_distinct_physical_cores_first():
    os = make_os()

    def body(ctx):
        yield Compute(1.0)

    threads = [os.create_thread(body) for _ in range(IVY_BRIDGE.cores_per_socket)]
    physical = {os.machine.physical_core_of(t.core.core_id) for t in threads}
    assert len(physical) == IVY_BRIDGE.cores_per_socket
    os.run_to_completion()


def test_core_exhaustion_raises():
    os = make_os()

    def body(ctx):
        yield Sleep(1e9)

    for _ in range(IVY_BRIDGE.cores_per_socket * IVY_BRIDGE.smt):
        os.create_thread(body, cpu_node=0)
    with pytest.raises(OsError, match="no free logical cores"):
        os.create_thread(body, cpu_node=0)


def test_cores_recycled_after_thread_exit():
    os = make_os()

    def body(ctx):
        yield Compute(1.0)

    total = IVY_BRIDGE.cores_per_socket * IVY_BRIDGE.smt
    for _ in range(total):
        os.create_thread(body, cpu_node=0)
    os.run_to_completion()
    # All cores free again.
    for _ in range(total):
        os.create_thread(body, cpu_node=0)
    os.run_to_completion()


def test_malloc_follows_local_policy_by_default():
    os = make_os()
    seen = {}

    def body(ctx):
        seen["region"] = ctx.malloc(4096)
        yield Compute(1.0)

    os.create_thread(body, cpu_node=1)
    os.run_to_completion()
    assert seen["region"].node == 1


def test_membind_policy_forces_remote_allocation():
    # numactl --cpunodebind=0 --membind=1: validation Conf_2 (Section 4.3).
    os = make_os(default_cpu_node=0, default_mem_node=1)
    seen = {}

    def body(ctx):
        seen["region"] = ctx.malloc(4096)
        yield Compute(1.0)

    thread = os.create_thread(body)
    os.run_to_completion()
    assert thread.socket == 0
    assert seen["region"].node == 1


def test_spawn_and_join_from_within_body():
    os = make_os()
    log = []

    def child(ctx, tag):
        yield Compute(2200.0)
        return f"child-{tag}"

    def parent(ctx):
        t = yield SpawnThread(child, name="kid", args=("a",))
        result = yield JoinThread(t)
        log.append((ctx.now_ns, result))

    os.create_thread(parent)
    os.run_to_completion()
    assert len(log) == 1
    assert log[0][0] == pytest.approx(1000.0)
    assert log[0][1] == "child-a"


def test_join_already_finished_thread():
    os = make_os()

    def child(ctx):
        yield Compute(220.0)
        return 7

    def parent(ctx):
        t = yield SpawnThread(child)
        yield Sleep(10_000.0)
        value = yield JoinThread(t)
        return value

    parent_thread = os.create_thread(parent)
    os.run_to_completion()
    assert parent_thread.result == 7


def test_sleep_duration():
    os = make_os()

    def body(ctx):
        yield Sleep(123_456.0)

    os.create_thread(body)
    os.run_to_completion()
    assert os.sim.now == pytest.approx(123_456.0)


def test_thread_callbacks_fire():
    os = make_os()
    events = []
    os.hooks.subscribe("thread_exit", lambda t: events.append(("finished", t.name)))

    def body(ctx):
        yield Compute(1.0)

    os.create_thread(body, name="observed")
    os.run_to_completion()
    assert events == [("finished", "observed")]


def test_daemon_thread_does_not_block_completion():
    os = make_os()

    def daemon(ctx):
        while True:
            yield Sleep(1000.0)

    def body(ctx):
        yield Compute(2200.0)

    os.create_thread(daemon, name="monitor", daemon=True)
    os.create_thread(body)
    os.run_to_completion()
    assert os.sim.now == pytest.approx(1000.0)


def test_context_rng_streams_are_per_thread():
    os = make_os()
    draws = {}

    def body(ctx, key):
        draws[key] = ctx.rng("data").random()
        yield Compute(1.0)

    os.create_thread(body, args=("a",))
    os.create_thread(body, args=("b",))
    os.run_to_completion()
    assert draws["a"] != draws["b"]
