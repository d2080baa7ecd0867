"""Tests for signal posting, delivery, masking, and interposition."""

import pytest

from repro.errors import OsError
from repro.hw import IVY_BRIDGE, Machine
from repro.hw.topology import PageSize
from repro.ops import (
    Commit,
    Compute,
    Flush,
    FlushOpt,
    MemBatch,
    MutexLock,
    MutexUnlock,
    PatternKind,
    Sleep,
    Spin,
)
from repro.os import ORIGINAL, Mutex, SimOS, Signal
from repro.pmem import PersistenceDomain
from repro.sim import Simulator
from repro.units import GIB, MIB

SIGTEST = 40


def make_os():
    sim = Simulator(seed=1)
    return SimOS(Machine(sim, IVY_BRIDGE))


def test_signal_interrupts_compute_and_runs_handler():
    os = make_os()
    log = []

    def handler(thread, signal):
        log.append(("handler", os.sim.now, signal.signum))
        yield Spin(100.0)

    os.signal_handlers[SIGTEST] = handler

    def body(ctx):
        yield Compute(2_200_000.0)  # 1 ms
        log.append(("done", ctx.now_ns))

    thread = os.create_thread(body)
    os.sim.schedule(400_000.0, lambda: os.post_signal(thread, Signal(SIGTEST)))
    os.run_to_completion()
    assert log[0] == ("handler", 400_000.0, SIGTEST)
    # Total time: 1 ms of compute + 100 ns handler spin.
    assert log[1][1] == pytest.approx(1_000_100.0)


def test_signal_interrupts_memory_batch_with_partial_progress():
    os = make_os()
    hits = []

    def handler(thread, signal):
        hits.append(os.sim.now)
        return
        yield  # pragma: no cover - makes this a generator

    os.signal_handlers[SIGTEST] = handler

    def body(ctx):
        region = ctx.malloc(8 * GIB, page_size=PageSize.HUGE_2M)
        yield MemBatch(region, 10_000, PatternKind.CHASE)

    thread = os.create_thread(body)
    os.sim.schedule(100_000.0, lambda: os.post_signal(thread, Signal(SIGTEST)))
    os.run_to_completion()
    assert hits == [100_000.0]
    # Batch still completes in (roughly) full time + nothing extra.
    assert os.sim.now == pytest.approx(10_000 * 87.0, rel=0.02)


def run_flushopt_commit(signal_at=None):
    """FlushOpt of 4000 lines, then Commit; optionally signalled once.

    On Ivy Bridge the issue takes 9,090.9 ns and the drain 87 ns, so a
    signal at 5,000 ns lands in the issue and one at 9,120 ns in the drain.
    """
    os = make_os()
    domain = PersistenceDomain()
    domain.install(os.hooks)
    handled, posted = [], []

    def handler(thread, signal):
        handled.append(os.sim.now)
        yield Compute(2_200.0)  # 1,000 ns

    os.signal_handlers[SIGTEST] = handler

    def body(ctx):
        region = ctx.pmalloc(MIB, label="log")
        for line in range(4000):
            domain.record(region, line, line)
        yield FlushOpt(region, lines=4000)
        posted.append(len(ctx.thread.outstanding_flushes))
        yield Commit()
        return ctx.now_ns

    thread = os.create_thread(body)
    if signal_at is not None:
        os.sim.schedule(signal_at, lambda: os.post_signal(thread, Signal(SIGTEST)))
    os.run_to_completion()
    return os, thread, domain, handled, posted


@pytest.mark.parametrize("signal_at", [5_000.0, 9_120.0])
def test_signal_during_flushopt_issue_or_commit_drain(signal_at):
    clean_os, clean, _, _, _ = run_flushopt_commit()
    os, thread, domain, handled, posted = run_flushopt_commit(signal_at)
    assert handled == [signal_at]
    assert posted == [1]  # one writeback completion for the one FlushOpt
    assert thread.finished
    # The handler's 1,000 ns is added; the rest of the issue or drain
    # resumes after it, so the commit still waits out every flush.
    assert thread.result == pytest.approx(clean.result + 1_000.0, abs=1e-6)
    assert clean.result == pytest.approx(4000 * 5 / 2.2 + 87.0, abs=1e-6)
    assert thread.outstanding_flushes == []
    # Every line was posted once and persisted by the one commit.
    stats = domain.stats()
    assert stats["flushes_seen"] == 1 and stats["commits_seen"] == 1
    assert stats["lines_posted"] == stats["lines_persisted"] == 4000
    assert stats["posted_lines"] == stats["dirty_lines"] == 0
    served = clean_os.machine.controller(0).total_bytes_served
    assert os.machine.controller(0).total_bytes_served == served == 4000 * 64
    assert thread.core.stats.interrupts_taken == 1


def test_signal_queued_while_masked_and_delivered_after():
    os = make_os()
    log = []

    def handler(thread, signal):
        log.append(("handler", os.sim.now))
        yield Spin(1000.0)  # long handler; more signals arrive meanwhile

    os.signal_handlers[SIGTEST] = handler

    def body(ctx):
        yield Compute(22_000.0)  # 10 us

    thread = os.create_thread(body)
    os.sim.schedule(1_000.0, lambda: os.post_signal(thread, Signal(SIGTEST)))
    # Two more while the handler is running: POSIX pending-signal
    # semantics coalesce them into a single extra delivery.
    os.sim.schedule(1_500.0, lambda: os.post_signal(thread, Signal(SIGTEST)))
    os.sim.schedule(1_600.0, lambda: os.post_signal(thread, Signal(SIGTEST)))
    os.run_to_completion()
    assert len(log) == 2
    # Second delivery strictly after the first handler finished.
    assert log[1][1] >= log[0][1] + 1000.0


def test_distinct_signals_do_not_coalesce():
    os = make_os()
    log = []

    def handler(thread, signal):
        log.append(signal.signum)
        yield Spin(1000.0)

    os.signal_handlers[SIGTEST] = handler
    os.signal_handlers[SIGTEST + 1] = handler

    def body(ctx):
        yield Compute(22_000.0)

    thread = os.create_thread(body)
    os.sim.schedule(1_000.0, lambda: os.post_signal(thread, Signal(SIGTEST)))
    os.sim.schedule(1_500.0, lambda: os.post_signal(thread, Signal(SIGTEST + 1)))
    os.run_to_completion()
    assert sorted(log) == [SIGTEST, SIGTEST + 1]


def test_signal_to_finished_thread_returns_false():
    os = make_os()

    def body(ctx):
        yield Compute(1.0)

    thread = os.create_thread(body)
    os.run_to_completion()
    assert os.post_signal(thread, Signal(SIGTEST)) is False


def test_unhandled_signal_is_ignored():
    os = make_os()

    def body(ctx):
        yield Compute(22_000.0)

    thread = os.create_thread(body)
    os.sim.schedule(100.0, lambda: os.post_signal(thread, Signal(63)))
    os.run_to_completion()
    assert os.sim.now == pytest.approx(10_000.0)


def test_signal_during_mutex_wait_preserves_correctness():
    os = make_os()
    mutex = Mutex(os)
    log = []

    def handler(thread, signal):
        log.append(("handler", thread.name))
        yield Spin(10.0)

    os.signal_handlers[SIGTEST] = handler

    def holder(ctx):
        yield MutexLock(mutex)
        yield Compute(220_000.0)  # 100 us
        yield MutexUnlock(mutex)

    def waiter(ctx):
        yield Sleep(10.0)
        yield MutexLock(mutex)
        log.append(("acquired", ctx.now_ns))
        yield MutexUnlock(mutex)

    os.create_thread(holder, name="holder")
    waiter_thread = os.create_thread(waiter, name="waiter")
    os.sim.schedule(50_000.0, lambda: os.post_signal(waiter_thread, Signal(SIGTEST)))
    os.run_to_completion()
    assert ("handler", "waiter") in log
    acquired = [entry for entry in log if entry[0] == "acquired"]
    assert acquired and acquired[0][1] == pytest.approx(100_000.0, rel=1e-6)


def test_signal_during_sleep_extends_to_full_duration():
    os = make_os()

    def handler(thread, signal):
        yield Spin(0.0)

    os.signal_handlers[SIGTEST] = handler

    def body(ctx):
        yield Sleep(100_000.0)

    thread = os.create_thread(body)
    os.sim.schedule(30_000.0, lambda: os.post_signal(thread, Signal(SIGTEST)))
    os.run_to_completion()
    assert os.sim.now == pytest.approx(100_000.0)


def test_invalid_signal_number_rejected():
    with pytest.raises(OsError):
        Signal(0)
    with pytest.raises(OsError):
        Signal(65)


# ----------------------------------------------------------------------
# Interposition
# ----------------------------------------------------------------------
def test_unlock_interposer_runs_before_release():
    os = make_os()
    mutex = Mutex(os)
    trace = []

    def unlock_hook(sim_os, thread, op):
        trace.append(("hook-before", sim_os.sim.now))
        yield Spin(5000.0)  # Quartz-style pre-release delay
        result = yield ORIGINAL
        trace.append(("hook-after", sim_os.sim.now))
        return result

    os.interpose.register_op_hook("pthread_mutex_unlock", unlock_hook)

    def holder(ctx):
        yield MutexLock(mutex)
        yield Compute(2200.0)
        yield MutexUnlock(mutex)

    def waiter(ctx):
        yield Sleep(10.0)
        yield MutexLock(mutex)
        trace.append(("waiter-acquired", ctx.now_ns))
        yield MutexUnlock(mutex)

    os.create_thread(holder)
    os.create_thread(waiter)
    os.run_to_completion()
    acquired = [t for t in trace if t[0] == "waiter-acquired"][0]
    # The waiter had to absorb the holder's 5000 ns pre-release spin.
    assert acquired[1] >= 1000.0 + 5000.0


def test_spawn_interposer_observes_new_threads():
    os = make_os()
    registered = []

    def create_hook(sim_os, thread, op):
        new_thread = yield ORIGINAL
        registered.append(new_thread.name)
        return new_thread

    os.interpose.register_op_hook("pthread_create", create_hook)

    def child(ctx):
        yield Compute(1.0)

    def parent(ctx):
        from repro.ops import SpawnThread

        yield SpawnThread(child, name="registered-child")

    os.create_thread(parent)
    os.run_to_completion()
    assert registered == ["registered-child"]


def test_thread_begin_hook_runs_first():
    os = make_os()
    trace = []

    def begin_hook(sim_os, thread, op):
        trace.append(("begin", thread.name))
        yield Compute(2200.0)

    os.interpose.register_op_hook("thread_begin", begin_hook)

    def body(ctx):
        trace.append(("body", ctx.now_ns))
        yield Compute(1.0)

    os.create_thread(body, name="t")
    os.run_to_completion()
    assert trace[0] == ("begin", "t")
    assert trace[1][1] == pytest.approx(1000.0)  # body starts after hook


def test_pflush_hook_appends_write_delay():
    os = make_os()

    def pflush_hook(sim_os, thread, op):
        result = yield ORIGINAL
        yield Spin(500.0)  # emulated NVM write latency
        return result

    os.interpose.register_op_hook("pflush", pflush_hook)

    def body(ctx):
        region = ctx.pmalloc(MIB)
        yield from ctx.pflush(region, lines=1)

    os.create_thread(body)
    os.run_to_completion()
    assert os.sim.now == pytest.approx(87.0 + 500.0)


def test_pflush_without_hook_is_bare_clflush():
    os = make_os()

    def body(ctx):
        region = ctx.pmalloc(MIB)
        yield from ctx.pflush(region, lines=2)

    os.create_thread(body)
    os.run_to_completion()
    assert os.sim.now == pytest.approx(2 * 87.0)


def test_pmalloc_sync_hook_redirects_allocation():
    os = make_os()

    def pmalloc_hook(thread, size, page_size, label):
        return os.machine.allocate(
            size, node=1, page_size=page_size, label="virtual-nvm", persistent=True
        )

    os.interpose.register_sync_hook("pmalloc", pmalloc_hook)
    seen = {}

    def body(ctx):
        seen["region"] = ctx.pmalloc(MIB)
        yield Compute(1.0)

    os.create_thread(body, cpu_node=0)
    os.run_to_completion()
    assert seen["region"].node == 1
    assert seen["region"].persistent


def test_duplicate_interposer_rejected():
    os = make_os()

    def hook(sim_os, thread, op):
        yield ORIGINAL

    os.interpose.register_op_hook("pthread_mutex_unlock", hook)
    with pytest.raises(OsError, match="already interposed"):
        os.interpose.register_op_hook("pthread_mutex_unlock", hook)


def test_unknown_interposition_symbol_rejected():
    os = make_os()
    with pytest.raises(OsError, match="no interposition point"):
        os.interpose.register_op_hook("memcpy", lambda *a: None)
