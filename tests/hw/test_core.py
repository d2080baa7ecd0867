"""Tests for the core execution engine."""

from types import SimpleNamespace

import pytest

from repro.errors import HardwareError
from repro.hw import IVY_BRIDGE, Machine
from repro.hw.memory import THROTTLE_REGISTER_MAX
from repro.hw.topology import PageSize
from repro.ops import (
    Commit, Compute, Flush, FlushOpt, MemBatch, Op, PatternKind, Spin,
)
from repro.sim import Interrupt, Simulator
from repro.units import GIB, MIB


def make_machine(arch=IVY_BRIDGE, seed=1):
    sim = Simulator(seed=seed)
    return Machine(sim, arch)


def fake_thread():
    return SimpleNamespace(outstanding_flushes=[])


def run_op(machine, op, core_id=0, interrupt_at=None, thread=None):
    """Drive one op to completion; returns (result, interruption, duration)."""
    core = machine.core(core_id)
    thread = thread or fake_thread()
    outcome = {}
    start = machine.sim.now

    def proc():
        wait, token = core.execute(thread, op)
        if wait is None:
            outcome["result"] = token
            return
        try:
            yield wait
        except Interrupt as interrupt:
            outcome["interrupted"] = core.abort(token, interrupt)
        else:
            outcome["result"] = core.finish(token)

    process = machine.sim.spawn(proc())
    if interrupt_at is not None:
        machine.sim.schedule(interrupt_at, lambda: process.interrupt("sig"))
    machine.sim.run()
    return outcome.get("result"), outcome.get("interrupted"), machine.sim.now - start


def chase_batch(machine, accesses=1000, node=0, chains=1, size=8 * GIB):
    region = machine.allocate(size, node=node, page_size=PageSize.HUGE_2M)
    return MemBatch(
        region, accesses=accesses, pattern=PatternKind.CHASE, parallelism=chains
    )


def test_compute_duration_is_cycles_over_frequency():
    machine = make_machine()
    result, _, duration = run_op(machine, Compute(2200.0))
    assert duration == pytest.approx(1000.0)  # 2200 cycles @ 2.2 GHz
    assert result.duration_ns == pytest.approx(1000.0)


def test_chase_batch_local_latency():
    machine = make_machine()
    batch = chase_batch(machine, accesses=1000, node=0)
    _, _, duration = run_op(machine, batch)
    # ~all misses at 87 ns local latency; tiny LLC-resident fraction.
    assert duration == pytest.approx(1000 * 87.0, rel=0.02)


def test_chase_batch_remote_latency_slower():
    machine = make_machine()
    batch = chase_batch(machine, accesses=1000, node=1)
    _, _, duration = run_op(machine, batch)
    assert duration == pytest.approx(1000 * 176.0, rel=0.02)


def test_parallel_chains_divide_duration():
    machine = make_machine()
    _, _, one = run_op(machine, chase_batch(machine, accesses=4000, chains=1))
    machine2 = make_machine()
    _, _, four = run_op(machine2, chase_batch(machine2, accesses=4000, chains=4))
    assert one / four == pytest.approx(4.0, rel=0.05)


def test_stall_counter_matches_memory_wait_for_pure_chase():
    machine = make_machine()
    batch = chase_batch(machine, accesses=1000)
    _, _, duration = run_op(machine, batch)
    stalls = machine.pmc(0).true_value(IVY_BRIDGE.counter_events.l2_stalls)
    assert stalls == pytest.approx(duration * IVY_BRIDGE.freq_ghz, rel=0.01)


def test_miss_counter_routed_to_local_or_remote_event():
    machine = make_machine()
    run_op(machine, chase_batch(machine, accesses=1000, node=0))
    events = IVY_BRIDGE.counter_events
    local = machine.pmc(0).true_value(events.l3_miss_local)
    remote = machine.pmc(0).true_value(events.l3_miss_remote)
    assert local > 900 and remote == 0.0

    machine2 = make_machine()
    run_op(machine2, chase_batch(machine2, accesses=1000, node=1))
    assert machine2.pmc(0).true_value(events.l3_miss_remote) > 900
    assert machine2.pmc(0).true_value(events.l3_miss_local) == 0.0


def test_compute_interleaved_with_memory_adds_time():
    machine = make_machine()
    region = machine.allocate(8 * GIB, node=0, page_size=PageSize.HUGE_2M)
    plain = MemBatch(region, 1000, PatternKind.CHASE)
    busy = MemBatch(region, 1000, PatternKind.CHASE, compute_cycles_per_access=220.0)
    _, _, d_plain = run_op(machine, plain)
    _, _, d_busy = run_op(machine, busy)
    assert d_busy - d_plain == pytest.approx(1000 * 100.0, rel=0.02)


def test_overlap_hides_memory_wait_under_compute():
    machine = make_machine()
    region = machine.allocate(8 * GIB, node=0, page_size=PageSize.HUGE_2M)
    no_overlap = MemBatch(
        region, 1000, PatternKind.CHASE, compute_cycles_per_access=220.0, overlap=0.0
    )
    with_overlap = MemBatch(
        region, 1000, PatternKind.CHASE, compute_cycles_per_access=220.0, overlap=0.5
    )
    _, _, d0 = run_op(machine, no_overlap)
    _, _, d1 = run_op(machine, with_overlap)
    assert d1 < d0
    # Overlap also reduces recorded stall cycles.
    assert machine.core(0).stats.stall_ns < d0 + d1


def test_interrupt_mid_batch_partial_accounting_and_remainder():
    machine = make_machine()
    batch = chase_batch(machine, accesses=1000)
    _, interrupted, elapsed = run_op(machine, batch, interrupt_at=43_500.0)
    assert interrupted is not None
    assert interrupted.payload == "sig"
    assert elapsed == pytest.approx(43_500.0)
    remainder = interrupted.remainder
    assert remainder is not None
    assert remainder.accesses == pytest.approx(500, abs=20)
    # Partial PMC accounting: about half the misses recorded.
    misses = machine.pmc(0).true_value(IVY_BRIDGE.counter_events.l3_miss_local)
    assert misses == pytest.approx(480, abs=40)


def test_interrupted_then_resumed_batch_totals_match_uninterrupted():
    machine = make_machine()
    batch = chase_batch(machine, accesses=1000)
    _, interrupted, _ = run_op(machine, batch, interrupt_at=30_000.0)
    run_op(machine, interrupted.remainder)
    total = machine.sim.now
    machine2 = make_machine()
    _, _, clean = run_op(machine2, chase_batch(machine2, accesses=1000))
    assert total == pytest.approx(clean, rel=0.03)
    misses = machine.pmc(0).true_value(IVY_BRIDGE.counter_events.l3_miss_local)
    misses_clean = machine2.pmc(0).true_value(IVY_BRIDGE.counter_events.l3_miss_local)
    assert misses == pytest.approx(misses_clean, rel=0.05)


def test_streaming_store_is_bandwidth_bound():
    machine = make_machine()
    region = machine.allocate(512 * MIB, node=0)
    lines = 100_000
    batch = MemBatch(
        region,
        accesses=lines * 8,
        pattern=PatternKind.SEQUENTIAL,
        stride_bytes=8,
        is_store=True,
        non_temporal=True,
    )
    _, _, duration = run_op(machine, batch)
    expected = lines * 64 / IVY_BRIDGE.peak_bw_bytes_per_ns
    assert duration == pytest.approx(expected, rel=0.15)
    # Posted stores do not accrue load-stall cycles.
    assert machine.pmc(0).true_value(IVY_BRIDGE.counter_events.l2_stalls) == 0.0


def test_throttling_slows_batch_and_grows_true_stalls():
    fast = make_machine()
    batch = chase_batch(fast, accesses=20_000, chains=10)
    _, _, d_fast = run_op(fast, batch)

    slow = make_machine()
    slow.controller(0).program_throttle_register(
        THROTTLE_REGISTER_MAX // 32, privileged=True
    )
    batch2 = chase_batch(slow, accesses=20_000, chains=10)
    _, _, d_slow = run_op(slow, batch2)
    assert d_slow > 2 * d_fast
    stalls_fast = fast.pmc(0).true_value(IVY_BRIDGE.counter_events.l2_stalls)
    stalls_slow = slow.pmc(0).true_value(IVY_BRIDGE.counter_events.l2_stalls)
    assert stalls_slow > 2 * stalls_fast


def test_spin_duration_exact_even_with_dvfs():
    machine = make_machine()
    machine.dvfs.enable()
    _, _, duration = run_op(machine, Spin(12_345.0))
    assert duration == pytest.approx(12_345.0)


def test_dvfs_stretches_compute():
    machine = make_machine()
    machine.dvfs.enable()
    _, _, duration = run_op(machine, Compute(220_000.0))
    assert duration > 100_000.0  # nominal would be exactly 100 us


def test_clflush_serializes_writebacks():
    machine = make_machine()
    region = machine.allocate(MIB, node=0, persistent=True)
    _, _, duration = run_op(machine, Flush(region, lines=10))
    assert duration == pytest.approx(10 * 87.0)


def test_clflushopt_plus_commit_allows_write_parallelism():
    machine = make_machine()
    region = machine.allocate(MIB, node=0, persistent=True)
    thread = fake_thread()
    for _ in range(10):
        run_op(machine, FlushOpt(region, lines=1), thread=thread)
    start = machine.sim.now
    run_op(machine, Commit(), thread=thread)
    commit_wait = machine.sim.now - start
    # All ten writebacks overlapped: the barrier waits ~one latency, not ten.
    assert commit_wait < 2 * 87.0
    assert thread.outstanding_flushes == []


def test_commit_with_no_outstanding_flushes_is_free():
    machine = make_machine()
    _, _, duration = run_op(machine, Commit())
    assert duration == 0.0


def test_empty_batch_completes_instantly():
    machine = make_machine()
    region = machine.allocate(MIB, node=0)
    _, _, duration = run_op(machine, MemBatch(region, 0, PatternKind.RANDOM))
    assert duration == 0.0


def test_tsc_is_invariant_under_dvfs():
    machine = make_machine()
    machine.dvfs.enable()
    core = machine.core(0)
    machine.sim.run(until_ns=1000.0)
    assert core.tsc_ns() == 1000.0
    assert core.tsc_cycles() == pytest.approx(1000.0 * IVY_BRIDGE.freq_ghz)


def record_frequency_reads(monkeypatch, core):
    """Log the simulated time of every ``frequency_ghz`` call on *core*."""
    reads = []
    read = core.frequency_ghz

    def logged():
        reads.append(core.machine.sim.now)
        return read()

    monkeypatch.setattr(core, "frequency_ghz", logged)
    return reads


def test_dvfs_stall_cycles_accrue_at_the_completion_time_frequency(monkeypatch):
    machine = make_machine()
    machine.dvfs.enable()
    core = machine.core(0)
    reads = record_frequency_reads(monkeypatch, core)
    # ~1.7 ms of chasing: most of one 2 ms DVFS period.
    batch = chase_batch(machine, accesses=20_000)
    run_op(machine, batch)
    end = machine.sim.now
    assert reads == [0.0, end]
    assert machine.dvfs.frequency_ghz(0, 0.0) != machine.dvfs.frequency_ghz(0, end)
    stalls = machine.pmc(0).true_value(IVY_BRIDGE.counter_events.l2_stalls)
    assert stalls == core.stats.stall_ns * machine.dvfs.frequency_ghz(0, end)


@pytest.mark.parametrize("interrupt_at", [None, 30_000.0])
@pytest.mark.parametrize("is_store", [False, True])
def test_batch_reads_the_frequency_once_without_dvfs(
    monkeypatch, is_store, interrupt_at
):
    machine = make_machine()
    reads = record_frequency_reads(monkeypatch, machine.core(0))
    region = machine.allocate(8 * GIB, node=0, page_size=PageSize.HUGE_2M)
    batch = MemBatch(region, 1000, PatternKind.CHASE, is_store=is_store)
    run_op(machine, batch, interrupt_at=interrupt_at)
    assert len(reads) <= 1


def test_unknown_op_is_rejected():
    class Bogus(Op):
        pass

    machine = make_machine()
    with pytest.raises(HardwareError, match="cannot execute"):
        machine.core(0).execute(fake_thread(), Bogus())
