"""End-to-end tests of the Quartz emulator on the simulated machine."""

import pytest

from repro.errors import QuartzError, UnsupportedFeatureError
from repro.hw import HASWELL, IVY_BRIDGE, SANDY_BRIDGE, Machine
from repro.hw.memory import THROTTLE_REGISTER_MAX
from repro.hw.topology import PageSize
from repro.ops import (
    Commit,
    JoinThread,
    MemBatch,
    MutexLock,
    MutexUnlock,
    PatternKind,
    SpawnThread,
)
from repro.os import Mutex, SimOS
from repro.quartz import (
    Quartz,
    QuartzConfig,
    WriteModel,
    calibrate_arch,
)
from repro.quartz.tiers import MemoryTier, TierLadder
from repro.sim import Simulator
from repro.units import GIB, MIB, MILLISECOND


def make_stack(arch=IVY_BRIDGE, seed=3):
    sim = Simulator(seed=seed)
    machine = Machine(sim, arch)
    return machine, SimOS(machine)


def chase_body(out, accesses=300_000, size=4 * GIB, persistent=False):
    def body(ctx):
        if persistent:
            region = ctx.pmalloc(size, page_size=PageSize.HUGE_2M)
        else:
            region = ctx.malloc(size, page_size=PageSize.HUGE_2M)
        start = ctx.now_ns
        yield MemBatch(region, accesses, PatternKind.CHASE)
        out["latency"] = (ctx.now_ns - start) / accesses

    return body


def run_emulated_chase(arch, target_ns, seed=3, accesses=300_000, **config_kwargs):
    machine, osys = make_stack(arch, seed)
    quartz = Quartz(
        osys,
        QuartzConfig(nvm_read_latency_ns=target_ns, **config_kwargs),
        calibration=calibrate_arch(arch),
    )
    quartz.attach()
    out = {}
    osys.create_thread(chase_body(out, accesses=accesses))
    osys.run_to_completion()
    return out["latency"], quartz


# ----------------------------------------------------------------------
# Attach/detach and validation
# ----------------------------------------------------------------------
def test_attach_detach_lifecycle():
    machine, osys = make_stack()
    quartz = Quartz(osys, QuartzConfig(), calibration=calibrate_arch(IVY_BRIDGE))
    quartz.attach()
    assert quartz.attached
    assert quartz.kernel_module.loaded
    with pytest.raises(QuartzError):
        quartz.attach()
    quartz.detach()
    assert not quartz.attached
    with pytest.raises(QuartzError):
        quartz.detach()


def test_emulating_faster_than_dram_rejected():
    machine, osys = make_stack()
    quartz = Quartz(
        osys,
        QuartzConfig(nvm_read_latency_ns=50.0),
        calibration=calibrate_arch(IVY_BRIDGE),
    )
    with pytest.raises(QuartzError, match="slowed down"):
        quartz.attach()


def test_below_backing_latency_message_prints_both_latencies_in_full():
    """Sandy Bridge calibrates to 97.29... ns local: a 97.0 ns target is
    below it, and a message rounding the backing latency to "97 ns"
    would read as a contradiction."""
    calibration = calibrate_arch(SANDY_BRIDGE)
    machine, osys = make_stack(arch=SANDY_BRIDGE)
    quartz = Quartz(
        osys, QuartzConfig(nvm_read_latency_ns=97.0), calibration=calibration
    )
    with pytest.raises(QuartzError) as caught:
        quartz.attach()
    assert str(caught.value) == (
        "target NVM latency 97.0 ns is below the backing DRAM latency "
        f"{calibration.dram_local_ns} ns; DRAM can only be slowed down"
    )
    assert "latency 97.29" in str(caught.value)


def test_two_memory_mode_rejected_on_sandy_bridge():
    """Sandy Bridge lacks local/remote LLC-miss counters (Table 1)."""
    machine, osys = make_stack(arch=SANDY_BRIDGE)
    quartz = Quartz(
        osys,
        QuartzConfig(
            ladder=TierLadder((
                MemoryTier("dram", 87.0, 87.0),
                MemoryTier("nvm", 400.0, 400.0),
            )),
        ),
        calibration=calibrate_arch(SANDY_BRIDGE),
    )
    with pytest.raises(UnsupportedFeatureError):
        quartz.attach()


def test_mismatched_calibration_rejected():
    machine, osys = make_stack(arch=IVY_BRIDGE)
    quartz = Quartz(osys, QuartzConfig(), calibration=calibrate_arch(HASWELL))
    with pytest.raises(QuartzError, match="calibration"):
        quartz.attach()


def test_detach_restores_throttle_registers():
    machine, osys = make_stack()
    quartz = Quartz(
        osys,
        QuartzConfig(nvm_read_latency_ns=200.0, nvm_bandwidth_gbps=10.0),
        calibration=calibrate_arch(IVY_BRIDGE),
    )
    quartz.attach()
    assert machine.controller(0).throttle_register < THROTTLE_REGISTER_MAX
    quartz.detach()
    assert machine.controller(0).throttle_register == THROTTLE_REGISTER_MAX


# ----------------------------------------------------------------------
# Latency emulation accuracy (the Figure 12 property, scaled down)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("target", [200.0, 500.0, 1000.0])
def test_emulated_latency_matches_target_on_ivy_bridge(target):
    latency, _ = run_emulated_chase(IVY_BRIDGE, target)
    assert abs(latency - target) / target < 0.02  # paper: <2% on Ivy Bridge


def test_emulated_latency_on_haswell_within_6_percent():
    latency, _ = run_emulated_chase(HASWELL, 600.0)
    assert abs(latency - 600.0) / 600.0 < 0.06


def test_emulated_latency_on_sandy_bridge_within_9_percent():
    latency, _ = run_emulated_chase(SANDY_BRIDGE, 600.0)
    assert abs(latency - 600.0) / 600.0 < 0.09


def test_switched_off_injection_mode_keeps_native_speed():
    """Section 3.2: the 'switched-off delay injection' diagnostic mode
    processes epochs but injects nothing."""
    latency, quartz = run_emulated_chase(
        IVY_BRIDGE, 1000.0, injection_enabled=False
    )
    assert latency == pytest.approx(87.0, rel=0.05)
    assert quartz.stats.delay_injected_ns == 0.0
    assert quartz.stats.delay_computed_ns > 0.0
    assert quartz.stats.epochs_total > 0


def test_epoch_overhead_under_4_percent_with_default_settings():
    """Section 3.2: epoch-creation overhead <4% for most experiments."""
    base, _ = run_emulated_chase(IVY_BRIDGE, 1000.0, injection_enabled=False)
    assert base <= 87.0 * 1.04


def test_stats_report_epoch_activity():
    _, quartz = run_emulated_chase(IVY_BRIDGE, 500.0)
    stats = quartz.stats
    assert stats.threads_registered == 1
    assert stats.epochs_total >= 5
    assert stats.signals_posted > 0
    assert stats.delay_injected_ns > 0
    assert "amortized" in stats.feedback()


def test_monitor_closes_epochs_at_max_epoch_granularity():
    _, quartz = run_emulated_chase(IVY_BRIDGE, 500.0, max_epoch_ns=MILLISECOND)
    # ~26 ms of native chase work split into >= max-epoch-sized chunks
    # (wall epochs stretch by the injected delay between them).
    per_thread = quartz.stats.thread(
        next(iter(quartz.stats.per_thread))
    )
    assert per_thread.epochs_monitor > 15


# ----------------------------------------------------------------------
# Multithreaded: sync-triggered closes and delay propagation
# ----------------------------------------------------------------------
def test_unlock_closes_epoch_and_propagates_delay():
    machine, osys = make_stack()
    quartz = Quartz(
        osys,
        QuartzConfig(nvm_read_latency_ns=800.0, min_epoch_ns=0.0),
        calibration=calibrate_arch(IVY_BRIDGE),
    )
    quartz.attach()
    mutex = Mutex(osys)
    acquired = {}

    def holder(ctx):
        region = ctx.malloc(4 * GIB, page_size=PageSize.HUGE_2M)
        yield MutexLock(mutex)
        yield MemBatch(region, 20_000, PatternKind.CHASE)
        yield MutexUnlock(mutex)

    def waiter(ctx):
        yield MutexLock(mutex)
        acquired["at"] = ctx.now_ns
        yield MutexUnlock(mutex)

    def main(ctx):
        h = yield SpawnThread(holder, name="holder")
        w = yield SpawnThread(waiter, name="waiter")
        yield JoinThread(h)
        yield JoinThread(w)

    osys.create_thread(main)
    osys.run_to_completion()
    # The holder's critical section runs 20k chase accesses; under
    # emulation the waiter must see them at ~800 ns each, not ~87 ns.
    assert acquired["at"] >= 20_000 * 800.0 * 0.9
    tids = [
        tid
        for tid, stats in quartz.stats.per_thread.items()
        if stats.name == "holder"
    ]
    assert quartz.stats.thread(tids[0]).epochs_sync >= 1


def test_min_epoch_suppresses_frequent_sync_closes():
    machine, osys = make_stack()
    quartz = Quartz(
        osys,
        QuartzConfig(nvm_read_latency_ns=400.0, min_epoch_ns=10.0 * MILLISECOND),
        calibration=calibrate_arch(IVY_BRIDGE),
    )
    quartz.attach()
    mutex = Mutex(osys)

    def body(ctx):
        region = ctx.malloc(256 * MIB, page_size=PageSize.HUGE_2M)
        for _ in range(50):
            yield MutexLock(mutex)
            yield MemBatch(region, 100, PatternKind.CHASE)
            yield MutexUnlock(mutex)

    osys.create_thread(body)
    osys.run_to_completion()
    per_thread = next(iter(quartz.stats.per_thread.values()))
    assert per_thread.closes_skipped_min_epoch >= 49
    assert per_thread.epochs_sync == 0


def test_registered_threads_tracked_and_deregistered():
    machine, osys = make_stack()
    quartz = Quartz(
        osys, QuartzConfig(nvm_read_latency_ns=200.0),
        calibration=calibrate_arch(IVY_BRIDGE),
    )
    quartz.attach()

    def child(ctx):
        region = ctx.malloc(256 * MIB, page_size=PageSize.HUGE_2M)
        yield MemBatch(region, 1000, PatternKind.CHASE)

    def main(ctx):
        threads = []
        for index in range(3):
            threads.append((yield SpawnThread(child, name=f"c{index}")))
        for t in threads:
            yield JoinThread(t)

    osys.create_thread(main)
    osys.run_to_completion()
    assert quartz.stats.threads_registered == 4  # main + 3 children
    assert quartz.registered_thread_count == 0  # all exited and drained


def test_monitor_thread_itself_not_emulated():
    _, quartz = run_emulated_chase(IVY_BRIDGE, 300.0)
    names = {stats.name for stats in quartz.stats.per_thread.values()}
    assert "quartz-monitor" not in names


# ----------------------------------------------------------------------
# Write emulation
# ----------------------------------------------------------------------
def test_pflush_injects_write_latency():
    machine, osys = make_stack()
    quartz = Quartz(
        osys,
        QuartzConfig(nvm_read_latency_ns=200.0, nvm_write_latency_ns=500.0),
        calibration=calibrate_arch(IVY_BRIDGE),
    )
    quartz.attach()
    timing = {}

    def body(ctx):
        region = ctx.pmalloc(MIB)
        start = ctx.now_ns
        for _ in range(10):
            yield from ctx.pflush(region, lines=1)
        timing["per_flush"] = (ctx.now_ns - start) / 10

    osys.create_thread(body)
    osys.run_to_completion()
    # Hardware clflush 87 ns + injected (500 - 87) ns = 500 ns total.
    assert timing["per_flush"] == pytest.approx(500.0, rel=0.05)
    assert quartz.write_emulator.flushes_emulated == 10


def test_pcommit_model_overlaps_independent_writes():
    def run(write_model):
        machine, osys = make_stack()
        quartz = Quartz(
            osys,
            QuartzConfig(
                nvm_read_latency_ns=200.0,
                nvm_write_latency_ns=1000.0,
                write_model=write_model,
            ),
            calibration=calibrate_arch(IVY_BRIDGE),
        )
        quartz.attach()
        timing = {}

        def body(ctx):
            region = ctx.pmalloc(MIB)
            start = ctx.now_ns
            for _ in range(10):
                yield from ctx.pflush(region, lines=1)
            yield Commit()
            timing["elapsed"] = ctx.now_ns - start

        osys.create_thread(body)
        osys.run_to_completion()
        return timing["elapsed"]

    serial = run(WriteModel.PFLUSH)
    parallel = run(WriteModel.PCOMMIT)
    # pflush serializes: ~10 x 1000 ns.  pcommit overlaps: ~1 x 1000 ns.
    assert serial == pytest.approx(10_000.0, rel=0.1)
    assert parallel < serial / 4


def test_pcommit_discounts_elapsed_program_time():
    machine, osys = make_stack()
    quartz = Quartz(
        osys,
        QuartzConfig(
            nvm_read_latency_ns=200.0,
            nvm_write_latency_ns=1000.0,
            write_model=WriteModel.PCOMMIT,
        ),
        calibration=calibrate_arch(IVY_BRIDGE),
    )
    quartz.attach()
    timing = {}

    def body(ctx):
        from repro.ops import Compute

        region = ctx.pmalloc(MIB)
        yield from ctx.pflush(region, lines=1)
        # 2 us of compute: by the barrier the emulated write is done.
        yield Compute(2.2 * 2000.0)
        start = ctx.now_ns
        yield Commit()
        timing["commit_wait"] = ctx.now_ns - start

    osys.create_thread(body)
    osys.run_to_completion()
    assert timing["commit_wait"] < 100.0


# ----------------------------------------------------------------------
# DRAM + NVM (two-tier ladder) basics
# ----------------------------------------------------------------------
def test_two_memory_pmalloc_lands_on_sibling_socket():
    machine, osys = make_stack()
    quartz = Quartz(
        osys,
        QuartzConfig(
            ladder=TierLadder((
                MemoryTier("dram", 87.0, 87.0),
                MemoryTier("nvm", 400.0, 400.0),
            )),
        ),
        calibration=calibrate_arch(IVY_BRIDGE),
    )
    quartz.attach()
    regions = {}

    def body(ctx):
        regions["volatile"] = ctx.malloc(MIB)
        regions["nvm"] = ctx.pmalloc(MIB)
        yield MemBatch(regions["nvm"], 100, PatternKind.CHASE)
        ctx.pfree(regions["nvm"])

    osys.create_thread(body)
    osys.run_to_completion()
    assert regions["volatile"].node == 0
    assert regions["nvm"].node == 1
    assert regions["nvm"].persistent
    assert regions["nvm"].freed


def test_two_memory_slows_only_nvm_accesses():
    machine, osys = make_stack()
    target = 600.0
    quartz = Quartz(
        osys,
        QuartzConfig(
            ladder=TierLadder((
                MemoryTier("dram", 87.0, 87.0),
                MemoryTier("nvm", target, target),
            )),
            max_epoch_ns=MILLISECOND,
        ),
        calibration=calibrate_arch(IVY_BRIDGE),
    )
    quartz.attach()
    out = {}

    def body(ctx):
        dram = ctx.malloc(2 * GIB, page_size=PageSize.HUGE_2M)
        nvm = ctx.pmalloc(2 * GIB, page_size=PageSize.HUGE_2M)
        accesses = 100_000
        start = ctx.now_ns
        for _ in range(10):
            yield MemBatch(dram, accesses // 10, PatternKind.CHASE)
            yield MemBatch(nvm, accesses // 10, PatternKind.CHASE)
        out["elapsed"] = ctx.now_ns - start
        out["expected"] = accesses * 87.0 + accesses * target

    osys.create_thread(body)
    osys.run_to_completion()
    assert out["elapsed"] == pytest.approx(out["expected"], rel=0.03)
