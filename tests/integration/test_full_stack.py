"""Full-stack integration tests: emulator + OS + workloads together."""

import pytest

from repro.errors import HardwareError, OsError
from repro.hw import IVY_BRIDGE, Machine
from repro.hw.topology import PageSize
from repro.ops import (
    Commit,
    JoinThread,
    MemBatch,
    MutexLock,
    MutexUnlock,
    PatternKind,
    Sleep,
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


def make_stack(arch=IVY_BRIDGE, seed=7, **machine_kwargs):
    sim = Simulator(seed=seed)
    machine = Machine(sim, arch, **machine_kwargs)
    return machine, SimOS(machine)


CALIBRATION = None


def calibration():
    global CALIBRATION
    if CALIBRATION is None:
        CALIBRATION = calibrate_arch(IVY_BRIDGE)
    return CALIBRATION


def test_everything_at_once():
    """DRAM + NVM tiers + multithreading + write emulation + bandwidth."""
    machine, osys = make_stack()
    quartz = Quartz(
        osys,
        QuartzConfig(
            nvm_bandwidth_gbps=10.0,
            ladder=TierLadder((
                MemoryTier("dram", 87.0, 87.0),
                MemoryTier("nvm", 500.0, 900.0),
            )),
            write_model=WriteModel.PCOMMIT,
            max_epoch_ns=0.5 * MILLISECOND,
        ),
        calibration=calibration(),
    )
    quartz.attach()
    mutex = Mutex(osys)
    timings = {}

    def worker(ctx, tag):
        dram = ctx.malloc(1 * GIB, page_size=PageSize.HUGE_2M)
        nvm = ctx.pmalloc(1 * GIB, page_size=PageSize.HUGE_2M)
        for _ in range(20):
            yield MemBatch(dram, 2_000, PatternKind.CHASE)
            yield MutexLock(mutex)
            yield MemBatch(nvm, 1_000, PatternKind.CHASE)
            yield from ctx.pflush(nvm, lines=8)
            yield Commit()
            yield MutexUnlock(mutex)
        ctx.pfree(nvm)

    def main(ctx):
        start = ctx.now_ns
        workers = []
        for tag in range(3):
            workers.append((yield SpawnThread(worker, args=(tag,))))
        for w in workers:
            yield JoinThread(w)
        timings["elapsed"] = ctx.now_ns - start

    osys.create_thread(main)
    osys.run_to_completion()
    # Sanity on magnitude: DRAM work at ~87 ns, NVM chase at ~500 ns,
    # flushes at ~900 ns with pcommit overlap, serialized via the lock.
    dram_part = 3 * 20 * 2_000 * 87.0
    nvm_part = 3 * 20 * 1_000 * 500.0
    assert timings["elapsed"] > (dram_part / 3 + nvm_part) * 0.8
    stats = quartz.stats
    assert stats.threads_registered == 4
    assert stats.delay_injected_ns > 0
    assert quartz.write_emulator.commits_emulated == 60
    assert quartz.virtual_topology.pmalloc_count == 3


def test_workload_exception_propagates_cleanly():
    """Failure injection: a crash inside an emulated thread surfaces."""
    machine, osys = make_stack()
    quartz = Quartz(
        osys, QuartzConfig(nvm_read_latency_ns=300.0),
        calibration=calibration(),
    )
    quartz.attach()

    def buggy(ctx):
        region = ctx.pmalloc(256 * MIB, page_size=PageSize.HUGE_2M)
        yield MemBatch(region, 1_000, PatternKind.CHASE)
        raise RuntimeError("injected workload bug")

    osys.create_thread(buggy)
    with pytest.raises(RuntimeError, match="injected workload bug"):
        osys.run_to_completion()


def test_use_after_pfree_detected_under_emulation():
    machine, osys = make_stack()
    quartz = Quartz(
        osys,
        QuartzConfig(
            ladder=TierLadder((
                MemoryTier("dram", 87.0, 87.0),
                MemoryTier("nvm", 300.0, 300.0),
            )),
        ),
        calibration=calibration(),
    )
    quartz.attach()

    def buggy(ctx):
        region = ctx.pmalloc(MIB)
        ctx.pfree(region)
        yield MemBatch(region, 100, PatternKind.CHASE)

    osys.create_thread(buggy)
    with pytest.raises(HardwareError, match="use after free"):
        osys.run_to_completion()


def test_detach_then_reattach():
    machine, osys = make_stack()
    first = Quartz(
        osys,
        QuartzConfig(nvm_read_latency_ns=300.0, max_epoch_ns=0.2 * MILLISECOND),
        calibration=calibration(),
    )
    first.attach()
    out = {}

    def body(ctx, key):
        region = ctx.malloc(4 * GIB, page_size=PageSize.HUGE_2M)
        start = ctx.now_ns
        yield MemBatch(region, 80_000, PatternKind.CHASE)
        out[key] = (ctx.now_ns - start) / 80_000

    osys.create_thread(body, args=("emulated",))
    osys.run_to_completion()
    first.detach()

    osys.create_thread(body, args=("native",))
    osys.run_to_completion()
    assert out["emulated"] == pytest.approx(300.0, rel=0.1)
    assert out["native"] == pytest.approx(87.0, rel=0.05)

    second = Quartz(
        osys,
        QuartzConfig(nvm_read_latency_ns=600.0, max_epoch_ns=0.2 * MILLISECOND),
        calibration=calibration(),
    )
    second.attach()
    osys.create_thread(body, args=("reattached",))
    osys.run_to_completion()
    assert out["reattached"] == pytest.approx(600.0, rel=0.1)


def test_emulated_socket_exhaustion_still_raises():
    machine, osys = make_stack()
    quartz = Quartz(
        osys,
        QuartzConfig(nvm_read_latency_ns=300.0),
        calibration=calibration(),
    )
    quartz.attach()

    def sleeper(ctx):
        yield Sleep(1e9)

    slots = machine.logical_cores_per_socket
    for _ in range(slots):
        osys.create_thread(sleeper, cpu_node=0)
    with pytest.raises(OsError, match="no free logical cores"):
        osys.create_thread(sleeper, cpu_node=0)


def test_determinism_of_the_full_stack():
    def run_once():
        machine, osys = make_stack(seed=123)
        quartz = Quartz(
            osys,
            QuartzConfig(
                nvm_read_latency_ns=400.0, nvm_write_latency_ns=700.0
            ),
            calibration=calibration(),
        )
        quartz.attach()
        out = {}

        def body(ctx):
            region = ctx.pmalloc(1 * GIB, page_size=PageSize.HUGE_2M)
            yield MemBatch(region, 30_000, PatternKind.CHASE)
            yield from ctx.pflush(region, lines=16)
            out["end"] = ctx.now_ns

        osys.create_thread(body)
        osys.run_to_completion()
        return out["end"], quartz.stats.delay_injected_ns

    assert run_once() == run_once()


def test_latency_and_bandwidth_combined():
    """Both knobs at once: chase honours latency, stream honours bandwidth."""
    machine, osys = make_stack()
    quartz = Quartz(
        osys,
        QuartzConfig(
            nvm_read_latency_ns=400.0,
            nvm_bandwidth_gbps=4.0,
            max_epoch_ns=0.2 * MILLISECOND,
        ),
        calibration=calibration(),
    )
    quartz.attach()
    out = {}

    def body(ctx):
        chase_region = ctx.pmalloc(1 * GIB, page_size=PageSize.HUGE_2M)
        stream_region = ctx.pmalloc(128 * MIB)
        start = ctx.now_ns
        yield MemBatch(chase_region, 50_000, PatternKind.CHASE)
        out["latency"] = (ctx.now_ns - start) / 50_000
        start = ctx.now_ns
        yield MemBatch(
            stream_region, stream_region.size_bytes // 8,
            PatternKind.SEQUENTIAL, stride_bytes=8, is_store=True,
            non_temporal=True,
        )
        out["bandwidth"] = stream_region.size_bytes / (ctx.now_ns - start)

    osys.create_thread(body)
    osys.run_to_completion()
    assert out["latency"] == pytest.approx(400.0, rel=0.1)
    assert out["bandwidth"] == pytest.approx(4.0, rel=0.1)


def test_commit_without_write_emulation_is_plain_hardware():
    machine, osys = make_stack()
    quartz = Quartz(
        osys, QuartzConfig(nvm_read_latency_ns=300.0),
        calibration=calibration(),
    )
    quartz.attach()
    assert quartz.write_emulator is None

    def body(ctx):
        yield Commit()  # no posted flushes, no hook: instantaneous

    osys.create_thread(body)
    osys.run_to_completion()
    # Only the library's registration cost (~300k cycles) elapsed; the
    # barrier itself was free.
    assert osys.sim.now < 200_000.0
