"""Tests for the emulation report renderer."""

from repro.hw import IVY_BRIDGE, Machine
from repro.hw.topology import PageSize
from repro.ops import MemBatch, PatternKind
from repro.os import SimOS
from repro.quartz import Quartz, QuartzConfig, calibrate_arch
from repro.quartz.report import render_report
from repro.quartz.stats import QuartzStats
from repro.quartz.tiers import MemoryTier, TierLadder
from repro.sim import Simulator
from repro.units import GIB, MILLISECOND


def test_report_on_empty_stats():
    text = render_report(QuartzStats())
    assert "threads registered: 0" in text
    assert "feedback:" in text


def test_report_after_a_real_run():
    sim = Simulator(seed=4)
    machine = Machine(sim, IVY_BRIDGE)
    osys = SimOS(machine)
    config = QuartzConfig(
        nvm_read_latency_ns=450.0,
        nvm_bandwidth_gbps=12.0,
        nvm_write_latency_ns=900.0,
        max_epoch_ns=0.2 * MILLISECOND,
    )
    quartz = Quartz(osys, config, calibration=calibrate_arch(IVY_BRIDGE))
    quartz.attach()

    def body(ctx):
        region = ctx.pmalloc(2 * GIB, page_size=PageSize.HUGE_2M)
        yield MemBatch(region, 60_000, PatternKind.CHASE)

    osys.create_thread(body, name="app")
    osys.run_to_completion()
    text = render_report(quartz.stats, config)
    assert "450 ns read latency" in text
    assert "12.0 GB/s bandwidth" in text
    assert "900 ns write latency" in text
    assert "rdpmc counters" in text
    assert "app" in text  # per-thread table
    assert "injected" in text
    assert "feedback:" in text
    # Report lines are parseable: epochs closed appears with the count.
    assert f"epochs closed: {quartz.stats.epochs_total}" in text


def test_report_prints_the_tier_ladder_of_a_tiered_run():
    # A tiered config never reads nvm_read_latency_ns: the report must
    # show the ladder, not that field's unused default.
    sim = Simulator(seed=4)
    machine = Machine(sim, IVY_BRIDGE)
    osys = SimOS(machine)
    config = QuartzConfig(
        ladder=TierLadder((
            MemoryTier("dram", 87.0, 87.0),
            MemoryTier("nvm", 600.0, 900.0),
        )),
        max_epoch_ns=0.2 * MILLISECOND,
    )
    quartz = Quartz(osys, config, calibration=calibrate_arch(IVY_BRIDGE))
    quartz.attach()

    def body(ctx):
        region = ctx.pmalloc(2 * GIB, page_size=PageSize.HUGE_2M)
        yield MemBatch(region, 20_000, PatternKind.CHASE)

    osys.create_thread(body, name="app")
    osys.run_to_completion()
    text = render_report(quartz.stats, config)
    target = text.splitlines()[1]
    assert target == (
        "target: tiers dram 87/87 ns, nvm 600/900 ns (read/write latency)"
    )
    assert "400 ns" not in text
