"""Unit tests for Quartz statistics, PM write emulation, virtual topology."""

import pytest

from repro.errors import QuartzError
from repro.hw import IVY_BRIDGE, SANDY_BRIDGE, Machine
from repro.hw.topology import PageSize
from repro.quartz.calibration import calibrate_arch
from repro.quartz.config import QuartzConfig, WriteModel
from repro.quartz.pm import PmWriteEmulator
from repro.quartz.stats import QuartzStats, ThreadQuartzStats
from repro.quartz.tiers import MemoryTier, TierLadder
from repro.quartz.virtual_topology import TieredTopology
from repro.sim import Simulator
from repro.units import MIB


# ----------------------------------------------------------------------
# Statistics (Section 3.2 feedback)
# ----------------------------------------------------------------------
def make_stats(**thread_kwargs) -> QuartzStats:
    stats = QuartzStats()
    stats.per_thread[1] = ThreadQuartzStats(
        tid=1, name="t", registered_at_ns=0.0, **thread_kwargs
    )
    return stats


def test_aggregates_sum_over_threads():
    stats = QuartzStats()
    for tid in (1, 2):
        stats.per_thread[tid] = ThreadQuartzStats(
            tid=tid, name=f"t{tid}", registered_at_ns=0.0,
            epochs_monitor=3, delay_injected_ns=100.0, overhead_ns=10.0,
        )
    assert stats.epochs_total == 6
    assert stats.delay_injected_ns == 200.0
    assert stats.overhead_ns == 20.0


def test_feedback_no_epochs():
    assert "nothing to report" in QuartzStats().feedback()


def test_feedback_fully_amortized():
    stats = make_stats(
        epochs_monitor=10, overhead_ns=100.0, overhead_amortized_ns=100.0,
        overhead_residual_ns=0.0,
    )
    assert stats.fully_amortized
    assert "fully amortized" in stats.feedback()


def test_feedback_recommends_larger_epochs():
    stats = make_stats(
        epochs_monitor=10, overhead_ns=100.0, overhead_amortized_ns=40.0,
        overhead_residual_ns=60.0,
    )
    assert not stats.fully_amortized
    assert "60%" in stats.feedback()
    assert "larger epoch" in stats.feedback()


def test_epochs_total_counts_all_triggers():
    stats = make_stats(epochs_monitor=2, epochs_sync=3, epochs_exit=1)
    assert stats.thread(1).epochs_total == 6


# ----------------------------------------------------------------------
# PM write emulation internals
# ----------------------------------------------------------------------
def make_pm(write_model=WriteModel.PFLUSH, write_latency=800.0):
    sim = Simulator(seed=1)
    machine = Machine(sim, IVY_BRIDGE)
    config = QuartzConfig(
        nvm_read_latency_ns=200.0,
        nvm_write_latency_ns=write_latency,
        write_model=write_model,
    )
    return machine, PmWriteEmulator(
        machine, config, calibrate_arch(IVY_BRIDGE)
    )


def test_pm_requires_write_latency():
    sim = Simulator(seed=1)
    machine = Machine(sim, IVY_BRIDGE)
    config = QuartzConfig(nvm_read_latency_ns=200.0)
    with pytest.raises(QuartzError, match="write"):
        PmWriteEmulator(machine, config, calibrate_arch(IVY_BRIDGE))


def test_extra_write_delay_subtracts_hardware_latency():
    machine, pm = make_pm(write_latency=800.0)
    from types import SimpleNamespace

    from repro.ops import Flush

    region = machine.allocate(MIB, node=0, persistent=True)
    thread = SimpleNamespace(core=machine.core(0), tid=1)
    delay = pm._extra_write_delay_ns(thread, Flush(region, lines=1))
    # Hardware clflush already costs the local DRAM latency (87 ns).
    assert delay == pytest.approx(800.0 - 87.0)


def test_extra_write_delay_never_negative():
    machine, pm = make_pm(write_latency=50.0)
    from types import SimpleNamespace

    from repro.ops import Flush

    region = machine.allocate(MIB, node=0, persistent=True)
    thread = SimpleNamespace(core=machine.core(0), tid=1)
    assert pm._extra_write_delay_ns(thread, Flush(region, lines=1)) == 0.0


# ----------------------------------------------------------------------
# Virtual topology (Section 3.3): DRAM + NVM as a two-tier ladder
# ----------------------------------------------------------------------
def two_tier_topology(machine):
    return TieredTopology(
        machine,
        TierLadder((MemoryTier("dram", 87.0, 87.0), MemoryTier("nvm", 400.0, 400.0))),
    )


def test_sibling_sets_pair_sockets():
    machine = Machine(Simulator(seed=1), IVY_BRIDGE)
    vt = two_tier_topology(machine)
    assert vt.sibling_sets == ((0, 1),)
    assert vt.compute_sockets == (0,)
    assert vt.nvm_node_for(0) == 1


def test_nvm_socket_cannot_compute():
    machine = Machine(Simulator(seed=1), IVY_BRIDGE)
    vt = two_tier_topology(machine)
    with pytest.raises(QuartzError, match="virtual-NVM socket"):
        vt.nvm_node_for(1)


def test_virtual_topology_needs_split_counters():
    machine = Machine(Simulator(seed=1), SANDY_BRIDGE)
    from repro.errors import UnsupportedFeatureError

    with pytest.raises(UnsupportedFeatureError):
        two_tier_topology(machine)


def test_pmalloc_hook_allocates_on_sibling():
    machine = Machine(Simulator(seed=1), IVY_BRIDGE)
    vt = two_tier_topology(machine)
    from types import SimpleNamespace

    thread = SimpleNamespace(core=machine.core(0))
    region = vt.pmalloc_hook(thread, MIB, PageSize.SMALL_4K, "x")
    assert region.node == 1
    assert region.persistent
    assert vt.pmalloc_count == 1
    vt.pfree_hook(thread, region)
    assert region.freed


def test_pfree_rejects_volatile_region():
    machine = Machine(Simulator(seed=1), IVY_BRIDGE)
    vt = two_tier_topology(machine)
    from types import SimpleNamespace

    thread = SimpleNamespace(core=machine.core(0))
    volatile = machine.allocate(MIB, node=0)
    with pytest.raises(QuartzError, match="non-persistent"):
        vt.pfree_hook(thread, volatile)
