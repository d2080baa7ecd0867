"""Tests for Quartz extensions: NVM presets and asymmetric bandwidth."""

import pytest

from repro.errors import QuartzError, UnsupportedFeatureError
from repro.hw import IVY_BRIDGE, Machine
from repro.ops import JoinThread, MemBatch, PatternKind, SpawnThread
from repro.os import SimOS
from repro.quartz import Quartz, QuartzConfig, calibrate_arch
from repro.quartz.presets import (
    ALL_TECHNOLOGIES,
    MEMRISTOR,
    PCM,
    SLOW_NVM,
    STT_MRAM,
    NvmTechnology,
    technology_by_name,
)
from repro.sim import Simulator
from repro.units import MIB


# ----------------------------------------------------------------------
# NVM technology presets
# ----------------------------------------------------------------------
def test_presets_ordered_fast_to_slow():
    reads = [technology.read_latency_ns for technology in ALL_TECHNOLOGIES]
    assert reads == sorted(reads)


def test_preset_lookup():
    assert technology_by_name("pcm") is PCM
    assert technology_by_name("STT-MRAM") is STT_MRAM
    with pytest.raises(QuartzError):
        technology_by_name("optane")


def test_every_preset_writes_slower_than_reads():
    for technology in ALL_TECHNOLOGIES:
        assert technology.write_latency_ns >= technology.read_latency_ns


def test_preset_to_quartz_config():
    config = PCM.quartz_config()
    assert config.nvm_read_latency_ns == 300.0
    assert config.nvm_write_latency_ns == 1000.0
    assert config.nvm_bandwidth_gbps == 5.0
    assert config.ladder is None


def test_preset_config_accepts_overrides():
    config = MEMRISTOR.quartz_config(max_epoch_ns=500_000.0)
    assert config.max_epoch_ns == 500_000.0
    assert config.nvm_read_latency_ns == MEMRISTOR.read_latency_ns


def test_preset_config_override_validation():
    with pytest.raises(QuartzError):
        SLOW_NVM.quartz_config(max_epoch_ns=-1.0)


def test_invalid_technology_rejected():
    with pytest.raises(QuartzError):
        NvmTechnology("x", "bad", read_latency_ns=0.0,
                      write_latency_ns=1.0, bandwidth_gbps=1.0)


def test_preset_runs_end_to_end():
    sim = Simulator(seed=5)
    machine = Machine(sim, IVY_BRIDGE)
    os = SimOS(machine)
    quartz = Quartz(
        os,
        PCM.quartz_config(max_epoch_ns=100_000.0),
        calibration=calibrate_arch(IVY_BRIDGE),
    )
    quartz.attach()
    out = {}

    def body(ctx):
        from repro.hw.topology import PageSize
        from repro.units import GIB

        region = ctx.pmalloc(2 * GIB, page_size=PageSize.HUGE_2M)
        start = ctx.now_ns
        yield MemBatch(region, 100_000, PatternKind.CHASE)
        out["latency"] = (ctx.now_ns - start) / 100_000

    os.create_thread(body)
    os.run_to_completion()
    assert out["latency"] == pytest.approx(PCM.read_latency_ns, rel=0.05)


# ----------------------------------------------------------------------
# Asymmetric bandwidth configuration
# ----------------------------------------------------------------------
def test_asymmetric_config_validation():
    with pytest.raises(QuartzError, match="both read and write"):
        QuartzConfig(nvm_read_bandwidth_gbps=10.0)
    with pytest.raises(QuartzError):
        QuartzConfig(nvm_read_bandwidth_gbps=10.0,
                     nvm_write_bandwidth_gbps=0.0)


def _stream_bandwidths(rw_supported: bool):
    """Achieved read and write stream bandwidths under asymmetric NVM."""
    sim = Simulator(seed=6)
    machine = Machine(sim, IVY_BRIDGE, rw_throttle_supported=rw_supported)
    os = SimOS(machine)
    quartz = Quartz(
        os,
        QuartzConfig(
            nvm_read_latency_ns=200.0,
            nvm_read_bandwidth_gbps=10.0,
            nvm_write_bandwidth_gbps=2.0,
        ),
        calibration=calibrate_arch(IVY_BRIDGE),
    )
    quartz.attach()
    results = {}

    def reader(ctx, region, nbytes):
        start = ctx.now_ns
        yield MemBatch(
            region, nbytes // 8, PatternKind.SEQUENTIAL, stride_bytes=8,
            footprint_bytes=nbytes,
        )
        results["read"] = nbytes / (ctx.now_ns - start)

    def writer(ctx, region, nbytes):
        start = ctx.now_ns
        yield MemBatch(
            region, nbytes // 8, PatternKind.SEQUENTIAL, stride_bytes=8,
            is_store=True, non_temporal=True, footprint_bytes=nbytes,
        )
        results["write"] = nbytes / (ctx.now_ns - start)

    def main(ctx):
        nbytes = 128 * MIB
        read_region = ctx.pmalloc(nbytes, label="reads")
        write_region = ctx.pmalloc(nbytes, label="writes")
        r = yield SpawnThread(reader, args=(read_region, nbytes))
        w = yield SpawnThread(writer, args=(write_region, nbytes))
        yield JoinThread(r)
        yield JoinThread(w)

    os.create_thread(main)
    os.run_to_completion()
    return results


def test_asymmetric_throttling_on_capable_hardware():
    results = _stream_bandwidths(rw_supported=True)
    # Reads near 10 GB/s (sequential-read demand misses stay visible),
    # writes pinned at ~2 GB/s.
    assert results["write"] == pytest.approx(2.0, rel=0.15)
    assert results["read"] > 3 * results["write"]


def test_asymmetric_throttling_rejected_on_paper_hardware():
    """The footnote-2 outcome: registers present but non-functional."""
    with pytest.raises(UnsupportedFeatureError):
        _stream_bandwidths(rw_supported=False)
