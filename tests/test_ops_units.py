"""Tests for the op definitions and unit conversions."""

import math

import pytest

from repro.errors import WorkloadError
from repro.hw.topology import MemoryRegion
from repro.ops import (
    Compute,
    Flush,
    FlushOpt,
    MemBatch,
    PatternKind,
    Sleep,
    Spin,
)
from repro.units import (
    CACHE_LINE_BYTES,
    GIB,
    KIB,
    MIB,
    MICROSECOND,
    MILLISECOND,
    SECOND,
    ClockDomain,
    bytes_per_ns_to_gb_per_s,
    gb_per_s_to_bytes_per_ns,
    ns_to_ms,
    ns_to_s,
    ns_to_us,
)


def region(size=64 * MIB):
    return MemoryRegion(node=0, size_bytes=size, base=0)


# ----------------------------------------------------------------------
# Units
# ----------------------------------------------------------------------
def test_time_constants():
    assert MICROSECOND == 1e3
    assert MILLISECOND == 1e6
    assert SECOND == 1e9
    assert ns_to_us(1500.0) == 1.5
    assert ns_to_ms(2.5e6) == 2.5
    assert ns_to_s(3e9) == 3.0


def test_size_constants():
    assert KIB == 1024
    assert MIB == 1024 * KIB
    assert GIB == 1024 * MIB
    assert CACHE_LINE_BYTES == 64


def test_bandwidth_conversions_are_identity():
    assert gb_per_s_to_bytes_per_ns(12.5) == 12.5
    assert bytes_per_ns_to_gb_per_s(12.5) == 12.5


def test_clock_domain():
    clock = ClockDomain(2.0)
    assert clock.cycle_ns == 0.5
    assert clock.cycles_to_ns(10.0) == 5.0
    assert clock.ns_to_cycles(5.0) == 10.0
    with pytest.raises(ValueError):
        ClockDomain(0.0)


# ----------------------------------------------------------------------
# Op validation
# ----------------------------------------------------------------------
def test_compute_and_spin_reject_negative():
    with pytest.raises(WorkloadError):
        Compute(-1.0)
    with pytest.raises(WorkloadError):
        Spin(-1.0)
    with pytest.raises(WorkloadError):
        Sleep(-1.0)


@pytest.mark.parametrize("op", [Compute, Spin, Sleep])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_time_bearing_ops_reject_nan_and_infinity(op, value):
    with pytest.raises(WorkloadError):
        op(value)


def test_membatch_validation():
    r = region()
    with pytest.raises(WorkloadError):
        MemBatch(r, -1, PatternKind.CHASE)
    with pytest.raises(WorkloadError):
        MemBatch(r, 1, PatternKind.CHASE, parallelism=0)
    with pytest.raises(WorkloadError):
        MemBatch(r, 1, PatternKind.SEQUENTIAL, stride_bytes=0)
    with pytest.raises(WorkloadError):
        MemBatch(r, 1, PatternKind.CHASE, overlap=1.5)
    with pytest.raises(WorkloadError):
        MemBatch(r, 1, PatternKind.CHASE, footprint_bytes=0)
    with pytest.raises(WorkloadError):
        MemBatch(r, 1, PatternKind.CHASE, dram_bytes_multiplier=0.0)
    # A negative per-access cost would shorten the batch and inflate its
    # stall charge; NaN or inf would poison every timing derived from it.
    for value in (math.nan, math.inf):
        with pytest.raises(WorkloadError):
            MemBatch(r, 1, PatternKind.CHASE, dram_bytes_multiplier=value)
    for value in (-1.0, math.nan, math.inf):
        with pytest.raises(WorkloadError):
            MemBatch(r, 1, PatternKind.CHASE, compute_cycles_per_access=value)


def test_membatch_effective_footprint_defaults_to_region():
    r = region(128 * MIB)
    assert MemBatch(r, 1, PatternKind.CHASE).effective_footprint == 128 * MIB
    assert (
        MemBatch(r, 1, PatternKind.CHASE, footprint_bytes=MIB)
        .effective_footprint
        == MIB
    )


def test_membatch_split_remainder():
    r = region()
    batch = MemBatch(r, 1000, PatternKind.CHASE, parallelism=4)
    remainder = batch.split_remainder(0.25)
    assert remainder.accesses == 750
    assert remainder.parallelism == 4
    assert remainder.region is r
    assert batch.split_remainder(1.0) is None
    assert batch.split_remainder(0.9999) is not None


def test_flush_ops_validation():
    r = region()
    with pytest.raises(WorkloadError):
        Flush(r, lines=0)
    with pytest.raises(WorkloadError):
        FlushOpt(r, lines=-1)


def test_ops_are_frozen():
    batch = MemBatch(region(), 10, PatternKind.CHASE)
    with pytest.raises(Exception):
        batch.accesses = 20
