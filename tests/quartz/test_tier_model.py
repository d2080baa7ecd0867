"""The N-tier hybrid-memory model: equations, directory, policies, wiring."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QuartzError
from repro.hw import IVY_BRIDGE, Machine
from repro.hw.topology import PageSize
from repro.ops import MemBatch, PatternKind
from repro.os import SimOS
from repro.quartz import Quartz, QuartzConfig, calibrate_arch
from repro.quartz.model import (
    eq1_simple_delay,
    eq2_delay_from_stalls,
    eq3_ldm_stall,
    eq4_remote_stall_split,
    eqN_tier_stall_split,
    tier_direction_delay,
)
from repro.quartz.tiers import (
    HotPromotePlacement,
    MemoryTier,
    RoundRobinPlacement,
    StaticPlacement,
    TierDirectory,
    TierLadder,
)
from repro.sim import Simulator
from repro.units import GIB, MIB, MILLISECOND

# ----------------------------------------------------------------------
# The generalized Eq. (4)
# ----------------------------------------------------------------------
positive_latency = st.floats(1.0, 2000.0)
reference_count = st.floats(0.0, 1e9)


@settings(max_examples=120, deadline=None)
@given(
    st.floats(0.0, 1e9),
    reference_count,
    reference_count,
    positive_latency,
    positive_latency,
)
def test_property_eqN_two_tiers_bit_identical_to_eq4(
    total, local, remote, lat_local, lat_remote
):
    """For 2 tiers the remote share must equal Eq. (4) *bit for bit* —
    the paper's DRAM + NVM equation is the two-tier case of the ladder."""
    shares = eqN_tier_stall_split(
        total, (local, remote), (lat_local, lat_remote)
    )
    expected = eq4_remote_stall_split(total, local, remote, lat_local, lat_remote)
    assert shares[1] == expected  # exact equality, not approx


@settings(max_examples=120, deadline=None)
@given(
    st.floats(0.0, 1e9),
    st.lists(reference_count, min_size=2, max_size=6),
    st.data(),
)
def test_property_eqN_conserves_and_bounds(total, references, data):
    latencies = [
        data.draw(positive_latency) for _ in references
    ]
    shares = eqN_tier_stall_split(total, references, latencies)
    assert len(shares) == len(references)
    for share in shares:
        assert 0.0 <= share <= total * (1 + 1e-12)
    if sum(references) > 0 and total > 0:
        assert math.isclose(sum(shares), total, rel_tol=1e-9, abs_tol=1e-6)


def test_eqN_survives_subnormal_reference_counts():
    tiny = 5e-324  # the smallest positive subnormal
    total = 1000.0
    shares = eqN_tier_stall_split(
        total, (tiny, tiny, tiny), (100.0, 200.0, 300.0)
    )
    assert all(0.0 <= share <= total for share in shares)
    assert math.isclose(sum(shares), total, rel_tol=1e-9)


def test_eqN_validates_inputs():
    with pytest.raises(QuartzError, match="mismatch"):
        eqN_tier_stall_split(1.0, (1.0, 2.0), (100.0,))
    with pytest.raises(QuartzError, match="at least one"):
        eqN_tier_stall_split(1.0, (), ())
    with pytest.raises(QuartzError, match="negative stall"):
        eqN_tier_stall_split(-1.0, (1.0,), (100.0,))
    with pytest.raises(QuartzError, match="negative reference"):
        eqN_tier_stall_split(1.0, (-1.0,), (100.0,))
    with pytest.raises(QuartzError, match="positive"):
        eqN_tier_stall_split(1.0, (1.0,), (0.0,))


def test_eqN_zero_references_give_zero_shares():
    assert eqN_tier_stall_split(100.0, (0.0, 0.0), (100.0, 200.0)) == (0.0, 0.0)


# ----------------------------------------------------------------------
# Per-direction (read/write) delay
# ----------------------------------------------------------------------
def test_tier_direction_delay_splits_by_reference_proportion():
    read_delay, write_delay = tier_direction_delay(
        300.0, 200.0, 100.0, 400.0, 800.0, 200.0
    )
    # 2/3 of the stall is reads at (400-200)/200 = 1x; 1/3 writes at 3x.
    assert read_delay == pytest.approx(200.0)
    assert write_delay == pytest.approx(300.0)


def test_tier_direction_delay_defaults_to_reads():
    read_delay, write_delay = tier_direction_delay(
        100.0, 0.0, 0.0, 400.0, 800.0, 200.0
    )
    assert read_delay == pytest.approx(100.0)
    assert write_delay == 0.0


@settings(max_examples=80, deadline=None)
@given(
    st.floats(0.0, 1e7),
    reference_count,
    reference_count,
    st.floats(200.0, 2000.0),
    st.floats(200.0, 2000.0),
)
def test_property_tier_direction_delay_non_negative(
    stall, reads, writes, read_lat, write_lat
):
    read_delay, write_delay = tier_direction_delay(
        stall, reads, writes, read_lat, write_lat, 200.0
    )
    assert read_delay >= 0.0 and write_delay >= 0.0


# ----------------------------------------------------------------------
# Satellite fixes: Eq. (3) raise, equal-latency gate
# ----------------------------------------------------------------------
def test_eq3_raises_on_stalls_without_references():
    with pytest.raises(QuartzError) as excinfo:
        eq3_ldm_stall(500.0, 0.0, 0.0, 10.0)
    message = str(excinfo.value)
    assert "Eq. (3)" in message and "500" in message and "hits=0" in message


def test_eq3_zero_stalls_zero_references_is_zero():
    assert eq3_ldm_stall(0.0, 0.0, 0.0, 10.0) == 0.0


@pytest.mark.parametrize("eq", [eq1_simple_delay, eq2_delay_from_stalls])
def test_equal_latencies_explicitly_allowed(eq):
    assert eq(1000.0, 150.0, 150.0) == 0.0


def test_latency_gate_error_names_equation_and_values():
    with pytest.raises(QuartzError) as excinfo:
        eq2_delay_from_stalls(1000.0, 90.0, 150.0)
    message = str(excinfo.value)
    assert "Eq. (2)" in message
    assert "90.0" in message and "150.0" in message
    assert "equal latencies are allowed" in message


# ----------------------------------------------------------------------
# Tier specs, directory, policies
# ----------------------------------------------------------------------
def _tiers(count=3):
    ladder = [MemoryTier("dram", 87.0, 87.0)]
    for index in range(1, count):
        ladder.append(
            MemoryTier(
                f"tier{index}", 200.0 * index + 100, 300.0 * index + 100,
                capacity_bytes=GIB,
            )
        )
    return tuple(ladder)


class _Region:
    _next_id = 1000

    def __init__(self, size_bytes):
        _Region._next_id += 1
        self.region_id = _Region._next_id
        self.size_bytes = size_bytes


def test_memory_tier_validation():
    with pytest.raises(QuartzError, match="name"):
        MemoryTier("", 100.0, 100.0)
    with pytest.raises(QuartzError, match="read latency"):
        MemoryTier("x", 0.0, 100.0)
    with pytest.raises(QuartzError, match="write latency"):
        MemoryTier("x", 100.0, -1.0)
    with pytest.raises(QuartzError, match="bandwidth"):
        MemoryTier("x", 100.0, 100.0, bandwidth_gbps=0.0)
    with pytest.raises(QuartzError, match="capacity"):
        MemoryTier("x", 100.0, 100.0, capacity_bytes=0)
    for bad in (math.nan, math.inf):
        with pytest.raises(QuartzError, match="read latency must be finite"):
            MemoryTier("x", bad, 100.0)
        with pytest.raises(QuartzError, match="write latency must be finite"):
            MemoryTier("x", 100.0, bad)
        with pytest.raises(QuartzError, match="bandwidth must be finite"):
            MemoryTier("x", 100.0, 100.0, bandwidth_gbps=bad)


def test_tier_list_validation():
    with pytest.raises(QuartzError, match="at least 2"):
        TierLadder(_tiers()[:1])
    duplicate = (_tiers()[0], _tiers()[0])
    with pytest.raises(QuartzError, match="unique"):
        TierLadder(duplicate)


def test_directory_tracks_occupancy_and_migrations():
    directory = TierDirectory(tiers=_tiers(3))
    region = _Region(256 * MIB)
    directory.register(region, 2)
    assert directory.tier_of(region.region_id) == 2
    assert directory.allocated_bytes[2] == 256 * MIB
    directory.migrate(region.region_id, 1)
    assert directory.tier_of(region.region_id) == 1
    assert directory.allocated_bytes[2] == 0
    assert directory.migrations == 1
    assert directory.migrated_bytes == 256 * MIB
    directory.unregister(region)
    assert directory.tier_of(region.region_id) is None
    report = directory.report()
    assert report["migrations"] == 1


def test_directory_rejects_dram_tier_placement():
    directory = TierDirectory(tiers=_tiers(3))
    with pytest.raises(QuartzError, match="tier 0"):
        directory.register(_Region(MIB), 0)


def test_static_placement_defaults_to_slowest_tier():
    directory = TierDirectory(tiers=_tiers(4))
    policy = StaticPlacement()
    assert policy.place(MIB, directory) == 3


def test_static_placement_cycles_declared_order():
    directory = TierDirectory(tiers=_tiers(4))
    policy = StaticPlacement(order=(1, 3))
    picks = [policy.place(MIB, directory) for _ in range(4)]
    assert picks == [1, 3, 1, 3]


def test_round_robin_spreads_across_tiers():
    directory = TierDirectory(tiers=_tiers(4))
    policy = RoundRobinPlacement()
    picks = [policy.place(MIB, directory) for _ in range(5)]
    assert picks == [1, 2, 3, 1, 2]


def test_capacity_pressure_degrades_to_next_tier():
    tiers = (
        MemoryTier("dram", 87.0, 87.0),
        MemoryTier("small", 300.0, 400.0, capacity_bytes=MIB),
        MemoryTier("big", 600.0, 900.0),
    )
    directory = TierDirectory(tiers=tiers)
    policy = StaticPlacement(order=(1,))
    first = policy.place(MIB, directory)
    assert first == 1
    directory.register(_Region(MIB), first)
    # Tier 1 is now full: the next allocation overflows to tier 2.
    assert policy.place(MIB, directory) == 2


def test_hot_promote_promotes_after_threshold():
    directory = TierDirectory(tiers=_tiers(3))
    policy = HotPromotePlacement(threshold_accesses=100)
    region = _Region(MIB)
    directory.register(region, 2)
    assert policy.maybe_promote(region.region_id, 50, directory) is None
    assert policy.maybe_promote(region.region_id, 150, directory) == 1
    directory.migrate(region.region_id, 1)
    # Already in the fastest emulated tier: no further promotion.
    assert policy.maybe_promote(region.region_id, 500, directory) is None


def test_build_policy_validates():
    assert TierLadder(_tiers()).new_policy().name == "static"
    assert TierLadder(_tiers(), "round-robin").new_policy().name == (
        "round-robin"
    )
    hot = TierLadder(_tiers(), "hot-promote", promote_threshold_accesses=5)
    assert hot.new_policy().name == "hot-promote"
    assert hot.new_policy() is not hot.new_policy()  # fresh rotation state
    with pytest.raises(QuartzError, match="promote_threshold"):
        TierLadder(_tiers(), "hot-promote")
    with pytest.raises(QuartzError, match="unknown placement"):
        TierLadder(_tiers(), "lru")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"tiers": _tiers()[:1]}, "at least 2 tiers"),
        ({"tiers": (_tiers()[0], _tiers()[0])}, "unique"),
        ({"placement": "bogus"}, "unknown placement policy"),
        ({"placement": "hot-promote"}, "positive promote_threshold"),
        (
            {"placement": "hot-promote", "promote_threshold_accesses": 0},
            "positive promote_threshold",
        ),
        (
            {"placement": "hot-promote", "promote_threshold_accesses": -3},
            "positive promote_threshold",
        ),
        ({"promote_threshold_accesses": 10}, "static placement never promotes"),
        (
            {"placement": "round-robin", "promote_threshold_accesses": 10},
            "round-robin placement never promotes",
        ),
        ({"placement": "round-robin", "order": (1,)}, "rotates over every"),
        ({"order": (7,)}, "placement order names tier 7"),
        ({"order": (1, 0)}, "placement order names tier 0"),
        (
            {"placement": "hot-promote", "promote_threshold_accesses": 5,
             "order": (3,)},
            "placement order names tier 3",
        ),
    ],
)
def test_tier_ladder_rejects(kwargs, message):
    """Every ladder rule, each checked once when the ladder is built."""
    kwargs = {"tiers": _tiers(), **kwargs}
    with pytest.raises(QuartzError, match=message):
        TierLadder(**kwargs)


def test_config_validates_placement_order_indices():
    with pytest.raises(QuartzError, match="placement order"):
        TierLadder(_tiers(3), order=(3,))


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
def test_config_rejects_nvm_read_latency_with_a_ladder():
    """A ladder's tiers carry the read latencies; a PM read target next to
    one would be dropped without a word, so the config refuses it."""
    with pytest.raises(QuartzError, match="nvm_read_latency_ns"):
        QuartzConfig(
            nvm_read_latency_ns=5000.0,
            ladder=TierLadder((
                MemoryTier("dram", 87.0, 87.0),
                MemoryTier("nvm", 400.0, 400.0),
            )),
        )
    # The field's default is what a ladder config carries.
    QuartzConfig(ladder=TierLadder(_tiers()))


# ----------------------------------------------------------------------
# End-to-end wiring
# ----------------------------------------------------------------------
def _make_stack(seed=3):
    sim = Simulator(seed=seed)
    machine = Machine(sim, IVY_BRIDGE)
    return machine, SimOS(machine)


def _run_mixed_chase(config):
    machine, osys = _make_stack()
    quartz = Quartz(osys, config, calibration=calibrate_arch(IVY_BRIDGE))
    quartz.attach()
    out = {}

    def body(ctx):
        dram = ctx.malloc(2 * GIB, page_size=PageSize.HUGE_2M)
        nvm = ctx.pmalloc(2 * GIB, page_size=PageSize.HUGE_2M)
        n = 40_000
        start = ctx.now_ns
        for _ in range(5):
            yield MemBatch(dram, n // 5, PatternKind.CHASE)
            yield MemBatch(nvm, n // 5, PatternKind.CHASE)
        out["elapsed"] = ctx.now_ns - start

    osys.create_thread(body)
    osys.run_to_completion()
    return out["elapsed"], quartz


#: ``_run_mixed_chase`` elapsed time under the former dedicated
#: two-memory mode (``nvm_read_latency_ns=600``), printed with ``repr`` at
#: the last commit that still had that mode.  The two-tier ladder took
#: over Section 3.3 and must keep reproducing it bit for bit.
TWO_MEM_MODE_MIXED_CHASE_NS = 27046384.736115437


def test_two_tier_multi_tier_equals_two_memory_exactly():
    """The DRAM+NVM special case must keep the former two-memory result
    bit for bit — the acceptance criterion behind the frozen figure14
    golden digest."""
    elapsed, _ = _run_mixed_chase(
        QuartzConfig(
            ladder=TierLadder((
                MemoryTier("dram", 87.0, 87.0),
                MemoryTier("nvm", 600.0, 600.0),
            )),
            max_epoch_ns=MILLISECOND,
        )
    )
    assert elapsed == TWO_MEM_MODE_MIXED_CHASE_NS  # exact, not approx


def test_three_tier_latencies_hit_targets():
    machine, osys = _make_stack()
    config = QuartzConfig(
        ladder=TierLadder(
            (
                MemoryTier("dram", 87.0, 87.0),
                MemoryTier("fast", 300.0, 400.0),
                MemoryTier("slow", 600.0, 900.0),
            ),
            order=(1, 2),
        ),
        max_epoch_ns=MILLISECOND,
    )
    quartz = Quartz(osys, config, calibration=calibrate_arch(IVY_BRIDGE))
    quartz.attach()
    out = {}

    def body(ctx):
        fast = ctx.pmalloc(2 * GIB, page_size=PageSize.HUGE_2M)
        slow = ctx.pmalloc(2 * GIB, page_size=PageSize.HUGE_2M)
        n = 50_000
        start = ctx.now_ns
        yield MemBatch(fast, n, PatternKind.CHASE)
        mid = ctx.now_ns
        yield MemBatch(slow, n, PatternKind.CHASE)
        out["fast"] = (mid - start) / n
        out["slow"] = (ctx.now_ns - mid) / n

    osys.create_thread(body)
    osys.run_to_completion()
    assert out["fast"] == pytest.approx(300.0, rel=0.03)
    assert out["slow"] == pytest.approx(600.0, rel=0.03)
    assert quartz.stats.tier_report["placements"] == {"1": 1, "2": 1}


def test_multi_tier_rejects_target_below_backing():
    machine, osys = _make_stack()
    config = QuartzConfig(
        ladder=TierLadder((
            MemoryTier("dram", 87.0, 87.0),
            MemoryTier("toofast", 100.0, 500.0),
        )),
    )
    quartz = Quartz(osys, config, calibration=calibrate_arch(IVY_BRIDGE))
    with pytest.raises(QuartzError, match="toofast.*read"):
        quartz.attach()


def test_per_tier_write_latency_prices_pflush():
    machine, osys = _make_stack()
    config = QuartzConfig(
        ladder=TierLadder(
            (
                MemoryTier("dram", 87.0, 87.0),
                MemoryTier("fast", 300.0, 500.0),
                MemoryTier("slow", 600.0, 1500.0),
            ),
            order=(1, 2),
        ),
    )
    quartz = Quartz(osys, config, calibration=calibrate_arch(IVY_BRIDGE))
    quartz.attach()
    timing = {}

    def body(ctx):
        fast = ctx.pmalloc(MIB)
        slow = ctx.pmalloc(MIB)
        start = ctx.now_ns
        for _ in range(10):
            yield from ctx.pflush(fast, lines=1)
        timing["fast"] = (ctx.now_ns - start) / 10
        start = ctx.now_ns
        for _ in range(10):
            yield from ctx.pflush(slow, lines=1)
        timing["slow"] = (ctx.now_ns - start) / 10

    osys.create_thread(body)
    osys.run_to_completion()
    # Each tier's flush pays its own write latency, not a global one.
    assert timing["fast"] == pytest.approx(500.0, rel=0.05)
    assert timing["slow"] == pytest.approx(1500.0, rel=0.05)


def test_tier_delay_conservation_invariant_holds():
    from repro.faults.invariants import InvariantMonitor

    machine, osys = _make_stack()
    config = QuartzConfig(
        ladder=TierLadder(
            (
                MemoryTier("dram", 87.0, 87.0),
                MemoryTier("fast", 300.0, 400.0),
                MemoryTier("slow", 600.0, 900.0),
            ),
            placement="round-robin",
        ),
        max_epoch_ns=MILLISECOND,
    )
    monitor = InvariantMonitor()
    monitor.attach_sim(machine.sim)
    quartz = Quartz(osys, config, calibration=calibrate_arch(IVY_BRIDGE))
    quartz.attach()

    def body(ctx):
        a = ctx.pmalloc(GIB, page_size=PageSize.HUGE_2M)
        b = ctx.pmalloc(GIB, page_size=PageSize.HUGE_2M)
        for _ in range(4):
            yield MemBatch(a, 10_000, PatternKind.CHASE)
            yield MemBatch(b, 10_000, PatternKind.CHASE)

    osys.create_thread(body)
    osys.run_to_completion()
    assert monitor.epoch_checks > 0
    assert not monitor.violations


def test_tiered_bandwidth_programs_tightest_register():
    machine, osys = _make_stack()
    config = QuartzConfig(
        ladder=TierLadder((
            MemoryTier("dram", 87.0, 87.0),
            MemoryTier("fast", 300.0, 400.0, bandwidth_gbps=20.0),
            MemoryTier("slow", 600.0, 900.0, bandwidth_gbps=5.0),
        )),
    )
    quartz = Quartz(osys, config, calibration=calibrate_arch(IVY_BRIDGE))
    quartz.attach()
    throttler = quartz._throttler
    assert set(throttler.tier_registers) == {"fast", "slow"}
    # The sibling node has one physical register: the tightest target wins.
    assert throttler.applied_register == throttler.tier_registers["slow"]
    quartz.detach()
