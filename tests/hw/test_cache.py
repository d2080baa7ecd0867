"""Tests for the detailed and analytic cache models."""

import dataclasses

import pytest

from repro.errors import HardwareError
from repro.hw import IVY_BRIDGE, SANDY_BRIDGE, Machine
from repro.hw.cache import AnalyticCacheModel, CacheHierarchySim, SetAssociativeCache
from repro.hw.core import PLAN_LIMIT
from repro.hw.topology import MemoryRegion, PageSize
from repro.ops import MemBatch, PatternKind
from repro.sim import Interrupt, Simulator
from repro.units import CACHE_LINE_BYTES, GIB, KIB, MIB


def region(size, node=0, page=PageSize.SMALL_4K):
    return MemoryRegion(node=node, size_bytes=size, base=0, page_size=page)


# ----------------------------------------------------------------------
# Detailed set-associative simulator
# ----------------------------------------------------------------------
def test_cache_repeated_access_hits():
    cache = SetAssociativeCache(4 * KIB, ways=4)
    assert cache.access(0) is False  # cold miss
    assert cache.access(0) is True
    assert cache.access(32) is True  # same line
    assert cache.access(64) is False  # next line


def test_cache_capacity_eviction():
    cache = SetAssociativeCache(4 * KIB, ways=4)  # 64 lines
    for address in range(0, 8 * KIB, CACHE_LINE_BYTES):  # 128 lines
        cache.access(address)
    cache.reset_stats()
    # First lines were evicted.
    assert cache.access(0) is False


def test_cache_lru_within_set():
    # 2-way, 2-set cache: lines with same set index conflict.
    cache = SetAssociativeCache(4 * CACHE_LINE_BYTES, ways=2)
    sets = cache.sets
    a, b, c = 0, sets * CACHE_LINE_BYTES, 2 * sets * CACHE_LINE_BYTES
    cache.access(a)
    cache.access(b)
    cache.access(a)  # a is MRU
    cache.access(c)  # evicts b (LRU)
    assert cache.access(a) is True
    assert cache.access(b) is False


def test_cache_working_set_within_capacity_fully_hits():
    cache = SetAssociativeCache(64 * KIB, ways=8)
    addresses = list(range(0, 32 * KIB, CACHE_LINE_BYTES))
    for address in addresses:
        cache.access(address)
    cache.reset_stats()
    for _ in range(4):
        for address in addresses:
            cache.access(address)
    assert cache.hit_rate == 1.0


def test_cache_invalid_geometry_rejected():
    with pytest.raises(HardwareError):
        SetAssociativeCache(0, ways=4)
    with pytest.raises(HardwareError):
        SetAssociativeCache(100 * CACHE_LINE_BYTES, ways=7)


def test_hierarchy_serves_from_first_fitting_level():
    hierarchy = CacheHierarchySim(IVY_BRIDGE)
    assert hierarchy.access(0) == "dram"
    assert hierarchy.access(0) == "l1"


# ----------------------------------------------------------------------
# Analytic model
# ----------------------------------------------------------------------
def model(arch=IVY_BRIDGE):
    return AnalyticCacheModel(arch)


def test_chase_over_huge_array_all_misses():
    # The MemLat property (Section 4.4): array >> LLC => every access a miss.
    from repro.units import GIB

    r = region(8 * GIB)
    batch = MemBatch(r, accesses=10_000, pattern=PatternKind.CHASE)
    profile = model().resolve(batch)
    assert profile.demand_dram_loads / batch.accesses > 0.99
    assert profile.effective_mlp == 1.0
    assert profile.dram_bytes == pytest.approx(
        profile.demand_dram_loads * CACHE_LINE_BYTES
    )


def test_chase_within_l1_all_hits():
    r = region(16 * KIB)
    batch = MemBatch(r, accesses=1000, pattern=PatternKind.CHASE)
    profile = model().resolve(batch)
    assert profile.l1_hits == 1000
    assert profile.demand_dram_loads == 0


def test_multiple_chains_raise_mlp_up_to_mshr_limit():
    r = region(512 * MIB)
    for chains, expected in [(1, 1), (4, 4), (8, 8), (32, IVY_BRIDGE.mshr_count)]:
        batch = MemBatch(r, accesses=1000, pattern=PatternKind.CHASE, parallelism=chains)
        assert model().resolve(batch).effective_mlp == expected


def test_serialized_accesses_scale_inversely_with_mlp():
    r = region(512 * MIB)
    one = model().resolve(MemBatch(r, 1000, PatternKind.CHASE, parallelism=1))
    four = model().resolve(MemBatch(r, 1000, PatternKind.CHASE, parallelism=4))
    assert one.serialized_dram_accesses == pytest.approx(
        4 * four.serialized_dram_accesses
    )


def test_hit_fractions_sum_to_accesses():
    r = region(40 * MIB)  # straddles LLC capacity
    batch = MemBatch(r, accesses=10_000, pattern=PatternKind.RANDOM)
    profile = model().resolve(batch)
    total = (
        profile.l1_hits + profile.l2_hits + profile.l3_hits + profile.demand_dram_loads
    )
    assert total == pytest.approx(batch.accesses)


def test_footprint_override_controls_hit_rate():
    r = region(512 * MIB)
    hot = MemBatch(r, 1000, PatternKind.RANDOM, footprint_bytes=8 * KIB)
    profile = model().resolve(hot)
    assert profile.l1_hits == 1000


def test_sequential_prefetch_covers_most_misses():
    from repro.units import GIB

    r = region(8 * GIB)  # LLC-resident fraction negligible
    batch = MemBatch(r, accesses=80_000, pattern=PatternKind.SEQUENTIAL, stride_bytes=8)
    profile = model().resolve(batch)
    lines = 80_000 / 8
    assert profile.prefetched_lines == pytest.approx(
        lines * IVY_BRIDGE.prefetch_coverage, rel=0.01
    )
    assert profile.demand_dram_loads == pytest.approx(
        lines * (1 - IVY_BRIDGE.prefetch_coverage), rel=0.02
    )
    # All traffic still reaches DRAM.
    assert profile.dram_bytes == pytest.approx(lines * CACHE_LINE_BYTES, rel=0.01)
    # Within-line accesses hit L1.
    assert profile.l1_hits == pytest.approx(80_000 - lines)


def test_prefetched_lines_retire_as_l3_hits_in_pmc_view():
    r = region(512 * MIB)
    batch = MemBatch(r, accesses=8_000, pattern=PatternKind.SEQUENTIAL, stride_bytes=8)
    profile = model().resolve(batch)
    assert profile.pmc_l3_hits == pytest.approx(
        profile.l3_hits + profile.prefetched_lines
    )


def test_store_batch_charges_rfo_and_writeback_traffic():
    r = region(512 * MIB)
    load = model().resolve(MemBatch(r, 1000, PatternKind.RANDOM))
    store = model().resolve(MemBatch(r, 1000, PatternKind.RANDOM, is_store=True))
    assert store.dram_bytes == pytest.approx(2 * load.dram_bytes)
    assert store.pmc_l3_hits == 0.0  # load events do not count stores
    assert store.pmc_dram_loads == 0.0


def test_non_temporal_store_bypasses_cache_and_rfo():
    r = region(512 * MIB)
    batch = MemBatch(
        r, accesses=8_000, pattern=PatternKind.SEQUENTIAL, stride_bytes=8,
        is_store=True, non_temporal=True,
    )
    profile = model().resolve(batch)
    lines = 8_000 / 8
    assert profile.dram_bytes == pytest.approx(lines * CACHE_LINE_BYTES)
    assert profile.demand_dram_loads == 0.0


def test_non_temporal_load_rejected():
    r = region(MIB)
    batch = MemBatch(r, 10, PatternKind.SEQUENTIAL, non_temporal=True)
    with pytest.raises(HardwareError):
        model().resolve(batch)


def test_llc_sharing_reduces_effective_capacity():
    r = region(20 * MIB)
    alone = AnalyticCacheModel(IVY_BRIDGE)
    shared = AnalyticCacheModel(IVY_BRIDGE)
    shared.llc_sharers = 8
    p_alone = alone.resolve(MemBatch(r, 10_000, PatternKind.RANDOM))
    p_shared = shared.resolve(MemBatch(r, 10_000, PatternKind.RANDOM))
    assert p_shared.demand_dram_loads > p_alone.demand_dram_loads


def test_hugepages_eliminate_tlb_walks_for_memlat_sized_arrays():
    # Section 4.4: MemLat uses 2 MB hugepages to minimise TLB misses.
    small = region(512 * MIB, page=PageSize.SMALL_4K)
    huge = region(512 * MIB, page=PageSize.HUGE_2M)
    walks_small = model().resolve(MemBatch(small, 10_000, PatternKind.CHASE)).tlb_walks
    walks_huge = model().resolve(MemBatch(huge, 10_000, PatternKind.CHASE)).tlb_walks
    assert walks_small > 1000
    assert walks_huge == 0.0


def test_empty_batch_resolves_to_zeroes():
    r = region(MIB)
    profile = model().resolve(MemBatch(r, 0, PatternKind.RANDOM))
    assert profile.accesses == 0
    assert profile.dram_bytes == 0.0


def test_freed_region_rejected():
    r = region(MIB)
    r.freed = True
    with pytest.raises(HardwareError, match="use after free"):
        model().resolve(MemBatch(r, 10, PatternKind.RANDOM))


# ----------------------------------------------------------------------
# Memo of a batch's shape: each core's batch plans (repro.hw.core)
# ----------------------------------------------------------------------
MEMO_SHAPES = {
    "chase": dict(pattern=PatternKind.CHASE, parallelism=4),
    "random-store": dict(pattern=PatternKind.RANDOM, is_store=True),
    "sequential": dict(pattern=PatternKind.SEQUENTIAL, stride_bytes=8),
    "nt-store": dict(
        pattern=PatternKind.SEQUENTIAL, stride_bytes=8, is_store=True,
        non_temporal=True, dram_bytes_multiplier=2.0,
    ),
    "hot-footprint": dict(pattern=PatternKind.RANDOM, footprint_bytes=40 * MIB),
}


def make_machine():
    return Machine(Simulator(seed=1), IVY_BRIDGE)


def execute_batch(machine, batch, core_id=0):
    """Run *batch* to completion on one core; return its duration and the
    core's true PMC counts and stats after it."""
    core = machine.core(core_id)
    outcome = {}

    def proc():
        wait, token = core.execute(None, batch)
        if wait is not None:
            yield wait
            token = core.finish(token)
        outcome["duration"] = token.duration_ns

    machine.sim.spawn(proc())
    machine.sim.run()
    pmc = machine.pmc(core_id)
    counts = {
        event: pmc.true_value(event)
        for event in machine.arch.counter_events.all_events()
    }
    return outcome["duration"], counts, dataclasses.asdict(core.stats)


@pytest.mark.parametrize("shape", sorted(MEMO_SHAPES))
def test_memo_hit_equals_a_fresh_models_profile(shape):
    warm, cold = make_machine(), make_machine()
    batch = MemBatch(warm.allocate(512 * MIB, node=0), 10_000, **MEMO_SHAPES[shape])
    twin = MemBatch(cold.allocate(512 * MIB, node=0), 10_000, **MEMO_SHAPES[shape])
    assert execute_batch(warm, batch) == execute_batch(cold, twin)
    plan = warm.core(0)._plans[id(batch)]
    assert plan.profile == model().resolve(batch)
    # The second run is a plan hit; its twin re-derives everything.
    cold.core(0)._plans.clear()
    assert execute_batch(warm, batch) == execute_batch(cold, twin)
    assert warm.core(0)._plans[id(batch)] is plan


def test_changing_llc_sharers_changes_the_next_result():
    r = region(20 * MIB)
    batch = MemBatch(r, 10_000, PatternKind.RANDOM)
    shared = model()
    alone = shared.resolve(batch)
    shared.llc_sharers = 8
    crowded = shared.resolve(batch)
    assert crowded.demand_dram_loads > alone.demand_dram_loads
    shared.llc_sharers = 1
    assert shared.resolve(batch) == alone


def test_freed_region_rejected_on_a_memo_hit():
    machine = make_machine()
    r = machine.allocate(MIB, node=0)
    batch = MemBatch(r, 10, PatternKind.RANDOM)
    execute_batch(machine, batch)
    assert id(batch) in machine.core(0)._plans
    machine.free(r)
    with pytest.raises(HardwareError, match="use after free"):
        machine.core(0).execute(None, batch)


def test_non_temporal_load_rejected_on_every_call():
    machine = make_machine()
    core = machine.core(0)
    r = machine.allocate(MIB, node=0)
    # The same shape as a store is legal and gets a plan first.
    execute_batch(machine, MemBatch(r, 10, PatternKind.SEQUENTIAL, is_store=True,
                                    non_temporal=True))
    batch = MemBatch(r, 10, PatternKind.SEQUENTIAL, non_temporal=True)
    for _ in range(3):
        with pytest.raises(HardwareError, match="non-temporal"):
            core.execute(None, batch)
    assert id(batch) not in core._plans


def test_memo_stays_bounded_over_many_distinct_access_counts():
    """Every interrupted batch's remainder is a new op with a new access
    count; the plan table starts over instead of growing."""
    machine = make_machine()
    core = machine.core(0)
    r = machine.allocate(8 * GIB, node=0, page_size=PageSize.HUGE_2M)
    interrupts = PLAN_LIMIT + 100
    remainders = []

    def proc():
        op = MemBatch(r, 10_000_000, PatternKind.CHASE)
        while op is not None:
            wait, token = core.execute(None, op)
            assert len(core._plans) <= PLAN_LIMIT
            try:
                yield wait
            except Interrupt as interrupt:
                op = core.abort(token, interrupt).remainder
                remainders.append(op)
            else:
                core.finish(token)
                op = None

    process = machine.sim.spawn(proc())
    for index in range(1, interrupts + 1):
        machine.sim.schedule(index * 1_000.0, lambda: process.interrupt("sig"))
    machine.sim.run()
    assert len({op.accesses for op in remainders}) == interrupts
    assert len(core._plans) <= PLAN_LIMIT
    # A plan made after the table started over is still exact.
    last = remainders[-1]
    assert core._plans[id(last)].profile == model().resolve(last)


def test_batch_profile_is_frozen():
    profile = model().resolve(MemBatch(region(MIB), 10, PatternKind.RANDOM))
    with pytest.raises(dataclasses.FrozenInstanceError):
        profile.dram_bytes = 0.0


# ----------------------------------------------------------------------
# Cross-validation: analytic vs detailed simulator
# ----------------------------------------------------------------------
@pytest.mark.parametrize("footprint_mib", [1, 8, 64])
def test_analytic_matches_detailed_for_random_access(footprint_mib):
    """The capacity heuristic should track the functional LRU simulator."""
    import random as stdlib_random

    arch = SANDY_BRIDGE
    footprint = footprint_mib * MIB
    hierarchy = CacheHierarchySim(arch)
    rng = stdlib_random.Random(42)
    addresses = [
        rng.randrange(0, footprint // CACHE_LINE_BYTES) * CACHE_LINE_BYTES
        for _ in range(20_000)
    ]
    # Deterministic warmup: touch every line once so the steady state the
    # analytic model assumes (no cold misses) is reached.
    for line_base in range(0, footprint, CACHE_LINE_BYTES):
        hierarchy.access(line_base)
    served = {"l1": 0, "l2": 0, "l3": 0, "dram": 0}
    for address in addresses:
        served[hierarchy.access(address)] += 1
    measured_miss_rate = served["dram"] / 20_000

    r = region(footprint)
    profile = AnalyticCacheModel(arch).resolve(
        MemBatch(r, 20_000, PatternKind.RANDOM)
    )
    analytic_miss_rate = profile.demand_dram_loads / 20_000
    assert analytic_miss_rate == pytest.approx(measured_miss_rate, abs=0.08)
