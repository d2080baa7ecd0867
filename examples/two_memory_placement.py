#!/usr/bin/env python3
"""Data placement on a DRAM + NVM system (Section 3.3).

The question a DRAM + NVM system raises: *given fast-small DRAM and
slow-large NVM, where should each data structure live?*  A KV-store
shaped workload keeps a hot index and a cold value heap; we compare three
placements under Quartz's virtual topology on Ivy Bridge, emulated as a
two-tier ladder (tier 0 local DRAM, tier 1 NVM on the sibling socket):

  1. everything in DRAM (malloc)        — the infeasible-at-scale ideal;
  2. index in DRAM, values in NVM       — the paper's guidance: "use
     malloc for frequently accessed structures, pmalloc for larger,
     less-frequently accessed data";
  3. everything in NVM (pmalloc)        — the naive port.

Run:  python examples/two_memory_placement.py
"""

from repro import (
    IVY_BRIDGE,
    Machine,
    MemBatch,
    MemoryTier,
    PageSize,
    PatternKind,
    Quartz,
    QuartzConfig,
    SimOS,
    Simulator,
    TierLadder,
    calibrate_arch,
)
from repro.units import GIB, MIB

NVM_LATENCY_NS = 600.0
OPERATIONS = 200_000
INDEX_BYTES = 48 * MIB   # hot: touched ~3x per op (tree walk)
VALUES_BYTES = 4 * GIB   # cold: touched once per op


def run_placement(index_in_nvm: bool, values_in_nvm: bool) -> float:
    sim = Simulator(seed=11)
    machine = Machine(sim, IVY_BRIDGE)
    os = SimOS(machine)
    calibration = calibrate_arch(IVY_BRIDGE)
    dram_ns = calibration.dram_local_ns
    quartz = Quartz(
        os,
        QuartzConfig(
            ladder=TierLadder((
                MemoryTier("dram", dram_ns, dram_ns),
                MemoryTier("nvm", NVM_LATENCY_NS, NVM_LATENCY_NS),
            )),
        ),
        calibration=calibration,
    )
    quartz.attach()
    elapsed = {}

    def app(ctx):
        alloc_index = ctx.pmalloc if index_in_nvm else ctx.malloc
        alloc_values = ctx.pmalloc if values_in_nvm else ctx.malloc
        index = alloc_index(INDEX_BYTES, page_size=PageSize.HUGE_2M,
                            label="index")
        values = alloc_values(VALUES_BYTES, page_size=PageSize.HUGE_2M,
                              label="values")
        start = ctx.now_ns
        for _ in range(10):  # batches keep epochs flowing
            yield MemBatch(
                index, 3 * OPERATIONS // 10, PatternKind.RANDOM,
                parallelism=2, compute_cycles_per_access=60,
                label="index-walk",
            )
            yield MemBatch(
                values, OPERATIONS // 10, PatternKind.RANDOM,
                label="value-fetch",
            )
        elapsed["ns"] = ctx.now_ns - start

    os.create_thread(app, name="app")
    os.run_to_completion()
    return elapsed["ns"]


def main() -> None:
    print(
        f"two-memory emulation on {IVY_BRIDGE.model}: DRAM "
        f"{IVY_BRIDGE.dram_local.avg_ns:.0f} ns, virtual NVM "
        f"{NVM_LATENCY_NS:.0f} ns\n"
    )
    placements = [
        ("index DRAM, values DRAM (ideal)", False, False),
        ("index DRAM, values NVM (recommended)", False, True),
        ("index NVM,  values NVM (naive port)", True, True),
    ]
    results = []
    for name, index_nvm, values_nvm in placements:
        elapsed = run_placement(index_nvm, values_nvm)
        results.append((name, elapsed))
        ops_per_s = OPERATIONS / elapsed * 1e9
        print(f"{name:40s} {elapsed / 1e6:8.1f} ms  ({ops_per_s / 1e6:.2f} M ops/s)")
    ideal = results[0][1]
    smart = results[1][1]
    naive = results[2][1]
    print(
        f"\nkeeping just the hot index in DRAM recovers "
        f"{100 * (naive - smart) / (naive - ideal):.0f}% of the gap "
        "between the naive port and the all-DRAM ideal —\n"
        "the data-placement trade-off the paper built the two-memory mode "
        "to let designers quantify."
    )


if __name__ == "__main__":
    main()
