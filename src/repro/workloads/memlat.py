"""MemLat — the memory-latency benchmark of Section 4.4.

From the paper: *"a memory-latency bound pointer-chasing benchmark with a
configurable degree of memory access parallelism.  The benchmark creates a
pointer chain as an array of 64-bit integer elements.  The contents of
each element dictate which one is read next; each element is read exactly
once.  We choose the array size to be much larger than the last-level
cache so that each access results in a cache miss served from memory."*

Multiple independent chains create memory-level parallelism; 2 MB
hugepages minimise TLB walks.  MemLat doubles as a latency *measurement*
tool (like Intel's Memory Latency Checker): completion time divided by
per-chain iterations is the average serialized access latency — the
quantity compared against the emulation target in Figure 12.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.hw.topology import PageSize
from repro.ops import MemBatch, PatternKind
from repro.units import MIB


@dataclass(frozen=True)
class MemLatConfig:
    """Parameters of one MemLat run."""

    #: Array size; must be much larger than the LLC (the all-miss
    #: property the model relies on).  Matches the calibration footprint
    #: so measured latencies are directly comparable.
    array_bytes: int = 4096 * MIB
    #: Pointer-chase iterations per chain.
    iterations: int = 200_000
    #: Independent chains = degree of memory access parallelism.
    chains: int = 1
    #: Back the array with 2 MB hugepages (the paper's setting).
    hugepages: bool = True
    #: Allocate the array with pmalloc (virtual NVM in tiered mode).
    persistent: bool = False
    #: Write the chain before chasing it (cold-start realism).
    initialize: bool = True

    def __post_init__(self) -> None:
        if self.array_bytes < 64 * MIB:
            raise WorkloadError(
                "MemLat array must be >> LLC; use at least 64 MiB "
                f"(got {self.array_bytes})"
            )
        if self.iterations <= 0:
            raise WorkloadError(f"iterations must be positive: {self.iterations}")
        if self.chains < 1:
            raise WorkloadError(f"need at least one chain: {self.chains}")


@dataclass
class MemLatResult:
    """Output of one MemLat run."""

    config: MemLatConfig
    elapsed_ns: float
    total_accesses: int

    @property
    def measured_latency_ns(self) -> float:
        """Average serialized access latency (the MLC-style measurement).

        Independent chains overlap, so latency is per *iteration* (one
        serialized step across all chains), not per access.
        """
        return self.elapsed_ns / self.config.iterations


def memlat_body(config: MemLatConfig, out: dict):
    """Workload body factory; the result lands in ``out['result']``."""

    def body(ctx):
        page = PageSize.HUGE_2M if config.hugepages else PageSize.SMALL_4K
        if config.persistent:
            region = ctx.pmalloc(config.array_bytes, page_size=page, label="memlat")
        else:
            region = ctx.malloc(config.array_bytes, page_size=page, label="memlat")
        if config.initialize:
            # Build the chain: write one next-pointer per element that the
            # chase will visit (the chain spans the whole array but only
            # ``iterations`` elements per chain exist to be linked).
            yield MemBatch(
                region,
                accesses=config.iterations * config.chains,
                pattern=PatternKind.RANDOM,
                is_store=True,
                parallelism=4,
                label="memlat-init",
            )
        total_accesses = config.iterations * config.chains
        start = ctx.now_ns
        yield MemBatch(
            region,
            accesses=total_accesses,
            pattern=PatternKind.CHASE,
            parallelism=config.chains,
            label="memlat-chase",
        )
        out["result"] = MemLatResult(
            config=config,
            elapsed_ns=ctx.now_ns - start,
            total_accesses=total_accesses,
        )
        return out["result"]

    return body
