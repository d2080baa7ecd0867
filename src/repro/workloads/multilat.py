"""MultiLat — the DRAM + NVM validation benchmark of Section 4.6.

A tailored MemLat extension: one pointer chain spread over *two* arrays,
the first in DRAM (``malloc``) and the second in NVM (``pmalloc``,
i.e. the sibling socket's DRAM under the virtual topology).  A recursive
access pattern — e.g. 200 DRAM accesses followed by 100 NVM accesses —
repeats until every element of both arrays has been read once.

The validation property: if the emulator splits stall cycles correctly
(Eq. 4), completion time is simply
``Num_DRAM * DRAM_lat + Num_NVM * NVM_lat`` *independent of the access
pattern* — which is what Figure 14 checks across four patterns and two
array-size configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import WorkloadError
from repro.hw.topology import PageSize
from repro.ops import MemBatch, PatternKind
from repro.units import MIB


@dataclass(frozen=True)
class MultiLatConfig:
    """Parameters of one MultiLat run.

    The default form is the paper's two-array benchmark.  Setting
    ``tier_elements`` switches to the N-tier generalization: one
    pmalloc'd array per emulated tier (allocation order matters — pin
    placement with a static ladder ``order`` of ``(1, 2, ..., K)``
    so array *i* lands in tier *i*), with the recursive pattern cycling
    DRAM then each tier in turn.  ``nvm_elements`` is ignored in that
    form; the closed form becomes
    ``N_DRAM * lat_DRAM + sum_i N_i * lat_i``.
    """

    #: Elements (one access each) in the DRAM-resident array (Num^DRAM).
    dram_elements: int = 200_000
    #: Elements in the NVM-resident array (Num^NVM).
    nvm_elements: int = 100_000
    #: Accesses per pattern repetition: (DRAM run, NVM run);
    #: e.g. (200, 100) is the paper's Pattern-4.
    pattern: tuple[int, int] = (200, 100)
    #: Array sizes; must dwarf the LLC (every access misses).
    dram_array_bytes: int = 4096 * MIB
    nvm_array_bytes: int = 4096 * MIB
    #: N-tier form: elements per emulated tier (one array each).
    tier_elements: Optional[tuple[int, ...]] = None
    #: N-tier form: accesses per repetition per tier (defaults to the
    #: DRAM run scaled by each tier's element share).
    tier_pattern: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.dram_elements < 0 or self.nvm_elements < 0:
            raise WorkloadError("element counts cannot be negative")
        dram_run, nvm_run = self.pattern
        if dram_run <= 0 or nvm_run <= 0:
            raise WorkloadError(f"pattern runs must be positive: {self.pattern}")
        if min(self.dram_array_bytes, self.nvm_array_bytes) < 64 * MIB:
            raise WorkloadError("arrays must be much larger than the LLC")
        if self.tier_elements is None:
            if self.tier_pattern is not None:
                raise WorkloadError("tier_pattern requires tier_elements")
            if self.dram_elements + self.nvm_elements == 0:
                raise WorkloadError("benchmark needs at least one access")
            return
        if not self.tier_elements:
            raise WorkloadError("tier_elements cannot be empty")
        if any(count < 0 for count in self.tier_elements):
            raise WorkloadError("element counts cannot be negative")
        if self.dram_elements + sum(self.tier_elements) == 0:
            raise WorkloadError("benchmark needs at least one access")
        if self.tier_pattern is not None:
            if len(self.tier_pattern) != len(self.tier_elements):
                raise WorkloadError(
                    f"tier_pattern has {len(self.tier_pattern)} runs for "
                    f"{len(self.tier_elements)} tiers"
                )
            if any(run <= 0 for run in self.tier_pattern):
                raise WorkloadError(
                    f"pattern runs must be positive: {self.tier_pattern}"
                )

    @property
    def effective_tier_pattern(self) -> tuple[int, ...]:
        """Per-tier burst lengths of the N-tier form."""
        assert self.tier_elements is not None
        if self.tier_pattern is not None:
            return self.tier_pattern
        dram_run, _ = self.pattern
        total = max(1, self.dram_elements)
        return tuple(
            max(1, round(dram_run * count / total))
            for count in self.tier_elements
        )


@dataclass
class MultiLatResult:
    """Output of one MultiLat run."""

    config: MultiLatConfig
    elapsed_ns: float

    def expected_completion_ns(
        self, dram_latency_ns: float, nvm_latency_ns: float
    ) -> float:
        """The Section 4.6 closed form: CT = N_D*lat_D + N_N*lat_N."""
        return (
            self.config.dram_elements * dram_latency_ns
            + self.config.nvm_elements * nvm_latency_ns
        )

    def emulation_error(
        self, dram_latency_ns: float, nvm_latency_ns: float
    ) -> float:
        """Relative error vs. the closed-form expectation."""
        expected = self.expected_completion_ns(dram_latency_ns, nvm_latency_ns)
        return abs(self.elapsed_ns - expected) / expected

    def expected_tiered_completion_ns(
        self, dram_latency_ns: float, tier_latencies_ns: "tuple[float, ...]"
    ) -> float:
        """N-tier closed form: CT = N_DRAM*lat_DRAM + sum_i N_i*lat_i."""
        assert self.config.tier_elements is not None
        if len(tier_latencies_ns) != len(self.config.tier_elements):
            raise WorkloadError(
                f"{len(tier_latencies_ns)} latencies for "
                f"{len(self.config.tier_elements)} tiers"
            )
        return self.config.dram_elements * dram_latency_ns + sum(
            count * latency
            for count, latency in zip(self.config.tier_elements, tier_latencies_ns)
        )

    def tiered_emulation_error(
        self, dram_latency_ns: float, tier_latencies_ns: "tuple[float, ...]"
    ) -> float:
        """Relative error vs. the N-tier closed form."""
        expected = self.expected_tiered_completion_ns(
            dram_latency_ns, tier_latencies_ns
        )
        return abs(self.elapsed_ns - expected) / expected


def multilat_body(config: MultiLatConfig, out: dict):
    """Workload body factory; the result lands in ``out['result']``."""

    if config.tier_elements is not None:
        return _tiered_multilat_body(config, out)

    def body(ctx):
        dram = ctx.malloc(
            config.dram_array_bytes, page_size=PageSize.HUGE_2M, label="multilat-dram"
        )
        nvm = ctx.pmalloc(
            config.nvm_array_bytes, page_size=PageSize.HUGE_2M, label="multilat-nvm"
        )
        dram_left = config.dram_elements
        nvm_left = config.nvm_elements
        dram_run, nvm_run = config.pattern
        start = ctx.now_ns
        while dram_left > 0 or nvm_left > 0:
            if dram_left > 0:
                burst = min(dram_run, dram_left)
                dram_left -= burst
                yield MemBatch(
                    dram, burst, PatternKind.CHASE, label="multilat-dram"
                )
            if nvm_left > 0:
                burst = min(nvm_run, nvm_left)
                nvm_left -= burst
                yield MemBatch(nvm, burst, PatternKind.CHASE, label="multilat-nvm")
        out["result"] = MultiLatResult(
            config=config, elapsed_ns=ctx.now_ns - start
        )
        return out["result"]

    return body


def _tiered_multilat_body(config: MultiLatConfig, out: dict):
    """The N-tier MultiLat: one array per emulated tier.

    Arrays are pmalloc'd in tier order, so a static placement order of
    ``(1, 2, ..., K)`` pins array *i* to tier *i* and the closed form
    holds per tier.  The recursive pattern cycles DRAM, then each tier.
    """

    def body(ctx):
        assert config.tier_elements is not None
        dram = ctx.malloc(
            config.dram_array_bytes, page_size=PageSize.HUGE_2M,
            label="multilat-dram",
        )
        arrays = [
            ctx.pmalloc(
                config.nvm_array_bytes, page_size=PageSize.HUGE_2M,
                label=f"multilat-tier{index + 1}",
            )
            for index in range(len(config.tier_elements))
        ]
        dram_left = config.dram_elements
        tier_left = list(config.tier_elements)
        dram_run, _ = config.pattern
        tier_runs = config.effective_tier_pattern
        start = ctx.now_ns
        while dram_left > 0 or any(left > 0 for left in tier_left):
            if dram_left > 0:
                burst = min(dram_run, dram_left)
                dram_left -= burst
                yield MemBatch(
                    dram, burst, PatternKind.CHASE, label="multilat-dram"
                )
            for index, array in enumerate(arrays):
                if tier_left[index] <= 0:
                    continue
                burst = min(tier_runs[index], tier_left[index])
                tier_left[index] -= burst
                yield MemBatch(
                    array, burst, PatternKind.CHASE,
                    label=f"multilat-tier{index + 1}",
                )
        out["result"] = MultiLatResult(
            config=config, elapsed_ns=ctx.now_ns - start
        )
        return out["result"]

    return body
