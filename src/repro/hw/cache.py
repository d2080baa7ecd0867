"""Cache hierarchy models.

Two models with one job: decide, for a batch of memory accesses, how many
hit each cache level and how many reach DRAM.

* :class:`SetAssociativeCache` / :class:`CacheHierarchySim` — a functional
  set-associative LRU simulator operated address-by-address.  Used by unit
  tests and to cross-validate the analytic model.

* :class:`AnalyticCacheModel` — the production model.  It maps a
  :class:`~repro.ops.MemBatch` to per-level hit counts in O(1) using
  capacity arguments, which is what lets the reproduction run the paper's
  multi-second workloads (tens of millions of accesses) in milliseconds.

The analytic model also accounts for the two effects the paper calls out
as breaking the "simple model" of Eq. (1) (Section 2.2): cache hits (only
LLC misses reach memory) and hardware prefetching (prefetched lines retire
as LLC hits yet still consume DRAM bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import HardwareError
from repro.hw.arch import ArchSpec
from repro.ops import MemBatch, PatternKind
from repro.units import CACHE_LINE_BYTES


# ----------------------------------------------------------------------
# Detailed functional simulator (for tests / cross-validation)
# ----------------------------------------------------------------------
class SetAssociativeCache:
    """A classic set-associative LRU cache over line addresses."""

    def __init__(self, capacity_bytes: int, ways: int,
                 line_bytes: int = CACHE_LINE_BYTES):
        if capacity_bytes <= 0 or ways <= 0:
            raise HardwareError("cache capacity and ways must be positive")
        lines = capacity_bytes // line_bytes
        if lines % ways != 0:
            raise HardwareError(
                f"capacity {capacity_bytes} not divisible into {ways}-way sets"
            )
        self.line_bytes = line_bytes
        self.ways = ways
        self.sets = lines // ways
        # Each set is an ordered dict-like list of line tags (MRU last).
        self._sets: list[list[int]] = [[] for _ in range(self.sets)]
        self.hits = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Touch *address*; returns True on hit.  Misses allocate."""
        line = address // self.line_bytes
        index = line % self.sets
        tag = line // self.sets
        entries = self._sets[index]
        if tag in entries:
            entries.remove(tag)
            entries.append(tag)
            self.hits += 1
            return True
        self.misses += 1
        entries.append(tag)
        if len(entries) > self.ways:
            entries.pop(0)
        return False

    @property
    def hit_rate(self) -> float:
        """Lifetime hit rate; 0 when never accessed."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_stats(self) -> None:
        """Zero the hit/miss counters without flushing contents."""
        self.hits = 0
        self.misses = 0


class CacheHierarchySim:
    """L1/L2/L3 functional hierarchy (inclusive allocation on miss)."""

    def __init__(self, arch: ArchSpec):
        self.l1 = SetAssociativeCache(arch.l1d_bytes, ways=8)
        self.l2 = SetAssociativeCache(arch.l2_bytes, ways=8)
        self.l3 = SetAssociativeCache(arch.l3_bytes, ways=20)

    def access(self, address: int) -> str:
        """Touch *address*; returns the level that served it."""
        if self.l1.access(address):
            return "l1"
        if self.l2.access(address):
            return "l2"
        if self.l3.access(address):
            return "l3"
        return "dram"


# ----------------------------------------------------------------------
# Analytic model (production path)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchProfile:
    """How one :class:`MemBatch` resolves against the memory hierarchy.

    Counts are floats (batches are statistically, not individually,
    resolved).  ``demand_dram_loads`` excludes prefetch-covered lines,
    which appear in ``prefetched_lines`` instead: those retire as LLC hits
    (the PMC view) but still transfer bytes.  Frozen: a core's batch plan
    hands the same instance to every execution of the same op.
    """

    accesses: int
    l1_hits: float = 0.0
    l2_hits: float = 0.0
    l3_hits: float = 0.0
    demand_dram_loads: float = 0.0
    prefetched_lines: float = 0.0
    effective_mlp: float = 1.0
    tlb_walks: float = 0.0
    dram_bytes: float = 0.0
    is_store: bool = False

    @property
    def serialized_dram_accesses(self) -> float:
        """Demand misses divided by memory-level parallelism.

        This is the quantity Quartz's Eq. (2) tries to recover from stall
        cycles: the number of memory trips actually on the critical path.
        """
        return self.demand_dram_loads / self.effective_mlp

    @property
    def serialized_l3_hits(self) -> float:
        """LLC hits on the critical path (same MLP as the miss stream)."""
        return (self.l3_hits + self.prefetched_lines) / self.effective_mlp

    @property
    def pmc_l3_hits(self) -> float:
        """What the L3-hit performance event reports (loads only)."""
        if self.is_store:
            return 0.0
        return self.l3_hits + self.prefetched_lines

    @property
    def pmc_dram_loads(self) -> float:
        """What the LLC-miss performance events report (loads only)."""
        if self.is_store:
            return 0.0
        return self.demand_dram_loads


class AnalyticCacheModel:
    """Capacity-based cache model for one socket's hierarchy.

    ``llc_sharers`` models destructive LLC sharing: with *k* active threads
    on the socket, each effectively owns ``L3/k``.
    """

    #: Instruction-level parallelism assumed for independent (RANDOM)
    #: access streams when the workload does not say otherwise.
    DEFAULT_RANDOM_PARALLELISM = 1

    def __init__(self, arch: ArchSpec):
        self.arch = arch
        self.llc_sharers = 1

    # -- capacity helpers ------------------------------------------------
    def _effective_l3(self) -> float:
        return self.arch.l3_bytes / max(1, self.llc_sharers)

    @staticmethod
    def _resident_fraction(capacity: float, footprint: float) -> float:
        """P(line resident) for a working set of *footprint* bytes."""
        if footprint <= 0:
            return 1.0
        return min(1.0, capacity / footprint)

    # -- main entry point --------------------------------------------------
    def resolve(self, batch: MemBatch) -> BatchProfile:
        """Resolve a batch into per-level hit/miss counts.

        The result depends only on the batch's shape and the current
        ``llc_sharers``; each core keeps it in the batch plan of the op
        (:class:`repro.hw.core.Core`), so this runs on a plan miss.
        """
        region = batch.region
        region.require_live()
        if batch.accesses == 0:
            return BatchProfile(accesses=0, is_store=batch.is_store)
        if batch.non_temporal and not batch.is_store:
            raise HardwareError("non-temporal hint is only meaningful for stores")
        if batch.pattern is PatternKind.SEQUENTIAL:
            return self._resolve_sequential(batch)
        return self._resolve_irregular(batch)

    # -- pattern-specific resolution ----------------------------------------
    def _resolve_irregular(self, batch: MemBatch) -> BatchProfile:
        """CHASE and RANDOM: uniform accesses over the footprint."""
        footprint = float(batch.effective_footprint)
        arch = self.arch
        p_l1 = self._resident_fraction(arch.l1d_bytes, footprint)
        p_l2c = self._resident_fraction(arch.l2_bytes, footprint)
        p_l3c = self._resident_fraction(self._effective_l3(), footprint)
        n = batch.accesses
        l1_hits = n * p_l1
        l2_hits = n * max(0.0, p_l2c - p_l1)
        l3_hits = n * max(0.0, p_l3c - p_l2c)
        misses = n * (1.0 - p_l3c)
        mlp = min(batch.parallelism, arch.mshr_count)
        bytes_per_miss = CACHE_LINE_BYTES
        if batch.is_store and not batch.non_temporal:
            # Read-for-ownership plus eventual writeback.
            bytes_per_miss = 2 * CACHE_LINE_BYTES
        return BatchProfile(
            accesses=n,
            l1_hits=l1_hits,
            l2_hits=l2_hits,
            l3_hits=l3_hits,
            demand_dram_loads=misses,
            prefetched_lines=0.0,
            effective_mlp=float(max(1, mlp)),
            tlb_walks=self._tlb_walks(batch),
            dram_bytes=misses * bytes_per_miss * batch.dram_bytes_multiplier,
            is_store=batch.is_store,
        )

    def _resolve_sequential(self, batch: MemBatch) -> BatchProfile:
        """Streaming access: prefetcher-covered, line-granular misses."""
        arch = self.arch
        n = batch.accesses
        accesses_per_line = max(1.0, CACHE_LINE_BYTES / batch.stride_bytes)
        lines_touched = n / accesses_per_line
        footprint = float(batch.effective_footprint)
        resident = self._resident_fraction(self._effective_l3(), footprint)
        line_misses = lines_touched * (1.0 - resident)
        if batch.non_temporal:
            # Streaming stores bypass the hierarchy entirely: every line
            # goes straight to memory, no RFO, no demand-load stall.
            return BatchProfile(
                accesses=n,
                l1_hits=0.0,
                demand_dram_loads=0.0,
                prefetched_lines=line_misses,
                effective_mlp=float(arch.mshr_count),
                tlb_walks=self._tlb_walks(batch),
                dram_bytes=(
                    lines_touched * CACHE_LINE_BYTES * batch.dram_bytes_multiplier
                ),
                is_store=True,
            )
        covered = line_misses * arch.prefetch_coverage
        demand = line_misses - covered
        resident_lines = lines_touched - line_misses
        # Within-line re-accesses hit L1.
        l1_hits = n - lines_touched
        bytes_per_line = CACHE_LINE_BYTES
        if batch.is_store:
            bytes_per_line = 2 * CACHE_LINE_BYTES
        return BatchProfile(
            accesses=n,
            l1_hits=l1_hits,
            l2_hits=0.0,
            l3_hits=resident_lines,
            demand_dram_loads=demand,
            prefetched_lines=covered,
            effective_mlp=float(arch.mshr_count),
            tlb_walks=self._tlb_walks(batch),
            dram_bytes=line_misses * bytes_per_line * batch.dram_bytes_multiplier,
            is_store=batch.is_store,
        )

    # -- TLB ------------------------------------------------------------------
    def _tlb_walks(self, batch: MemBatch) -> float:
        """Page walks triggered by the batch.

        Irregular patterns walk with probability 1 - coverage when the
        footprint exceeds TLB reach; sequential patterns only walk at page
        boundaries.  2 MB hugepages extend reach 512x, which is why MemLat
        uses them (Section 4.4).
        """
        arch = self.arch
        page = int(batch.region.page_size)
        entries = (
            arch.dtlb_entries_2m if page >= 2 * 1024 * 1024 else arch.dtlb_entries_4k
        )
        reach = entries * page
        footprint = float(batch.effective_footprint)
        if batch.pattern is PatternKind.SEQUENTIAL:
            lines_per_page = page / CACHE_LINE_BYTES
            lines = batch.accesses / max(
                1.0, CACHE_LINE_BYTES / batch.stride_bytes
            )
            if footprint <= reach:
                return 0.0
            return lines / lines_per_page
        p_tlb_miss = max(0.0, 1.0 - reach / footprint) if footprint > 0 else 0.0
        return batch.accesses * p_tlb_miss
