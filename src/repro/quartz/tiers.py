"""The N-tier hybrid-memory model: tier specs, placement, accounting.

The paper's DRAM + NVM system (Section 3.3) is the two-tier point of a
larger design space: "Emulating Hybrid Memory on NUMA Hardware" models DRAM +
NVM tiers with OS paging/migration, and Koshiba et al. model independent
read vs. write NVM latencies.  This module generalises the machinery so
a machine hosts an ordered list of :class:`MemoryTier` specs — tier 0 is
always the local DRAM, every further tier is a progressively slower
memory physically backed by the sibling socket's DRAM (the same virtual
topology trick; the *emulated* latency differs per tier).

Four cooperating pieces:

* :class:`TierLadder` — the configuration (``QuartzConfig.ladder``): the
  tier list plus the placement policy and the fields it reads, checked
  once when the ladder is built.
* :class:`TierDirectory` — the page table of the tier model: which
  pmalloc'd region lives in which tier, per-tier occupancy against the
  declared capacities, per-region access counts, and migrations.
* Placement policies (:class:`StaticPlacement`,
  :class:`RoundRobinPlacement`, :class:`HotPromotePlacement`) — decide
  which tier a new allocation lands in and, for the promotion policy,
  when a hot region migrates to a faster tier.  Migration is an instant
  remap in the directory: the emulator charges subsequent accesses at
  the new tier's latency, which is exactly how a page move looks from
  the analytic model's viewpoint.
* :class:`TierAccountant` — an ``op`` hook subscriber counting per-thread,
  per-tier, per-direction (load/store) references.  The epoch engine
  snapshots these like performance counters and apportions the measured
  remote LLC misses across the NVM tiers in proportion.

Everything here is deterministic and pure-Python: placement decisions
depend only on the allocation order and the declared policy, so exports
stay byte-identical across ``--jobs`` values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.errors import QuartzError
from repro.ops import MemBatch

if TYPE_CHECKING:
    from repro.hw.topology import MemoryRegion
    from repro.os.thread import SimThread

#: Placement policy names accepted by ``TierLadder.placement``.
PLACEMENT_POLICIES = ("static", "round-robin", "hot-promote")


@dataclass(frozen=True)
class MemoryTier:
    """One memory tier: independent read/write latency, bandwidth, size.

    Tier 0 of a machine's tier list is the local DRAM (its latencies are
    informational — tier-0 accesses are never delayed); tiers >= 1 are
    emulated memories whose targets must be reachable by slowing the
    backing DRAM down.  ``bandwidth_gbps`` programs the tier's throttle
    register (None = unthrottled); ``capacity_bytes`` bounds placement
    (None = unbounded).  Neither applies to tier 0, and
    :class:`TierLadder` rejects them there.
    """

    name: str
    read_latency_ns: float
    write_latency_ns: float
    bandwidth_gbps: Optional[float] = None
    capacity_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise QuartzError("memory tier needs a name")
        for what, value in (
            ("read latency", self.read_latency_ns),
            ("write latency", self.write_latency_ns),
            ("bandwidth", self.bandwidth_gbps),
        ):
            if value is not None and not 0 < value < math.inf:
                raise QuartzError(
                    f"tier {self.name!r}: {what} must be finite and positive: "
                    f"{value}"
                )
        if self.capacity_bytes is not None and self.capacity_bytes <= 0:
            raise QuartzError(
                f"tier {self.name!r}: capacity must be positive: "
                f"{self.capacity_bytes}"
            )


@dataclass
class TierDirectory:
    """Region -> tier mapping plus occupancy and hotness bookkeeping."""

    tiers: tuple[MemoryTier, ...]
    #: region_id -> tier index.
    _tier_of: dict = field(default_factory=dict)
    #: region_id -> size (kept so frees/migrations adjust occupancy).
    _size_of: dict = field(default_factory=dict)
    #: region_id -> cumulative accesses (hot-page promotion input).
    _accesses: dict = field(default_factory=dict)
    #: tier index -> currently allocated bytes.
    allocated_bytes: dict = field(default_factory=dict)
    #: tier index -> total placements (stats surface).
    placements: dict = field(default_factory=dict)
    migrations: int = 0
    migrated_bytes: int = 0

    @property
    def nvm_tier_indices(self) -> tuple[int, ...]:
        """Indices of the emulated (non-DRAM) tiers."""
        return tuple(range(1, len(self.tiers)))

    def fits(self, tier_index: int, size_bytes: int) -> bool:
        """Whether *size_bytes* more fit under the tier's capacity."""
        capacity = self.tiers[tier_index].capacity_bytes
        if capacity is None:
            return True
        return self.allocated_bytes.get(tier_index, 0) + size_bytes <= capacity

    def register(self, region: "MemoryRegion", tier_index: int) -> None:
        """Record a fresh allocation in *tier_index*."""
        if not 1 <= tier_index < len(self.tiers):
            raise QuartzError(
                f"placement chose tier {tier_index}, valid emulated tiers "
                f"are {self.nvm_tier_indices}"
            )
        self._tier_of[region.region_id] = tier_index
        self._size_of[region.region_id] = region.size_bytes
        self.allocated_bytes[tier_index] = (
            self.allocated_bytes.get(tier_index, 0) + region.size_bytes
        )
        self.placements[tier_index] = self.placements.get(tier_index, 0) + 1

    def unregister(self, region: "MemoryRegion") -> None:
        """Drop a freed region from the directory."""
        tier_index = self._tier_of.pop(region.region_id, None)
        if tier_index is None:
            return
        size = self._size_of.pop(region.region_id, 0)
        self.allocated_bytes[tier_index] = max(
            0, self.allocated_bytes.get(tier_index, 0) - size
        )
        self._accesses.pop(region.region_id, None)

    def tier_of(self, region_id: int) -> Optional[int]:
        """Tier index of a registered region (None if not tiered)."""
        return self._tier_of.get(region_id)

    def record_access(self, region_id: int, count: int) -> int:
        """Bump a region's access count; returns the new total."""
        total = self._accesses.get(region_id, 0) + count
        self._accesses[region_id] = total
        return total

    def migrate(self, region_id: int, to_tier: int) -> None:
        """Instant remap of a region to another tier (a page move)."""
        from_tier = self._tier_of.get(region_id)
        if from_tier is None or from_tier == to_tier:
            return
        if not 1 <= to_tier < len(self.tiers):
            raise QuartzError(f"cannot migrate to tier {to_tier}")
        size = self._size_of.get(region_id, 0)
        self.allocated_bytes[from_tier] = max(
            0, self.allocated_bytes.get(from_tier, 0) - size
        )
        self.allocated_bytes[to_tier] = (
            self.allocated_bytes.get(to_tier, 0) + size
        )
        self._tier_of[region_id] = to_tier
        self.migrations += 1
        self.migrated_bytes += size

    def report(self) -> dict:
        """JSON-safe placement/migration summary (stats surface)."""
        return {
            "placements": {
                str(tier): count for tier, count in sorted(self.placements.items())
            },
            "migrations": self.migrations,
            "migrated_bytes": self.migrated_bytes,
        }


class PlacementPolicy:
    """Decides where allocations land and when regions migrate."""

    name = "abstract"

    def place(self, size_bytes: int, directory: TierDirectory) -> int:
        """Tier index (>= 1) for a new allocation of *size_bytes*."""
        raise NotImplementedError

    def maybe_promote(
        self, region_id: int, total_accesses: int, directory: TierDirectory
    ) -> Optional[int]:
        """Target tier for a hot region, or None to leave it in place."""
        return None

    @staticmethod
    def _first_with_room(
        preferred: int, size_bytes: int, directory: TierDirectory
    ) -> int:
        """*preferred* if it has capacity, else the next slower tier with
        room; falls back to the slowest tier when everything is full
        (capacity pressure degrades placement, it never fails an
        allocation — mirroring how the OS overcommits the slow tier)."""
        candidates = [
            tier for tier in directory.nvm_tier_indices if tier >= preferred
        ] + [tier for tier in directory.nvm_tier_indices if tier < preferred]
        for tier in candidates:
            if directory.fits(tier, size_bytes):
                return tier
        return directory.nvm_tier_indices[-1]


class StaticPlacement(PlacementPolicy):
    """Fixed placement: a declared tier order, cycled per allocation.

    With no order every allocation lands in the slowest tier — the
    pessimistic default matching "new data is cold".  An explicit order
    such as ``(1, 2)`` pins the i-th pmalloc to a known tier, which is
    what the tier-sweep closed form relies on.
    """

    name = "static"

    def __init__(self, order: Optional[tuple[int, ...]] = None):
        self.order = tuple(order) if order else None
        self._next = 0

    def place(self, size_bytes: int, directory: TierDirectory) -> int:
        if self.order is None:
            preferred = directory.nvm_tier_indices[-1]
        else:
            preferred = self.order[self._next % len(self.order)]
            self._next += 1
        return self._first_with_room(preferred, size_bytes, directory)


class RoundRobinPlacement(PlacementPolicy):
    """Spread allocations across the emulated tiers in rotation."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def place(self, size_bytes: int, directory: TierDirectory) -> int:
        indices = directory.nvm_tier_indices
        preferred = indices[self._next % len(indices)]
        self._next += 1
        return self._first_with_room(preferred, size_bytes, directory)


class HotPromotePlacement(StaticPlacement):
    """Static placement plus hot-page promotion.

    Regions start where :class:`StaticPlacement` puts them (the slowest
    tier by default); once a region's cumulative access count crosses
    ``threshold_accesses`` it is promoted one tier toward the fastest
    emulated tier, capacity permitting.  Promotion is an instant remap
    (see :meth:`TierDirectory.migrate`).
    """

    name = "hot-promote"

    def __init__(
        self,
        threshold_accesses: int,
        order: Optional[tuple[int, ...]] = None,
    ):
        super().__init__(order)
        self.threshold_accesses = threshold_accesses

    def maybe_promote(
        self, region_id: int, total_accesses: int, directory: TierDirectory
    ) -> Optional[int]:
        if total_accesses < self.threshold_accesses:
            return None
        current = directory.tier_of(region_id)
        if current is None or current <= 1:
            return None  # already in the fastest emulated tier
        target = current - 1
        size = directory._size_of.get(region_id, 0)
        if not directory.fits(target, size):
            return None
        return target


@dataclass(frozen=True)
class TierLadder:
    """The memory system Quartz emulates in tier mode: tiers plus placement.

    Tier 0 of ``tiers`` is the local DRAM; tiers >= 1 are emulated
    memories (fastest first by convention).  ``placement`` names the
    policy that files each pmalloc under an emulated tier: ``static``
    cycles ``order`` (None = everything starts in the slowest tier),
    ``round-robin`` rotates over every emulated tier, and
    ``hot-promote`` places like ``static`` and then promotes a region
    one tier up once it has seen ``promote_threshold_accesses``.  Every
    ladder rule is checked here, so a ladder that exists is valid, and
    a field its policy would not read cannot be set.
    """

    tiers: tuple[MemoryTier, ...]
    placement: str = "static"
    order: Optional[tuple[int, ...]] = None
    promote_threshold_accesses: Optional[int] = None

    def __post_init__(self) -> None:
        if len(self.tiers) < 2:
            raise QuartzError(
                f"a tier ladder needs at least 2 tiers (DRAM + one "
                f"emulated memory), got {len(self.tiers)}"
            )
        names = [tier.name for tier in self.tiers]
        if len(set(names)) != len(names):
            raise QuartzError(f"tier names must be unique: {names}")
        local = self.tiers[0]
        for name, value in (
            ("bandwidth_gbps", local.bandwidth_gbps),
            ("capacity_bytes", local.capacity_bytes),
        ):
            if value is not None:
                raise QuartzError(
                    f"tier 0 ({local.name!r}) is the local DRAM, which Quartz "
                    f"neither throttles nor fills; {name}={value} would be ignored"
                )
        if self.placement not in PLACEMENT_POLICIES:
            raise QuartzError(
                f"unknown placement policy: {self.placement!r} "
                f"(expected one of {PLACEMENT_POLICIES})"
            )
        threshold = self.promote_threshold_accesses
        if self.placement == "hot-promote":
            if threshold is None or threshold <= 0:
                raise QuartzError(
                    "hot-promote placement needs a positive "
                    f"promote_threshold_accesses, got {threshold}"
                )
        elif threshold is not None:
            raise QuartzError(
                f"{self.placement} placement never promotes; "
                f"promote_threshold_accesses={threshold} would be ignored"
            )
        if self.order is not None:
            if self.placement == "round-robin":
                raise QuartzError(
                    "round-robin placement rotates over every emulated "
                    f"tier; order={self.order} would be ignored"
                )
            valid = range(1, len(self.tiers))
            for index in self.order:
                if index not in valid:
                    raise QuartzError(
                        f"placement order names tier {index}; emulated "
                        f"tiers are {tuple(valid)}"
                    )

    def new_policy(self) -> PlacementPolicy:
        """A fresh policy (policies carry per-run rotation state)."""
        if self.placement == "round-robin":
            return RoundRobinPlacement()
        if self.placement == "hot-promote":
            return HotPromotePlacement(self.promote_threshold_accesses, self.order)
        return StaticPlacement(self.order)


class TierAccountant:
    """``op`` subscriber counting per-thread, per-tier references.

    Sees every executed op exactly once (the OS ``op`` hook event),
    filters memory batches against tiered regions, and accumulates
    cumulative ``(reads, writes)`` per tier per thread — the software
    analogue of a per-tier performance counter.  The epoch engine
    snapshots these at epoch open and differences them at close, exactly
    like the hardware counter base.

    Also the hotness feed: every counted batch bumps the region's access
    total and asks the policy whether the region should migrate.
    """

    def __init__(self, directory: TierDirectory, policy: PlacementPolicy):
        self.directory = directory
        self.policy = policy
        #: tid -> per-tier [reads, writes] accumulators.
        self._counts: dict[int, list[list[float]]] = {}

    def __call__(self, thread: "SimThread", op) -> None:
        if not isinstance(op, MemBatch):
            return
        tier = self.directory.tier_of(op.region.region_id)
        if tier is None:
            return
        counts = self._counts.get(thread.tid)
        if counts is None:
            counts = [[0.0, 0.0] for _ in self.directory.tiers]
            self._counts[thread.tid] = counts
        counts[tier][1 if op.is_store else 0] += op.accesses
        total = self.directory.record_access(op.region.region_id, op.accesses)
        target = self.policy.maybe_promote(
            op.region.region_id, total, self.directory
        )
        if target is not None:
            self.directory.migrate(op.region.region_id, target)

    def snapshot(self, tid: int) -> list[tuple[float, float]]:
        """Cumulative per-tier ``(reads, writes)`` of one thread."""
        counts = self._counts.get(tid)
        if counts is None:
            return [(0.0, 0.0) for _ in self.directory.tiers]
        return [(reads, writes) for reads, writes in counts]
