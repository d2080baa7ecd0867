"""Processor architecture specifications for the paper's three testbeds.

Section 4.1 of the paper evaluates Quartz on three dual-socket machines:

* Intel Xeon E5-2450 (**Sandy Bridge**), 2 x 8 two-way HT cores @ 2.1 GHz,
  local/remote DRAM latency 97/162 ns;
* Intel Xeon E5-2660 v2 (**Ivy Bridge**), 2 x 10 cores @ 2.2 GHz, 87/176 ns;
* Intel Xeon E5-2650 v3 (**Haswell**), 2 x 10 cores @ 2.3 GHz, 120/175 ns.

Table 1 lists the per-family performance events Quartz programs, and
Table 2 the measured latency ranges.  Both are reproduced here verbatim as
data.  The per-family *counter fidelity* parameters model footnote 6 of
Section 4.4 ("the counters available in earlier Intel Sandy Bridge
processor family are less reliable"), which is the paper's explanation for
Sandy Bridge's larger emulation errors (up to 9% vs. 2% on Ivy Bridge).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from repro.errors import UnsupportedFeatureError
from repro.units import KIB, MIB, ClockDomain


@dataclass(frozen=True)
class CounterEventSet:
    """The hardware performance events Quartz uses on one family (Table 1).

    ``l3_miss_local``/``l3_miss_remote`` are ``None`` on Sandy Bridge, which
    only offers a combined LLC-miss event — the reason tiered DRAM + NVM
    emulation (Section 3.3) needs Ivy Bridge or Haswell.
    """

    l2_stalls: str
    l3_hit: str
    l3_miss_combined: Optional[str] = None
    l3_miss_local: Optional[str] = None
    l3_miss_remote: Optional[str] = None

    @property
    def has_local_remote_split(self) -> bool:
        """True if LLC misses can be attributed to local vs. remote DRAM."""
        return self.l3_miss_local is not None and self.l3_miss_remote is not None

    @cached_property
    def local_miss_events(self) -> tuple[str, ...]:
        """The events an LLC miss served by the core's own node counts
        toward: the local-miss event where the family splits misses,
        plus the combined one where it has it."""
        return self._miss_events(self.l3_miss_local)

    @cached_property
    def remote_miss_events(self) -> tuple[str, ...]:
        """As :attr:`local_miss_events`, for a miss served by the other
        socket's DRAM."""
        return self._miss_events(self.l3_miss_remote)

    def _miss_events(self, split: Optional[str]) -> tuple[str, ...]:
        combined = () if self.l3_miss_combined is None else (self.l3_miss_combined,)
        return (split,) + combined if self.has_local_remote_split else combined

    def all_events(self) -> tuple[str, ...]:
        """Every event name in this set, in programming order."""
        events = [self.l2_stalls, self.l3_hit]
        for name in (self.l3_miss_combined, self.l3_miss_local, self.l3_miss_remote):
            if name is not None:
                events.append(name)
        return tuple(events)


@dataclass(frozen=True)
class CounterFidelity:
    """Systematic and random measurement error of a family's PMCs.

    ``bias_sigma`` is the standard deviation of a per-(core, event)
    systematic scale error (event definitions miscount consistently, on
    every run of the part); ``read_noise_sigma`` is white noise applied
    per read delta.
    """

    bias_sigma: float
    read_noise_sigma: float


@dataclass(frozen=True)
class LatencyRange:
    """Min/average/max measured access latency in ns (Table 2 rows)."""

    min_ns: float
    avg_ns: float
    max_ns: float

    def __post_init__(self) -> None:
        if not (self.min_ns <= self.avg_ns <= self.max_ns):
            raise ValueError(f"latency range out of order: {self}")


@dataclass(frozen=True)
class ArchSpec:
    """Everything the simulator needs to know about one processor family."""

    name: str
    family: str
    model: str
    freq_ghz: float
    sockets: int
    cores_per_socket: int
    smt: int
    l1d_bytes: int
    l2_bytes: int
    l3_bytes: int  # per socket (shared LLC)
    l1_lat_ns: float
    l2_lat_ns: float
    l3_lat_ns: float
    dram_local: LatencyRange
    dram_remote: LatencyRange
    memory_channels: int
    peak_bw_bytes_per_ns: float  # per socket, all channels
    mshr_count: int  # line-fill buffers => max memory-level parallelism
    dtlb_entries_4k: int
    #: Effective 2 MB-page TLB reach in entries, including the shared STLB
    #: and walk overlap; large enough that hugepage-backed arrays up to
    #: several GiB walk-free (why MemLat uses hugepages, Section 4.4).
    dtlb_entries_2m: int
    tlb_walk_ns: float
    prefetch_coverage: float  # fraction of sequential misses hidden by HW prefetch
    counter_events: CounterEventSet = field(repr=False)
    counter_fidelity: CounterFidelity = field(repr=False)

    @property
    def clock(self) -> ClockDomain:
        """The core clock domain (DVFS disabled)."""
        return ClockDomain(self.freq_ghz)

    @property
    def total_cores(self) -> int:
        """Physical cores across all sockets."""
        return self.sockets * self.cores_per_socket

    def dram_latency_ns(self, local: bool) -> float:
        """Average unloaded DRAM latency from Table 2."""
        return self.dram_local.avg_ns if local else self.dram_remote.avg_ns

    def require_local_remote_counters(self) -> None:
        """Raise unless this family can split LLC misses by home node."""
        if not self.counter_events.has_local_remote_split:
            raise UnsupportedFeatureError(
                f"{self.name} lacks separate local/remote LLC-miss events "
                "(Table 1); tiered emulation requires Ivy Bridge or "
                "Haswell"
            )


SANDY_BRIDGE = ArchSpec(
    name="sandy-bridge",
    family="SandyBridge",
    model="Intel Xeon E5-2450",
    freq_ghz=2.1,
    sockets=2,
    cores_per_socket=8,
    smt=2,
    l1d_bytes=32 * KIB,
    l2_bytes=256 * KIB,
    l3_bytes=20 * MIB,
    l1_lat_ns=1.9,
    l2_lat_ns=5.7,
    l3_lat_ns=15.2,
    dram_local=LatencyRange(97.0, 97.0, 98.0),
    dram_remote=LatencyRange(158.0, 163.0, 165.0),
    memory_channels=3,
    peak_bw_bytes_per_ns=38.4,  # 3 x DDR3-1600
    mshr_count=10,
    dtlb_entries_4k=576,
    dtlb_entries_2m=4096,
    tlb_walk_ns=26.0,
    prefetch_coverage=0.80,
    counter_events=CounterEventSet(
        l2_stalls="CYCLE_ACTIVITY:STALLS_L2_PENDING",
        l3_hit="MEM_LOAD_UOPS_RETIRED:L3_HIT",
        l3_miss_combined="MEM_LOAD_UOPS_MISC_RETIRED:LLC_MISS",
    ),
    counter_fidelity=CounterFidelity(bias_sigma=0.040, read_noise_sigma=0.020),
)

IVY_BRIDGE = ArchSpec(
    name="ivy-bridge",
    family="IvyBridge",
    model="Intel Xeon E5-2660 v2",
    freq_ghz=2.2,
    sockets=2,
    cores_per_socket=10,
    smt=2,
    l1d_bytes=32 * KIB,
    l2_bytes=256 * KIB,
    l3_bytes=25 * MIB,
    l1_lat_ns=1.8,
    l2_lat_ns=5.5,
    l3_lat_ns=14.1,
    dram_local=LatencyRange(87.0, 87.0, 87.0),
    dram_remote=LatencyRange(172.0, 176.0, 185.0),
    memory_channels=4,
    peak_bw_bytes_per_ns=59.7,  # 4 x DDR3-1866
    mshr_count=10,
    dtlb_entries_4k=576,
    dtlb_entries_2m=4096,
    tlb_walk_ns=25.0,
    prefetch_coverage=0.82,
    counter_events=CounterEventSet(
        l2_stalls="CYCLE_ACTIVITY:STALLS_L2_PENDING",
        l3_hit="MEM_LOAD_UOPS_LLC_HIT_RETIRED:XSNP_NONE",
        l3_miss_local="MEM_LOAD_UOPS_LLC_MISS_RETIRED:LOCAL_DRAM",
        l3_miss_remote="MEM_LOAD_UOPS_LLC_MISS_RETIRED:REMOTE_DRAM",
    ),
    counter_fidelity=CounterFidelity(bias_sigma=0.008, read_noise_sigma=0.004),
)

HASWELL = ArchSpec(
    name="haswell",
    family="Haswell",
    model="Intel Xeon E5-2650 v3",
    freq_ghz=2.3,
    sockets=2,
    cores_per_socket=10,
    smt=2,
    l1d_bytes=32 * KIB,
    l2_bytes=256 * KIB,
    l3_bytes=25 * MIB,
    l1_lat_ns=1.7,
    l2_lat_ns=5.2,
    l3_lat_ns=15.0,
    dram_local=LatencyRange(120.0, 120.0, 120.0),
    dram_remote=LatencyRange(174.0, 175.0, 175.0),
    memory_channels=4,
    peak_bw_bytes_per_ns=68.0,  # 4 x DDR4-2133
    mshr_count=10,
    dtlb_entries_4k=576,
    dtlb_entries_2m=4096,
    tlb_walk_ns=24.0,
    prefetch_coverage=0.85,
    counter_events=CounterEventSet(
        l2_stalls="CYCLE_ACTIVITY:STALLS_L2_PENDING",
        l3_hit="MEM_LOAD_UOPS_L3_HIT_RETIRED:XSNP_NONE",
        l3_miss_local="MEM_LOAD_UOPS_L3_MISS_RETIRED:LOCAL_DRAM",
        l3_miss_remote="MEM_LOAD_UOPS_L3_MISS_RETIRED:REMOTE_DRAM",
    ),
    counter_fidelity=CounterFidelity(bias_sigma=0.025, read_noise_sigma=0.010),
)

#: The three testbeds of Section 4.1, in paper order.
ALL_ARCHS: tuple[ArchSpec, ...] = (SANDY_BRIDGE, IVY_BRIDGE, HASWELL)

_BY_NAME = {spec.name: spec for spec in ALL_ARCHS}
_ALIASES = {
    "sandy": "sandy-bridge",
    "sandybridge": "sandy-bridge",
    "ivy": "ivy-bridge",
    "ivybridge": "ivy-bridge",
    "hsw": "haswell",
}


def arch_by_name(name: str) -> ArchSpec:
    """Look up an architecture spec by name or common alias."""
    key = name.strip().lower().replace("_", "-")
    key = _ALIASES.get(key.replace("-", ""), _ALIASES.get(key, key))
    if key not in _BY_NAME:
        known = ", ".join(sorted(_BY_NAME))
        raise KeyError(f"unknown architecture {name!r}; known: {known}")
    return _BY_NAME[key]
