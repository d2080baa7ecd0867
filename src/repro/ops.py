"""The instruction-level operations workloads yield to the simulated core.

Workload bodies are generators yielding these ops (see
``repro.workloads.base``).  The OS layer dispatches them: memory and
compute ops go to the hardware core model (:mod:`repro.hw.core`),
synchronization ops to the simulated pthread layer (:mod:`repro.os.sync`),
and persistent-memory ops route through Quartz's interposition hooks just
as ``LD_PRELOAD`` redirects them on a real system.

A :class:`MemBatch` is the workhorse: it describes *many* memory accesses
with a common pattern, which the hardware resolves analytically (cache
hits, misses, MLP, bandwidth) in O(1) instead of simulating every access.
Batches are divisible, so a Quartz signal can interrupt one mid-flight
with correct partial accounting — the DES analogue of a POSIX signal
landing between two loads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, Optional, TYPE_CHECKING

from repro.errors import WorkloadError
from repro.units import CACHE_LINE_BYTES

if TYPE_CHECKING:
    from repro.hw.topology import MemoryRegion
    from repro.os.sync import Barrier, CondVar, Mutex
    from repro.os.thread import SimThread


class Op:
    """Base class for everything a workload can yield."""

    __slots__ = ()


class PatternKind(enum.Enum):
    """Spatial/dependency structure of a memory batch."""

    #: Pointer chase: the next address depends on the previous load.
    CHASE = "chase"
    #: Sequential streaming (hardware prefetcher friendly).
    SEQUENTIAL = "sequential"
    #: Independent uniform-random accesses.
    RANDOM = "random"


@dataclass(frozen=True)
class Compute(Op):
    """Pure CPU work: ``cycles`` of execution with no memory traffic."""

    cycles: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise WorkloadError(f"negative compute cycles: {self.cycles}")


@dataclass(frozen=True)
class Spin(Op):
    """Busy-wait for an exact wall-clock duration.

    Models Quartz's delay-injection loop, which reads the invariant TSC via
    ``rdtscp`` and spins until the target time passes (Section 3.1); the
    duration is therefore exact in *time*, not cycles, and is immune to
    DVFS.
    """

    duration_ns: float
    label: str = "spin"

    def __post_init__(self) -> None:
        if self.duration_ns < 0:
            raise WorkloadError(f"negative spin: {self.duration_ns}")


@dataclass(frozen=True)
class MemBatch(Op):
    """A batch of same-pattern memory accesses against one region.

    Parameters
    ----------
    region:
        Target allocation; its NUMA node determines latency/controller.
    accesses:
        Number of load (or store) instructions in the batch.
    pattern:
        Dependency/spatial structure (:class:`PatternKind`).
    footprint_bytes:
        Bytes the access stream is spread over (defaults to the region
        size).  Determines cache hit rates.
    parallelism:
        Independent access streams — e.g. the number of concurrent pointer
        chains in MemLat.  Capped by the core's line-fill buffers.
    stride_bytes:
        Address step for SEQUENTIAL batches; 8 for an int64 scan means 8
        consecutive accesses share a cache line.
    compute_cycles_per_access:
        CPU work interleaved with each access.
    overlap:
        Fraction of memory wait that execution can hide under compute
        (None = architecture/workload default of 0, the paper's
        fully-stalled assumption discussed in Section 6).
    is_store / non_temporal:
        Stores are posted (no load-stall contribution, Section 3.1);
        non-temporal stores bypass the cache and skip read-for-ownership.
    """

    region: "MemoryRegion"
    accesses: int
    pattern: PatternKind
    footprint_bytes: Optional[int] = None
    parallelism: int = 1
    stride_bytes: int = CACHE_LINE_BYTES
    compute_cycles_per_access: float = 0.0
    overlap: Optional[float] = None
    is_store: bool = False
    non_temporal: bool = False
    #: Scales the DRAM traffic of the batch; used by fused streaming
    #: kernels (e.g. STREAM copy reads the source while writing the
    #: destination in the same loop, moving 2 lines per line written).
    dram_bytes_multiplier: float = 1.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.accesses < 0:
            raise WorkloadError(f"negative access count: {self.accesses}")
        if self.dram_bytes_multiplier <= 0:
            raise WorkloadError(
                f"traffic multiplier must be positive: {self.dram_bytes_multiplier}"
            )
        if self.parallelism < 1:
            raise WorkloadError(f"parallelism must be >= 1: {self.parallelism}")
        if self.stride_bytes <= 0:
            raise WorkloadError(f"stride must be positive: {self.stride_bytes}")
        if self.overlap is not None and not 0.0 <= self.overlap <= 1.0:
            raise WorkloadError(f"overlap must be in [0,1]: {self.overlap}")
        if self.footprint_bytes is not None and self.footprint_bytes <= 0:
            raise WorkloadError(f"footprint must be positive: {self.footprint_bytes}")

    @property
    def effective_footprint(self) -> int:
        """The working-set size the cache model should use."""
        if self.footprint_bytes is not None:
            return self.footprint_bytes
        return self.region.size_bytes

    def split_remainder(self, fraction_done: float) -> Optional["MemBatch"]:
        """Return a batch covering the accesses not yet performed.

        Used when a signal interrupts the batch; ``None`` if nothing
        meaningful remains.
        """
        remaining = self.accesses - int(self.accesses * fraction_done)
        if remaining <= 0:
            return None
        return replace(self, accesses=remaining)


@dataclass(frozen=True)
class Flush(Op):
    """``clflush``: write a cache line back to memory and stall-wait.

    The building block of Quartz's ``pflush`` (Section 3.1): the processor
    waits for the line to reach memory before continuing, which is how the
    emulator pessimistically serializes persistent writes.
    """

    region: "MemoryRegion"
    lines: int = 1
    label: str = ""
    #: First cache line flushed (region-relative index); ``None`` means
    #: the workload does not address specific lines and persistence-state
    #: observers fall back to oldest-dirty-first attribution.
    line: Optional[int] = None

    def __post_init__(self) -> None:
        if self.lines <= 0:
            raise WorkloadError(f"flush line count must be positive: {self.lines}")
        if self.line is not None and self.line < 0:
            raise WorkloadError(f"flush line index cannot be negative: {self.line}")


@dataclass(frozen=True)
class FlushOpt(Op):
    """``clflushopt``: initiate a line writeback without stalling.

    Completion is awaited collectively at the next :class:`Commit`
    (``pcommit``) barrier — the Section 6 extension that lets independent
    persistent writes proceed in parallel.
    """

    region: "MemoryRegion"
    lines: int = 1
    label: str = ""
    #: See :attr:`Flush.line`.
    line: Optional[int] = None

    def __post_init__(self) -> None:
        if self.lines <= 0:
            raise WorkloadError(f"flush line count must be positive: {self.lines}")
        if self.line is not None and self.line < 0:
            raise WorkloadError(f"flush line index cannot be negative: {self.line}")


@dataclass(frozen=True)
class Commit(Op):
    """``pcommit``: stall until all outstanding optimized flushes persist."""

    label: str = ""


@dataclass(frozen=True)
class PersistTail(Op):
    """The rest of a :class:`FlushOpt` or :class:`Commit` a signal cut short.

    The core hands one back as the remainder of the interrupted op.  A
    FlushOpt tail issues the last ``cycles`` and posts the writeback
    completion the interrupt held back; a Commit tail stalls out the last
    ``drain_ns`` of the drain.  Neither posts a line nor drains a commit
    again, so persistence observers see the original op exactly once.
    """

    op: Op
    cycles: float = 0.0
    drain_ns: float = 0.0


@dataclass(frozen=True)
class MutexLock(Op):
    """Acquire a simulated pthread mutex (blocking)."""

    mutex: "Mutex"


@dataclass(frozen=True)
class MutexUnlock(Op):
    """Release a simulated pthread mutex.

    Quartz interposes on exactly this call to close epochs at inter-thread
    communication points (Section 2.3 / 3.1).
    """

    mutex: "Mutex"


@dataclass(frozen=True)
class CondWait(Op):
    """Wait on a condition variable, atomically releasing ``mutex``."""

    cond: "CondVar"
    mutex: "Mutex"


@dataclass(frozen=True)
class CondNotify(Op):
    """Wake one (or all) waiters of a condition variable."""

    cond: "CondVar"
    notify_all: bool = False


@dataclass(frozen=True)
class BarrierWait(Op):
    """Arrive at a cyclic barrier; blocks until all parties arrive.

    An inter-thread communication point (like lock release), so Quartz
    interposes to inject accumulated delay before arrival.  The op's
    result is the barrier generation number.
    """

    barrier: "Barrier"


@dataclass(frozen=True)
class Sleep(Op):
    """Block the thread for a duration (e.g. the monitor's wake interval)."""

    duration_ns: float

    def __post_init__(self) -> None:
        if self.duration_ns < 0:
            raise WorkloadError(f"negative sleep: {self.duration_ns}")


@dataclass(frozen=True)
class SpawnThread(Op):
    """Create a new application thread running ``body(ctx)``.

    Routed through the ``pthread_create`` interposition hook, which is how
    Quartz learns about and registers new threads (Figure 5, step 1).
    The op's result is the new :class:`~repro.os.thread.SimThread`.
    """

    body: Callable[..., Iterator]
    name: str = "thread"
    core_hint: Optional[int] = None
    args: tuple = field(default_factory=tuple)


@dataclass(frozen=True)
class JoinThread(Op):
    """Block until another thread finishes; result is its return value."""

    thread: "SimThread"


@dataclass
class OpResult:
    """What the core reports back for a completed timed op."""

    op: Op
    duration_ns: float
    value: Any = None
