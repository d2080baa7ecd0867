"""The *Multi-Threaded* benchmark of Section 4.5.

Parameters straight from the paper:

* ``N`` — threads to spawn;
* ``K`` — critical sections each thread executes;
* ``cs_dur`` — pointer-chasing iterations (MemLat-style) *inside* each
  critical section;
* ``out_dur`` — pointer-chasing iterations *between* critical sections.

All threads contend on one mutex, so correct emulation requires the
delays accumulated inside a critical section to be injected before the
lock release (Figure 4b) — exactly what the min-epoch mechanism under
test enables.  Each thread chases its own array (the critical section
protects a logical resource, not the memory).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.hw.topology import PageSize
from repro.ops import (
    JoinThread,
    MemBatch,
    MutexLock,
    MutexUnlock,
    PatternKind,
    SpawnThread,
)
from repro.os.sync import Mutex
from repro.units import MIB


@dataclass(frozen=True)
class MultiThreadedConfig:
    """Parameters of one Multi-Threaded run (paper names in comments)."""

    threads: int = 2  # N
    sections: int = 200  # K
    cs_iterations: int = 100  # cs_dur
    out_iterations: int = 0  # out_dur (0 = the "cs only" extreme case)
    array_bytes: int = 256 * MIB

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise WorkloadError(f"need at least one thread: {self.threads}")
        if self.sections < 1:
            raise WorkloadError(f"need at least one section: {self.sections}")
        if self.cs_iterations < 1:
            raise WorkloadError(
                f"critical sections must do work: {self.cs_iterations}"
            )
        if self.out_iterations < 0:
            raise WorkloadError(
                f"outside iterations cannot be negative: {self.out_iterations}"
            )


@dataclass
class MultiThreadedResult:
    """Output of one Multi-Threaded run."""

    config: MultiThreadedConfig
    elapsed_ns: float
    lock_acquisitions: int
    contended_acquisitions: int

    @property
    def total_cs_iterations(self) -> int:
        """Pointer-chase iterations executed inside critical sections."""
        return self.config.threads * self.config.sections * self.config.cs_iterations


def _worker_body(ctx, config: MultiThreadedConfig, mutex: Mutex):
    region = ctx.malloc(
        config.array_bytes, page_size=PageSize.HUGE_2M, label="mt-chase"
    )
    # Every section yields the same ops: build them once.
    lock = MutexLock(mutex)
    unlock = MutexUnlock(mutex)
    inside = MemBatch(
        region,
        accesses=config.cs_iterations,
        pattern=PatternKind.CHASE,
        label="mt-cs",
    )
    outside = None
    if config.out_iterations:
        outside = MemBatch(
            region,
            accesses=config.out_iterations,
            pattern=PatternKind.CHASE,
            label="mt-out",
        )
    for _ in range(config.sections):
        yield lock
        yield inside
        yield unlock
        if outside is not None:
            yield outside


def multithreaded_main_body(config: MultiThreadedConfig, out: dict):
    """Main-thread body: forks N workers over one shared mutex."""

    def body(ctx):
        mutex = Mutex(ctx.os, name="mt-benchmark")
        start = ctx.now_ns
        workers = []
        for index in range(config.threads):
            workers.append(
                (
                    yield SpawnThread(
                        _worker_body, name=f"mt{index}", args=(config, mutex)
                    )
                )
            )
        for worker in workers:
            yield JoinThread(worker)
        out["result"] = MultiThreadedResult(
            config=config,
            elapsed_ns=ctx.now_ns - start,
            lock_acquisitions=mutex.acquisitions,
            contended_acquisitions=mutex.contended_acquisitions,
        )
        return out["result"]

    return body
