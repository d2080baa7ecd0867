"""Reproduction of *Quartz: A Lightweight Performance Emulator for
Persistent Memory Software* (Volos et al., Middleware 2015).

The package layers, bottom to top:

* :mod:`repro.sim` — a deterministic discrete-event kernel;
* :mod:`repro.hw` — the paper's three dual-socket Xeon testbeds as
  simulated hardware (caches, memory controllers with thermal-throttle
  registers, performance counters, DVFS);
* :mod:`repro.os` — threads, scheduling, pthread synchronisation,
  signals, NUMA policy, and ``LD_PRELOAD``-style interposition;
* :mod:`repro.quartz` — **the paper's contribution**: the epoch-based
  latency emulator, bandwidth throttling, the persistent-memory API, and
  the virtual topology's tier ladder (DRAM + NVM is its two-tier case);
* :mod:`repro.workloads` — MemLat, STREAM, Multi-Threaded, MultiLat, a
  B+-tree KV store, PageRank, and Graph500-style BFS;
* :mod:`repro.validation` — the Conf_1/Conf_2 methodology and one driver
  per paper table/figure.

Quickstart::

    from repro import (IVY_BRIDGE, MemBatch, PatternKind, Quartz,
                       QuartzConfig, Testbed, calibrate_arch)

    def app(ctx):
        region = ctx.pmalloc(1 << 32)
        yield MemBatch(region, 100_000, PatternKind.CHASE)

    with Testbed(IVY_BRIDGE, seed=1) as testbed:
        quartz = Quartz(testbed.os, QuartzConfig(nvm_read_latency_ns=400.0),
                        calibration=calibrate_arch(IVY_BRIDGE))
        quartz.attach()
        testbed.os.create_thread(app)
        testbed.os.run_to_completion()
        print(testbed.sim.now, "ns of emulated NVM time")

A :class:`Testbed` builds Simulator → Machine → SimOS for one run; leaving
the ``with`` block closes it, which breaks the run's reference cycles so
reference counting frees the whole run at once.  Read what you need
(the clock, stats, results) before it closes.
"""

from repro.errors import (
    CalibrationError,
    DeadlockError,
    HardwareError,
    OsError,
    QuartzError,
    ReproError,
    SimulationError,
    UnsupportedFeatureError,
    ValidationError,
    WorkloadError,
)
from repro.hw import (
    ALL_ARCHS,
    HASWELL,
    IVY_BRIDGE,
    SANDY_BRIDGE,
    ArchSpec,
    Machine,
    MemoryRegion,
    PageSize,
    arch_by_name,
)
from repro.ops import (
    BarrierWait,
    Commit,
    Compute,
    CondNotify,
    CondWait,
    Flush,
    FlushOpt,
    JoinThread,
    MemBatch,
    MutexLock,
    MutexUnlock,
    PatternKind,
    Sleep,
    SpawnThread,
    Spin,
)
from repro.os import (
    Barrier,
    CondVar,
    Mutex,
    SimOS,
    SimThread,
    Testbed,
    ThreadContext,
)
from repro.quartz import (
    CalibrationData,
    MemoryTier,
    Quartz,
    QuartzConfig,
    QuartzStats,
    TierLadder,
    WriteModel,
    calibrate_arch,
)
from repro.sim import Simulator

__version__ = "1.0.0"

__all__ = [
    "ALL_ARCHS",
    "ArchSpec",
    "Barrier",
    "BarrierWait",
    "CalibrationData",
    "CalibrationError",
    "Commit",
    "Compute",
    "CondNotify",
    "CondVar",
    "CondWait",
    "DeadlockError",
    "Flush",
    "FlushOpt",
    "HASWELL",
    "HardwareError",
    "IVY_BRIDGE",
    "JoinThread",
    "Machine",
    "MemBatch",
    "MemoryRegion",
    "MemoryTier",
    "Mutex",
    "MutexLock",
    "MutexUnlock",
    "OsError",
    "PageSize",
    "PatternKind",
    "Quartz",
    "QuartzConfig",
    "QuartzError",
    "QuartzStats",
    "ReproError",
    "SANDY_BRIDGE",
    "SimOS",
    "SimThread",
    "SimulationError",
    "Simulator",
    "Sleep",
    "SpawnThread",
    "Spin",
    "Testbed",
    "ThreadContext",
    "TierLadder",
    "UnsupportedFeatureError",
    "ValidationError",
    "WorkloadError",
    "WriteModel",
    "arch_by_name",
    "calibrate_arch",
]
