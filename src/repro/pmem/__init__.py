"""Crash-consistency checking for persistent-memory software.

Quartz's purpose is tuning PM software (paper Sections 3.1 and 6), but
performance emulation alone cannot tell a correct persistence protocol
from one that forgets a flush.  This package layers the missing
correctness tooling on the simulator's hook events
(:mod:`repro.sim.hooks`):

* :mod:`repro.pmem.domain` — the persistence-domain model: every
  pmalloc'd cache line tracked through
  ``dirty → posted → persisted``;
* :mod:`repro.pmem.crash` — deterministic crash-point enumeration and
  persisted-image snapshots;
* :mod:`repro.pmem.checker` — the :class:`RecoverableWorkload` protocol,
  recovery replay, and the mutant regression oracle.

Wired into the validation stack as the ``crash`` run mode and the
``crash-check`` experiment (``quartz-repro run crash-check``).
"""

from repro.pmem.crash import CrashInjector, CrashPlan
from repro.pmem.checker import (
    MUTANTS,
    CrashCheckReport,
    PM_WORKLOADS,
    RecoverableWorkload,
    build_recoverable,
    check_workload,
)
from repro.pmem.domain import CrashImage, PersistenceDomain, RegionShadow

__all__ = [
    "CrashCheckReport",
    "CrashImage",
    "CrashInjector",
    "CrashPlan",
    "MUTANTS",
    "PM_WORKLOADS",
    "PersistenceDomain",
    "RecoverableWorkload",
    "RegionShadow",
    "build_recoverable",
    "check_workload",
]
