"""Quartz — the paper's contribution, reimplemented against the simulator.

The package mirrors the structure of Section 3:

* :mod:`repro.quartz.kernel_module` — the privileged half: programs the
  thermal-control registers and performance counters, enables user-mode
  ``rdpmc``;
* :mod:`repro.quartz.emulator` — the user-mode library: attaches to a
  process, forks the monitor thread, interposes on pthread calls, closes
  epochs and injects delays;
* :mod:`repro.quartz.model` — the analytic memory model, Eqs. (1)-(4);
* :mod:`repro.quartz.epoch` — per-thread epoch state, overhead
  amortisation (Section 3.2);
* :mod:`repro.quartz.counters` — rdpmc vs. PAPI-style counter access;
* :mod:`repro.quartz.bandwidth` / :mod:`repro.quartz.calibration` —
  bandwidth throttling and the offline calibration tables;
* :mod:`repro.quartz.pm` — pmalloc/pflush and the pcommit write model
  (Section 6);
* :mod:`repro.quartz.virtual_topology` / :mod:`repro.quartz.tiers` —
  the tier ladder on the sibling socket (``QuartzConfig(ladder=
  TierLadder(...))``); the paper's DRAM + NVM system (Section 3.3) is
  its two-tier case.
"""

from repro.quartz.calibration import CalibrationData, calibrate_arch
from repro.quartz.config import QuartzConfig, WriteModel
from repro.quartz.emulator import Quartz
from repro.quartz.presets import (
    ALL_TECHNOLOGIES,
    MEMRISTOR,
    PCM,
    SLOW_NVM,
    STT_MRAM,
    NvmTechnology,
    technology_by_name,
)
from repro.quartz.report import render_report
from repro.quartz.stats import EpochTrigger, QuartzStats
from repro.quartz.tiers import MemoryTier, TierLadder
from repro.quartz.trace import EpochTrace, attach_trace

__all__ = [
    "ALL_TECHNOLOGIES",
    "CalibrationData",
    "EpochTrace",
    "EpochTrigger",
    "MEMRISTOR",
    "MemoryTier",
    "NvmTechnology",
    "PCM",
    "Quartz",
    "QuartzConfig",
    "QuartzStats",
    "SLOW_NVM",
    "STT_MRAM",
    "TierLadder",
    "WriteModel",
    "attach_trace",
    "calibrate_arch",
    "render_report",
    "technology_by_name",
]
