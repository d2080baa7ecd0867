"""Quartz configuration knobs.

Everything tunable about the emulator lives here, mirroring the paper's
configuration surface: target NVM latency and bandwidth, epoch sizes
(max for the monitor, min for the sync-triggered closes of Section 2.3),
the monitor wake interval, the counter-access backend (Section 3.2), the
"switched-off delay injection" diagnostic mode, and the write-emulation
model (pflush of Section 3.1 vs. the pcommit extension of Section 6).

``ladder`` picks the memory system.  None emulates PM: all application
memory is NVM at ``nvm_read_latency_ns`` (Sections 2-3.2).  A
:class:`~repro.quartz.tiers.TierLadder` emulates local DRAM plus
emulated tiers on the sibling socket, each at its own read/write
latency; the paper's DRAM + virtual NVM system (Section 3.3) is the
two-tier case.  Every other field is read with or without a ladder,
save ``nvm_read_latency_ns``, which a ladder config must leave at its
default.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import QuartzError
from repro.quartz.tiers import TierLadder
from repro.units import MILLISECOND


class WriteModel(enum.Enum):
    """How persistent writes are emulated."""

    #: pflush: stall-wait per cache line (pessimistic, Section 3.1).
    PFLUSH = "pflush"
    #: clflushopt + pcommit: delays accumulate and are injected at the
    #: barrier, allowing independent writes to overlap (Section 6).
    PCOMMIT = "pcommit"


#: Per-thread registration cost (Section 3.2): ~300,000 cycles.
THREAD_REGISTRATION_COST_CYCLES = 300_000
#: Epoch-processing cost excluding counter reads (Section 3.2 puts the
#: all-in rdpmc figure at ~4000 cycles, about half of which is counter
#: reading).
EPOCH_BASE_COST_CYCLES = 2_000


@dataclass
class QuartzConfig:
    """Full configuration of one Quartz attachment."""

    #: Target average NVM read latency (ns).  Must be >= the latency of
    #: the DRAM standing in for NVM.  PM only: a ladder's tiers carry
    #: their own read latencies.
    nvm_read_latency_ns: float = 400.0
    #: Target NVM bandwidth in bytes/ns (GB/s); None = unthrottled.
    nvm_bandwidth_gbps: Optional[float] = None
    #: Separate read/write bandwidth targets (GB/s) for asymmetric NVM —
    #: generally read bandwidth exceeds write bandwidth (Section 2.1).
    #: Requires hardware with the separate registers wired up; the
    #: paper's testbeds lacked them (footnote 2).
    nvm_read_bandwidth_gbps: Optional[float] = None
    nvm_write_bandwidth_gbps: Optional[float] = None
    #: Target NVM write latency for pflush (ns); None = no write delay.
    nvm_write_latency_ns: Optional[float] = None
    #: The DRAM + emulated-tier ladder; None = PM (all memory is NVM).
    ladder: Optional[TierLadder] = None
    #: Write emulation model.
    write_model: WriteModel = WriteModel.PFLUSH
    #: Maximum (static) epoch length; the monitor interrupts threads whose
    #: epoch exceeds this (paper default 10 ms, Section 4.4 footnote 4).
    max_epoch_ns: float = 10.0 * MILLISECOND
    #: Minimum epoch length gating sync-triggered closes (Section 2.3).
    min_epoch_ns: float = 0.1 * MILLISECOND
    #: Monitor wake interval; None = max_epoch / 10.
    monitor_interval_ns: Optional[float] = None
    #: Counter access backend: "rdpmc" (direct) or "papi" (trapping).
    counter_backend: str = "rdpmc"
    #: Delay model: "stalls" (Eq. 2/3, MLP-aware) or "simple" (Eq. 1,
    #: every LLC miss counted as serialized — the strawman of Figure 2).
    latency_model: str = "stalls"
    #: False = "switched-off delay injection" overhead-measurement mode.
    injection_enabled: bool = True

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`QuartzError` on inconsistent settings."""
        if not 0 < self.nvm_read_latency_ns < math.inf:
            raise QuartzError(
                "NVM read latency must be finite and positive: "
                f"{self.nvm_read_latency_ns}"
            )
        for name in (
            "nvm_bandwidth_gbps", "nvm_read_bandwidth_gbps", "nvm_write_bandwidth_gbps",
        ):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise QuartzError(f"{name} must be finite and positive: {value}")
        asymmetric = (
            self.nvm_read_bandwidth_gbps is not None
            or self.nvm_write_bandwidth_gbps is not None
        )
        if asymmetric and (
            self.nvm_read_bandwidth_gbps is None
            or self.nvm_write_bandwidth_gbps is None
        ):
            raise QuartzError(
                "asymmetric throttling needs both read and write targets"
            )
        if self.nvm_write_latency_ns is not None and not (
            0 <= self.nvm_write_latency_ns < math.inf
        ):
            raise QuartzError(
                "NVM write latency must be finite and non-negative: "
                f"{self.nvm_write_latency_ns}"
            )
        if not 0 < self.max_epoch_ns < math.inf:
            raise QuartzError(
                f"max epoch must be finite and positive: {self.max_epoch_ns}"
            )
        if not 0 <= self.min_epoch_ns < math.inf:
            raise QuartzError(
                f"min epoch must be finite and non-negative: {self.min_epoch_ns}"
            )
        if self.min_epoch_ns > self.max_epoch_ns:
            raise QuartzError(
                f"min epoch {self.min_epoch_ns} exceeds max epoch {self.max_epoch_ns}"
            )
        if self.monitor_interval_ns is not None and not (
            0 < self.monitor_interval_ns < math.inf
        ):
            raise QuartzError(
                "monitor interval must be finite and positive: "
                f"{self.monitor_interval_ns}"
            )
        if self.counter_backend not in ("rdpmc", "papi"):
            raise QuartzError(
                f"unknown counter backend: {self.counter_backend!r} "
                "(expected 'rdpmc' or 'papi')"
            )
        if self.latency_model not in ("stalls", "simple"):
            raise QuartzError(
                f"unknown latency model: {self.latency_model!r} "
                "(expected 'stalls' or 'simple')"
            )
        if self.ladder is not None:
            if self.latency_model == "simple":
                raise QuartzError(
                    "the Eq. 1 simple model has no local/remote split; "
                    "a tier ladder requires the stall model"
                )
            if self.nvm_read_latency_ns != QuartzConfig.nvm_read_latency_ns:
                raise QuartzError(
                    "nvm_read_latency_ns is not read with a tier ladder "
                    "(each tier carries its own read latency): "
                    f"{self.nvm_read_latency_ns}"
                )

    @property
    def effective_monitor_interval_ns(self) -> float:
        """The monitor wake period actually used."""
        if self.monitor_interval_ns is not None:
            return self.monitor_interval_ns
        return self.max_epoch_ns / 10.0
