"""Emulation statistics and user feedback (Section 3.2).

Quartz *"is augmented with specially designed statistics to provide useful
feedback to the user: this statistics reports whether the emulator
overhead was amortized entirely or not, and it indicates whether adjusting
the epoch size may improve emulation accuracy"*.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import Optional


class EpochTrigger(enum.Enum):
    """Why an epoch was closed."""

    #: The monitor found the epoch exceeding the max size (Figure 5).
    MONITOR = "monitor"
    #: An inter-thread communication point (lock release / notify).
    SYNC = "sync"
    #: Thread exit (final drain of accumulated delay).
    EXIT = "exit"


@dataclass
class ThreadQuartzStats:
    """Per-thread accounting of the epoch machinery."""

    tid: int
    name: str
    registered_at_ns: float
    epochs_monitor: int = 0
    epochs_sync: int = 0
    epochs_exit: int = 0
    #: Sync-triggered closes suppressed by the minimum epoch size.
    closes_skipped_min_epoch: int = 0
    #: Total delay the model asked for.
    delay_computed_ns: float = 0.0
    #: Delay actually injected (after overhead amortisation).
    delay_injected_ns: float = 0.0
    #: Total epoch-processing overhead (counter reads + model).
    overhead_ns: float = 0.0
    #: Overhead recovered by shaving injected delays.
    overhead_amortized_ns: float = 0.0
    #: Overhead never amortised by thread end (carried-over remainder).
    overhead_residual_ns: float = 0.0

    @property
    def epochs_total(self) -> int:
        """All epoch closes, regardless of trigger."""
        return self.epochs_monitor + self.epochs_sync + self.epochs_exit

    def to_dict(self) -> dict:
        """JSON-safe form (all counters plus the derived total)."""
        payload = dataclasses.asdict(self)
        payload["epochs_total"] = self.epochs_total
        return payload


@dataclass
class QuartzStats:
    """Aggregate emulator statistics."""

    per_thread: dict[int, ThreadQuartzStats] = field(default_factory=dict)
    threads_registered: int = 0
    monitor_wakeups: int = 0
    signals_posted: int = 0
    #: Epochs whose positive stall time had to be discarded because the
    #: reference denominator was zero (an inconsistent PMC feed) — the
    #: telemetry side of the Eq. (3) consistency check.
    model_warnings: int = 0
    #: Tier placement/migration summary of a multi-tier run (see
    #: :meth:`repro.quartz.tiers.TierDirectory.report`); None otherwise.
    tier_report: Optional[dict] = None

    def thread(self, tid: int) -> ThreadQuartzStats:
        """Stats record of one registered thread."""
        return self.per_thread[tid]

    # -- aggregates -------------------------------------------------------
    def _sum(self, attribute: str) -> float:
        return sum(getattr(stats, attribute) for stats in self.per_thread.values())

    @property
    def epochs_total(self) -> int:
        """Epoch closes across all threads."""
        return int(self._sum("epochs_total"))

    @property
    def delay_injected_ns(self) -> float:
        """Total injected delay across all threads."""
        return self._sum("delay_injected_ns")

    @property
    def delay_computed_ns(self) -> float:
        """Total model-computed delay across all threads."""
        return self._sum("delay_computed_ns")

    @property
    def overhead_ns(self) -> float:
        """Total epoch-processing overhead across all threads."""
        return self._sum("overhead_ns")

    @property
    def overhead_amortized_ns(self) -> float:
        """Overhead recovered by delay shaving across all threads."""
        return self._sum("overhead_amortized_ns")

    @property
    def overhead_residual_ns(self) -> float:
        """Overhead that was never amortised (still pending at exit)."""
        return self._sum("overhead_residual_ns")

    @property
    def fully_amortized(self) -> bool:
        """True if all processing overhead was hidden inside delays."""
        return self.overhead_residual_ns <= 1e-9

    def to_dict(self) -> dict:
        """JSON-safe form: globals, aggregates, and per-thread records.

        Per-thread records are emitted sorted by tid so the output is
        deterministic; this is what the JSONL trace's ``stats`` lines
        carry (see :mod:`repro.quartz.trace`).
        """
        return {
            "threads_registered": self.threads_registered,
            "monitor_wakeups": self.monitor_wakeups,
            "signals_posted": self.signals_posted,
            "epochs_total": self.epochs_total,
            "delay_computed_ns": self.delay_computed_ns,
            "delay_injected_ns": self.delay_injected_ns,
            "overhead_ns": self.overhead_ns,
            "overhead_amortized_ns": self.overhead_amortized_ns,
            "overhead_residual_ns": self.overhead_residual_ns,
            "fully_amortized": self.fully_amortized,
            "model_warnings": self.model_warnings,
            "tier_report": self.tier_report,
            "per_thread": [
                self.per_thread[tid].to_dict()
                for tid in sorted(self.per_thread)
            ],
        }

    def feedback(self) -> str:
        """The Section 3.2 tuning hint."""
        if self.epochs_total == 0:
            return "no epochs closed; nothing to report"
        if self.fully_amortized:
            return (
                "emulator overhead fully amortized into injected delays; "
                "epoch size is adequate"
            )
        residual_fraction = self.overhead_residual_ns / max(self.overhead_ns, 1e-9)
        return (
            f"{residual_fraction:.0%} of epoch-processing overhead was NOT "
            "amortized; consider a larger epoch size (or the workload is "
            "too compute-bound for the configured latency to absorb it)"
        )
