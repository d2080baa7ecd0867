"""Machine-checked runtime invariants for simulator and emulator runs.

The :class:`InvariantMonitor` subscribes to the simulator's ``dispatch``
and ``close`` hook events (see :mod:`repro.sim.hooks`) and audits every
event against properties the paper only argues informally:

* **clock-monotonicity** — simulated time never moves backwards;
* **fifo-tie-break** — events at equal times dispatch in scheduling
  order (the determinism guarantee of the kernel);
* **delay-conservation** — injected delay == Eq. 2 computed delay minus
  amortised overhead, with the carried excess accounted (§3.2);
* **pool-conservation / pool-non-negative** — the overhead pool evolves
  exactly by ``+overhead -amortised`` and never goes negative;
* **no-past-schedule** — no close ever produces a negative delay or spin;
* **split-proportionality** — a sync close's CS and out-of-CS shares sum
  to the split delay and follow the measured wall-time ratio (Fig. 4b);
* **tier-delay-conservation** — a multi-tier close's per-tier delay
  decomposition sums to the computed delay with no negative component.

Violations raise structured :class:`InvariantViolation` errors carrying
the epoch context, so a failure names the thread, trigger, and simulated
time where the accounting broke.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import InvariantViolation
from repro.quartz.epoch import EpochCloseInfo

if TYPE_CHECKING:
    from repro.sim import Simulator
    from repro.sim.events import ScheduledEvent

#: Relative tolerance for conservation checks: float summation error over
#: an epoch's worth of ns-scale arithmetic, far below any real breakage.
REL_TOL = 1e-9
ABS_TOL = 1e-6


class InvariantMonitor:
    """Audits one run; attach before the run, read :meth:`report` after."""

    def __init__(self, raise_on_violation: bool = True):
        self.raise_on_violation = raise_on_violation
        self.sim_checks = 0
        self.epoch_checks = 0
        self.violations: list[InvariantViolation] = []
        #: Longest epoch observed at close (grows under delayed monitor
        #: signals — the graceful-degradation demonstration).
        self.max_epoch_length_ns = 0.0
        self._last_time: Optional[float] = None
        self._last_seq: Optional[int] = None

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach_sim(self, sim: "Simulator") -> None:
        """Observe every dispatched event (monotonicity + FIFO order) and
        every epoch close (the accounting invariants) of *sim*'s run.

        Closes only fire once Quartz attaches, which may happen later.
        """
        sim.hooks.subscribe("dispatch", self._on_dispatch)
        sim.hooks.subscribe("close", self._on_close)

    def report(self) -> dict:
        """JSON-safe audit summary for outcomes and runner telemetry."""
        return {
            "sim_checks": self.sim_checks,
            "epoch_checks": self.epoch_checks,
            "violations": len(self.violations),
            "max_epoch_length_ns": self.max_epoch_length_ns,
        }

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def _violate(self, invariant: str, message: str, context: dict) -> None:
        violation = InvariantViolation(invariant, message, context)
        self.violations.append(violation)
        if self.raise_on_violation:
            raise violation

    def _on_dispatch(self, event: "ScheduledEvent") -> None:
        self.sim_checks += 1
        if self._last_time is not None and event.time < self._last_time:
            self._violate(
                "clock-monotonicity",
                "event dispatched before the previous event's time",
                {"time_ns": event.time, "previous_ns": self._last_time},
            )
        if (
            self._last_time is not None
            and event.time == self._last_time
            and self._last_seq is not None
            and event.seq <= self._last_seq
        ):
            self._violate(
                "fifo-tie-break",
                "equal-time events dispatched out of scheduling order",
                {"time_ns": event.time, "seq": event.seq,
                 "previous_seq": self._last_seq},
            )
        self._last_time = event.time
        self._last_seq = event.seq

    def _on_close(self, info: EpochCloseInfo) -> None:
        self.epoch_checks += 1
        if info.epoch_length_ns > self.max_epoch_length_ns:
            self.max_epoch_length_ns = info.epoch_length_ns
        context = {
            "time_ns": info.time_ns,
            "tid": info.tid,
            "thread": info.thread_name,
            "trigger": info.trigger.name,
        }
        tol = ABS_TOL + REL_TOL * (
            abs(info.delay_computed_ns) + abs(info.pool_before_ns)
            + abs(info.overhead_added_ns)
        )
        if (
            abs(info.injected_ns + info.amortized_ns - info.delay_computed_ns)
            > tol
        ):
            self._violate(
                "delay-conservation",
                "injected + amortised delay != Eq. 2 computed delay",
                {**context, "injected_ns": info.injected_ns,
                 "amortized_ns": info.amortized_ns,
                 "delay_computed_ns": info.delay_computed_ns},
            )
        expected_pool = (
            info.pool_before_ns + info.overhead_added_ns - info.amortized_ns
        )
        if abs(info.pool_after_ns - expected_pool) > tol:
            self._violate(
                "pool-conservation",
                "overhead pool did not evolve by +overhead -amortised",
                {**context, "pool_before_ns": info.pool_before_ns,
                 "pool_after_ns": info.pool_after_ns,
                 "overhead_added_ns": info.overhead_added_ns,
                 "amortized_ns": info.amortized_ns},
            )
        if info.pool_after_ns < -tol:
            self._violate(
                "pool-non-negative",
                "amortisation carry went negative",
                {**context, "pool_after_ns": info.pool_after_ns},
            )
        negatives = {
            name: value
            for name, value in (
                ("injected_ns", info.injected_ns),
                ("amortized_ns", info.amortized_ns),
                ("cs_share_ns", info.cs_share_ns),
                ("out_share_ns", info.out_share_ns),
            )
            if value is not None and value < -tol
        }
        if negatives:
            self._violate(
                "no-past-schedule",
                "an epoch close produced a negative delay or spin",
                {**context, **negatives},
            )
        self._check_split(info, context, tol)
        self._check_tier_delays(info, context, tol)

    def _check_tier_delays(
        self, info: EpochCloseInfo, context: dict, tol: float
    ) -> None:
        """Per-tier delay conservation (multi-tier closes only): the
        tier decomposition must sum to the computed delay, with no
        negative per-tier component."""
        if info.tier_delays_ns is None:
            return
        total = sum(info.tier_delays_ns)
        if abs(total - info.delay_computed_ns) > tol:
            self._violate(
                "tier-delay-conservation",
                "per-tier delays do not sum to the computed delay",
                {**context, "tier_delays_ns": list(info.tier_delays_ns),
                 "delay_computed_ns": info.delay_computed_ns},
            )
        for index, delay in enumerate(info.tier_delays_ns):
            if delay < -tol:
                self._violate(
                    "tier-delay-conservation",
                    f"tier {index} was assigned a negative delay",
                    {**context, "tier_index": index, "tier_delay_ns": delay},
                )

    def _check_split(
        self, info: EpochCloseInfo, context: dict, tol: float
    ) -> None:
        if info.split_delay_ns is None:
            return  # monitor/exit closes inject in place: nothing to split
        cs = info.cs_share_ns or 0.0
        out = info.out_share_ns or 0.0
        if abs(cs + out - info.split_delay_ns) > tol:
            self._violate(
                "split-conservation",
                "CS + out-of-CS shares do not sum to the split delay",
                {**context, "cs_share_ns": cs, "out_share_ns": out,
                 "split_delay_ns": info.split_delay_ns},
            )
        total_wall = info.cs_wall_ns + info.out_wall_ns
        if info.split_delay_ns <= ABS_TOL or total_wall <= 0.0:
            return
        expected_fraction = info.cs_wall_ns / total_wall
        actual_fraction = cs / info.split_delay_ns
        if abs(actual_fraction - expected_fraction) > 1e-6:
            self._violate(
                "split-proportionality",
                "CS share does not follow the measured wall-time ratio",
                {**context, "expected_fraction": expected_fraction,
                 "actual_fraction": actual_fraction},
            )
