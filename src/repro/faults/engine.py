"""The fault engine: seeded injectors attached to the model's seams.

One :class:`FaultEngine` serves one run.  It derives every stochastic
decision from ``(plan seed, run seed)`` through the same
:class:`~repro.sim.random.RandomStreams` machinery the simulator itself
uses, so faulted runs are exactly as deterministic as clean ones — the
foundation of the faulted jobs-invariance guarantee and of reproducible
fault exports.

Injectors subscribe to the simulator's :class:`~repro.sim.hooks.Hooks`
in :meth:`FaultEngine.install` and leave in :meth:`uninstall`:

* ``schedule`` — timer jitter and clock drift on every scheduled delay;
* ``signal`` — delayed or dropped epoch signals (the monitor →
  application channel of Figure 5);
* ``pmc_read`` — stale counter reads and register wrap/overflow;
* ``monitor_wakeup`` — missed monitor wake-ups;
* :meth:`perturb_calibration` — perturbed latency/bandwidth calibration
  points, applied before the emulator attaches.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.faults.plan import FaultPlan
from repro.sim.random import RandomStreams

if TYPE_CHECKING:
    from repro.hw.machine import Machine
    from repro.os.system import SimOS
    from repro.quartz.calibration import CalibrationData
    from repro.sim import Simulator

#: Sentinel ``signal`` verdict: swallow the signal.
DROP_SIGNAL = "drop"


def derive_seed(plan_seed: int, run_seed: int) -> int:
    """Mix a plan seed and a per-run seed into one stream seed.

    The foundation of jobs-invariance for every seeded injector — the
    fault engine and the crash injector both derive their private
    :class:`RandomStreams` through this exact mix, so any fan-out of runs
    reproduces the in-process decision sequence.
    """
    return (plan_seed * 1_000_003 + run_seed * 7_368_787 + 1) & 0x7FFFFFFF


class FaultEngine:
    """Instantiates a :class:`FaultPlan` against one run's objects."""

    def __init__(self, plan: FaultPlan, run_seed: int = 0):
        self.plan = plan
        self.run_seed = run_seed
        self._streams = RandomStreams(seed=derive_seed(plan.seed, run_seed))
        #: Injection counters by kind (only kinds that fired appear).
        self.injections: dict[str, int] = {}
        self._stale: dict[tuple[int, str], float] = {}
        #: ``(hooks, event, subscriber)`` triples :meth:`install` added.
        self._subscribed: list[tuple] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def install(
        self,
        sim: Optional["Simulator"] = None,
        machine: Optional["Machine"] = None,
        os: Optional["SimOS"] = None,
    ) -> None:
        """Attach the plan's active injectors to the given objects.

        ``machine`` implies its simulator; ``os`` enables the signal and
        monitor injectors (the Quartz-facing events).  Passing only
        ``sim`` installs just the timer faults — the subset meaningful
        for un-emulated (Conf_2 / native) runs.
        """
        plan = self.plan
        if machine is not None and sim is None:
            sim = machine.sim
        if sim is not None and (
            plan.timer_jitter_rel > 0 or plan.timer_drift_rel != 0.0
        ):
            self._subscribe(sim, "schedule", self._intercept_delay)
        if machine is not None and (
            plan.counter_stale_p > 0 or plan.counter_wrap_bits is not None
        ):
            self._subscribe(machine.sim, "pmc_read", self._intercept_counter_read)
        if os is not None:
            if (
                plan.signal_drop_p > 0
                or (plan.signal_delay_ns > 0 and plan.signal_delay_p > 0)
            ):
                self._subscribe(os.sim, "signal", self._intercept_signal)
            if plan.monitor_miss_p > 0:
                self._subscribe(os.sim, "monitor_wakeup", self.monitor_skips_wakeup)

    def _subscribe(self, sim: "Simulator", event: str, fn: Callable) -> None:
        sim.hooks.subscribe(event, fn)
        self._subscribed.append((sim.hooks, event, fn))

    def uninstall(self) -> None:
        """Detach every installed injector (idempotent)."""
        while self._subscribed:
            hooks, event, fn = self._subscribed.pop()
            hooks.unsubscribe(event, fn)

    def _count(self, kind: str) -> None:
        self.injections[kind] = self.injections.get(kind, 0) + 1

    def report(self) -> dict:
        """JSON-safe account of the plan and what actually fired."""
        return {
            "plan": self.plan.to_dict(),
            "injections": dict(sorted(self.injections.items())),
        }

    # ------------------------------------------------------------------
    # Injectors
    # ------------------------------------------------------------------
    def _intercept_delay(self, delay_ns: float) -> float:
        """Timer jitter/drift on one scheduled delay (multiplicative, so
        zero-delay continuations stay immediate and ordering-exact)."""
        plan = self.plan
        factor = 1.0 + plan.timer_drift_rel
        if plan.timer_jitter_rel > 0:
            factor += plan.timer_jitter_rel * self._streams.stream(
                "faults-timer"
            ).uniform(-1.0, 1.0)
        if delay_ns > 0 and factor != 1.0:
            self._count("timer_jitter")
        return delay_ns * max(0.0, factor)

    def _intercept_signal(self, thread, signal) -> Union[None, str, float]:
        """Decide one posted signal's fate: deliver, drop, or delay.

        Returns ``None`` (deliver normally), :data:`DROP_SIGNAL`, or a
        positive re-post delay in ns (the OS schedules the retry).
        """
        rng = self._streams.stream("faults-signal")
        plan = self.plan
        if plan.signal_drop_p > 0 and rng.random() < plan.signal_drop_p:
            self._count("signal_dropped")
            return DROP_SIGNAL
        if plan.signal_delay_ns > 0 and rng.random() < plan.signal_delay_p:
            self._count("signal_delayed")
            return plan.signal_delay_ns
        return None

    def monitor_skips_wakeup(self) -> bool:
        """True when the monitor thread should skip this wake-up scan."""
        plan = self.plan
        if plan.monitor_miss_p <= 0:
            return False
        if self._streams.stream("faults-monitor").random() < plan.monitor_miss_p:
            self._count("monitor_missed")
            return True
        return False

    def _intercept_counter_read(
        self, core_id: int, event: str, value: float
    ) -> float:
        """Stale and wrapped counter observations.

        Staleness returns the previous *observed* value (still monotone,
        like reading a cached MSR image); wrap reduces modulo the
        register width, which makes the next epoch's delta negative —
        the epoch engine clamps that to zero (graceful degradation)."""
        plan = self.plan
        key = (core_id, event)
        if plan.counter_wrap_bits is not None:
            modulus = float(2 ** plan.counter_wrap_bits)
            wrapped = value % modulus
            if wrapped != value:
                self._count("counter_wrapped")
            value = wrapped
        if plan.counter_stale_p > 0:
            previous = self._stale.get(key)
            rng = self._streams.stream(f"faults-counter-{core_id}")
            if previous is not None and rng.random() < plan.counter_stale_p:
                self._count("counter_stale")
                return previous
        self._stale[key] = value
        return value

    # ------------------------------------------------------------------
    # Calibration perturbation (applied before the emulator attaches)
    # ------------------------------------------------------------------
    def perturb_calibration(
        self, calibration: "CalibrationData"
    ) -> "CalibrationData":
        """Return a perturbed copy of *calibration* (or it, unchanged)."""
        rel = self.plan.calib_perturb_rel
        if rel <= 0:
            return calibration
        rng = self._streams.stream("faults-calibration")

        def perturb(value: float) -> float:
            return value * (1.0 + rel * rng.uniform(-1.0, 1.0))

        dram_local = perturb(calibration.dram_local_ns)
        dram_remote = perturb(calibration.dram_remote_ns)
        # Calibration sanity (local < remote) survives the perturbation:
        # the emulator rejects non-physical data outright.
        if dram_remote <= dram_local:
            dram_remote = dram_local * (1.0 + 1e-3)
        self._count("calibration_perturbed")
        return dataclasses.replace(
            calibration,
            dram_local_ns=dram_local,
            dram_remote_ns=dram_remote,
            l3_ns=perturb(calibration.l3_ns),
            bandwidth_table=tuple(
                (register, perturb(rate))
                for register, rate in calibration.bandwidth_table
            ),
        )
