"""Crash-point enumeration: snapshotting the persisted image.

A *crash point* is an instant at which the checker asks "if power failed
exactly here, could recovery succeed?".  The injector enumerates them
from three deterministic sources:

* **epoch closes** — every :class:`~repro.quartz.epoch.EpochCloseInfo`
  the engine notifies (the emulator's own natural interrupt points);
* **persistence barriers** — every executed ``pcommit``, snapshotted
  *after* its drain: the adversarial "power fails the instant the
  barrier retires" point;
* **random sim-times** — a self-rescheduling simulator callback whose
  inter-arrival times come from a private stream seeded exactly like the
  fault engine's, via :func:`repro.faults.engine.derive_seed` over
  ``(plan seed, run seed)``.

Snapshots never halt the run — the simulation continues and every
enumerated point is checked afterwards, so one run covers the whole
crash-point set.  Snapshot *storage* can be sharded (``index % shards ==
shard``) to fan the recovery work across the parallel runner: every
shard observes the identical point sequence (the injector perturbs no
simulated state, and its random stream is private), so the merged
results are byte-identical for any job count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.errors import WorkloadError
from repro.faults.engine import derive_seed
from repro.pmem.domain import CrashImage, PersistenceDomain
from repro.sim.random import RandomStreams

if TYPE_CHECKING:
    from repro.sim import Simulator


@dataclass(frozen=True)
class CrashPlan:
    """Declarative, picklable description of which crash points to take."""

    #: Snapshot at every epoch close.
    on_epoch_close: bool = True
    #: Snapshot right after every pcommit drain.
    on_commit: bool = True
    #: Snapshot right after every durable flush persisted a line — the
    #: exhaustive per-persist coverage explore mode needs.
    on_persist: bool = False
    #: Mean inter-arrival of random crash points (0 disables them).
    random_interval_ns: float = 0.0
    #: Plan-level seed, mixed with the run seed per injector.
    seed: int = 0
    #: Hard cap on enumerated points (bounds memory and recovery work).
    max_points: int = 512

    def __post_init__(self) -> None:
        if self.random_interval_ns < 0:
            raise WorkloadError(
                f"random crash interval cannot be negative: "
                f"{self.random_interval_ns}"
            )
        if self.max_points < 1:
            raise WorkloadError(
                f"need at least one crash point: {self.max_points}"
            )

    def to_dict(self) -> dict:
        """JSON-safe form (feeds the export manifest)."""
        return {
            "on_epoch_close": self.on_epoch_close,
            "on_commit": self.on_commit,
            "on_persist": self.on_persist,
            "random_interval_ns": self.random_interval_ns,
            "seed": self.seed,
            "max_points": self.max_points,
        }


class CrashInjector:
    """Enumerates crash points against one run's domain, deterministically."""

    def __init__(
        self,
        domain: PersistenceDomain,
        plan: CrashPlan,
        run_seed: int = 0,
        shard: int = 0,
        shards: int = 1,
    ):
        if shards < 1 or not 0 <= shard < shards:
            raise WorkloadError(
                f"bad shard selector: {shard}/{shards}"
            )
        self.domain = domain
        self.plan = plan
        self.shard = shard
        self.shards = shards
        self._streams = RandomStreams(seed=derive_seed(plan.seed, run_seed))
        self._sim: Optional["Simulator"] = None
        #: Total crash points enumerated (identical in every shard).
        self.points = 0
        #: Points whose snapshot this shard stored.
        self.images: list[CrashImage] = []

    # ------------------------------------------------------------------
    def install(self, sim: "Simulator") -> None:
        """Subscribe to the run's trigger sources on ``sim.hooks``.

        Epoch closes only fire when Quartz is attached to the run.
        """
        self._sim = sim
        hooks = sim.hooks
        if self.plan.on_epoch_close:
            hooks.subscribe("close", self._on_epoch_close)
        if self.plan.on_commit:
            hooks.subscribe("commit", self._on_commit)
        if self.plan.on_persist:
            hooks.subscribe("persist", self._on_persist)
        if self.plan.random_interval_ns > 0:
            self._schedule_random()

    # ------------------------------------------------------------------
    # Triggers
    # ------------------------------------------------------------------
    def _on_epoch_close(self, info) -> None:
        self._take(f"epoch-close#{info.close_seq}")

    def _on_commit(self, thread, op) -> None:
        self._take(f"commit@{thread.name}")

    def _on_persist(self, thread, op) -> None:
        self._take(f"persist@{thread.name}")

    def _schedule_random(self) -> None:
        assert self._sim is not None
        stream = self._streams.stream("crash-random")
        # Jittered, never-zero inter-arrival around the configured mean.
        delay = self.plan.random_interval_ns * (0.5 + stream.random())
        self._sim.schedule(delay, self._random_fire)

    def _random_fire(self) -> None:
        self._take("random")
        if self.points < self.plan.max_points:
            # Stop rescheduling once capped so the event heap can drain.
            self._schedule_random()

    # ------------------------------------------------------------------
    def _take(self, trigger: str) -> None:
        if self.points >= self.plan.max_points:
            return
        index = self.points
        self.points += 1
        if index % self.shards == self.shard:
            time_ns = self._sim.now if self._sim is not None else 0.0
            self.images.append(self.domain.snapshot(index, time_ns, trigger))

    def report(self) -> dict:
        """Deterministic summary counters."""
        return {
            "points": self.points,
            "stored": len(self.images),
            "shard": self.shard,
            "shards": self.shards,
            "capped": self.points >= self.plan.max_points,
        }
