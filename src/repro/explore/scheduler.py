"""The controlled scheduler: parking threads at sync/persist boundaries.

Explore mode serializes a workload's scheduling decisions.  Every thread
is parked at each *boundary op* (sync primitives, persist ops, thread
lifecycle — see ``repro.os.system._BOUNDARY_OPS``) plus once at thread
start, as the one ``gate`` subscriber of the simulator's hooks.  The
explorer then drains the simulator, inspects who is parked, and grants
exactly one thread at a time — the cooperative poll/continue engine shape
of simsched-style model checkers.

Between two boundaries a thread only executes thread-local work (compute
and memory batches against its own program state), so granting one
boundary op lets the thread run untimed-race-free to its *next* boundary
without losing any distinct interleaving: all cross-thread interaction —
lock hand-off, barrier release, persist ordering — happens at gated ops.

**Enabledness.**  A parked op is offered as a candidate only if granting
it makes progress: ``MutexLock`` is enabled only while the mutex is free
and ``JoinThread`` only once the target finished.  This keeps every
decision point a real choice (granting a blocked acquire would just move
the thread into the primitive's wait queue and hand the schedule back),
and it makes deadlock detection exact: live threads with no enabled
candidate cannot ever run again.

**Independence.**  For DPOR-style sleep-set pruning each boundary op
carries a :func:`boundary_footprint`: sync ops name their primitive,
persist ops form one mutually-dependent class (the crash-image cross
product observes the *global* persist order, so reordering any two
persists can change an intermediate crash image — "persist-boundary
pruning" never commutes them), and spawn/join are dependent with
everything (they change the thread population and enabledness).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.errors import WorkloadError
from repro.ops import (
    BarrierWait,
    Commit,
    CondNotify,
    CondWait,
    Flush,
    FlushOpt,
    JoinThread,
    MutexLock,
    MutexUnlock,
    SpawnThread,
)
from repro.sim import Condition

if TYPE_CHECKING:
    from repro.os.system import SimOS
    from repro.os.thread import SimThread

#: Footprint classes (first element of every footprint tuple).
START = "start"
SYNC = "sync"
PERSIST = "persist"
GLOBAL = "global"


def boundary_footprint(op) -> tuple:
    """Canonical ``(class, resources)`` footprint of one boundary op.

    ``resources`` is a tuple of ``(kind, name)`` pairs; two SYNC ops are
    independent iff their resource sets are disjoint.
    """
    if op is None:
        return (START, ())
    kind = type(op)
    if kind is MutexLock or kind is MutexUnlock:
        return (SYNC, (("mutex", op.mutex.name),))
    if kind is CondWait:
        return (SYNC, (("cond", op.cond.name), ("mutex", op.mutex.name)))
    if kind is CondNotify:
        return (SYNC, (("cond", op.cond.name),))
    if kind is BarrierWait:
        return (SYNC, (("barrier", op.barrier.name),))
    if kind is Flush or kind is FlushOpt or kind is Commit:
        return (PERSIST, ())
    if kind is JoinThread or kind is SpawnThread:
        return (GLOBAL, ())
    raise WorkloadError(f"op {op!r} reached the gate without a footprint")


def independent(a: tuple, b: tuple) -> bool:
    """True if two boundary ops commute for every oracle-visible outcome."""
    if a[0] == GLOBAL or b[0] == GLOBAL:
        return False
    if a[0] == PERSIST and b[0] == PERSIST:
        return False
    if set(a[1]) & set(b[1]):
        return False
    return True


def describe_boundary(op) -> str:
    """Short human-readable label of a gated op (for replayable traces)."""
    if op is None:
        return "start"
    kind = type(op)
    if kind is MutexLock:
        return f"lock:{op.mutex.name}"
    if kind is MutexUnlock:
        return f"unlock:{op.mutex.name}"
    if kind is CondWait:
        return f"wait:{op.cond.name}"
    if kind is CondNotify:
        return f"notify:{op.cond.name}"
    if kind is BarrierWait:
        return f"barrier:{op.barrier.name}"
    if kind is Flush:
        return f"flush:{op.region.label or 'mem'}"
    if kind is FlushOpt:
        return f"flushopt:{op.region.label or 'mem'}"
    if kind is Commit:
        return "commit"
    if kind is JoinThread:
        return f"join:{op.thread.name}"
    return f"spawn:{getattr(op, 'name', '?')}"


@dataclass
class ParkedThread:
    """One thread waiting at a boundary gate for a grant."""

    thread: "SimThread"
    op: object  # the boundary Op, or None for the thread-start gate
    grant: Condition


class ControlledScheduler:
    """Owns the boundary gate of one OS and serializes its grants.

    Also subscribes to the ``op`` event (after the persistence domain, in
    explore runs), folding every executed op into a SHA-256 digest — the
    replay-equality witness the property tests pin.
    """

    def __init__(self, os: "SimOS"):
        hooks = os.hooks
        if hooks.gate:
            raise WorkloadError("a boundary gate is already installed")
        self.os = os
        self.sim = os.sim
        self._parked: dict[str, ParkedThread] = {}
        self.ops_granted = 0
        self.ops_observed = 0
        self._hash = hashlib.sha256()
        hooks.subscribe("gate", self._gate)
        hooks.subscribe("op", self._observe)

    # ------------------------------------------------------------------
    # Seams
    # ------------------------------------------------------------------
    def _gate(self, thread: "SimThread", op):
        grant = Condition(self.sim, name=f"gate.{thread.name}")
        self._parked[thread.name] = ParkedThread(thread, op, grant)
        yield grant

    def _observe(self, thread: "SimThread", op) -> None:
        self.ops_observed += 1
        self._hash.update(
            f"{thread.name}|{type(op).__name__}|{self.sim.now!r}\n".encode()
        )

    def trace_digest(self) -> str:
        """SHA-256 over the executed op stream (thread, op type, time)."""
        return self._hash.hexdigest()

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    @staticmethod
    def _is_enabled(op) -> bool:
        if type(op) is MutexLock:
            return op.mutex.owner is None
        if type(op) is JoinThread:
            return op.thread.finished
        return True

    def enabled(self) -> list[ParkedThread]:
        """Parked threads whose boundary op can make progress, by tid."""
        candidates = [
            entry
            for entry in self._parked.values()
            if self._is_enabled(entry.op)
        ]
        candidates.sort(key=lambda entry: entry.thread.tid)
        return candidates

    def parked_count(self) -> int:
        """Threads currently waiting at the gate (enabled or not)."""
        return len(self._parked)

    def blocked_summary(self) -> list[str]:
        """Deterministic description of parked threads (deadlock reports)."""
        return [
            f"{entry.thread.name}@{describe_boundary(entry.op)}"
            for entry in sorted(
                self._parked.values(), key=lambda entry: entry.thread.tid
            )
        ]

    def grant(self, entry: ParkedThread) -> None:
        """Release one parked thread through its boundary op."""
        parked = self._parked.pop(entry.thread.name, None)
        if parked is not entry:
            raise WorkloadError(
                f"grant of {entry.thread.name!r} does not match its park"
            )
        self.ops_granted += 1
        entry.grant.fire(None)

    def unfinished(self) -> list["SimThread"]:
        """Non-daemon threads that have not returned yet."""
        return [
            thread
            for thread in self.os.threads
            if not thread.daemon and not thread.finished
        ]
