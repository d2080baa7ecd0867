"""Simulated pthread mutexes and condition variables.

These are the inter-thread communication points the paper's multithreaded
model (Section 2.3) cares about: a delay injected by a lock holder *before*
release propagates to every thread waiting on the lock (Figure 4b).  The
primitives therefore implement real FIFO hand-off — the release directly
grants ownership to the longest-waiting thread — so delay propagation is
an emergent property of the simulation rather than something bolted on.

Both primitives tolerate signal delivery while blocked (a real futex wait
returns EINTR): the signal handler runs and the thread resumes waiting,
preserving its grant if the race went that way.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Optional, TYPE_CHECKING

from repro.errors import OsError
from repro.sim import Condition, Interrupt

if TYPE_CHECKING:
    from repro.os.system import SimOS
    from repro.os.thread import SimThread

_mutex_ids = itertools.count(1)
_cond_ids = itertools.count(1)


class Mutex:
    """A non-recursive FIFO mutex."""

    def __init__(self, os: "SimOS", name: str = ""):
        self.os = os
        self.name = name or f"mutex{next(_mutex_ids)}"
        self.owner: Optional["SimThread"] = None
        self._waiters: deque[tuple["SimThread", Condition]] = deque()
        self.acquisitions = 0
        self.contended_acquisitions = 0

    @property
    def locked(self) -> bool:
        """True while some thread owns the mutex."""
        return self.owner is not None

    @property
    def waiter_count(self) -> int:
        """Threads currently blocked on the mutex."""
        return len(self._waiters)

    def _try_acquire(self, thread: "SimThread") -> bool:
        """Take the mutex if it is free, without blocking."""
        if self.owner is thread:
            raise OsError(f"thread {thread.name!r} self-deadlock on {self.name!r}")
        if self.owner is None:
            self.owner = thread
            self.acquisitions += 1
            return True
        return False

    # Channel-B generators: yield kernel waitables, driven by the OS.
    def _acquire(self, thread: "SimThread"):
        if not self._try_acquire(thread):
            yield from self._acquire_contended(thread)

    def _acquire_contended(self, thread: "SimThread"):
        """Block until the current owner hands the mutex over."""
        self.contended_acquisitions += 1
        while True:
            if self.owner is None:
                self.owner = thread
                self.acquisitions += 1
                return
            grant = Condition(self.os.sim, name=f"{self.name}.grant")
            entry = (thread, grant)
            self._waiters.append(entry)
            try:
                yield grant
                if self.owner is not thread:
                    raise OsError(
                        f"mutex {self.name!r} grant raced incorrectly"
                    )
                self.acquisitions += 1
                return
            except Interrupt as interrupt:
                if self.owner is thread:
                    # The grant fired just as the signal landed: we own the
                    # lock; handle the signal and proceed.
                    yield from self.os._deliver_signal(thread, interrupt.payload)
                    self.acquisitions += 1
                    return
                if entry in self._waiters:
                    self._waiters.remove(entry)
                yield from self.os._deliver_signal(thread, interrupt.payload)
                # Loop: re-queue at the back (futex wakeups make no
                # fairness promise across EINTR).

    def _release(self, thread: "SimThread") -> None:
        if self.owner is not thread:
            owner = self.owner.name if self.owner else "<unlocked>"
            raise OsError(
                f"thread {thread.name!r} unlocking {self.name!r} "
                f"owned by {owner}"
            )
        if self._waiters:
            next_thread, grant = self._waiters.popleft()
            self.owner = next_thread  # direct hand-off
            grant.fire(None)
        else:
            self.owner = None


class CondVar:
    """A condition variable with FIFO wakeup."""

    def __init__(self, os: "SimOS", name: str = ""):
        self.os = os
        self.name = name or f"cond{next(_cond_ids)}"
        self._waiters: deque[tuple["SimThread", Condition]] = deque()
        self.notifications = 0

    @property
    def waiter_count(self) -> int:
        """Threads currently blocked in wait()."""
        return len(self._waiters)

    def _wait(self, thread: "SimThread", mutex: Mutex):
        """Channel-B generator: release, wait for notify, re-acquire."""
        if mutex.owner is not thread:
            raise OsError(
                f"cond {self.name!r}: wait() without holding {mutex.name!r}"
            )
        wake = Condition(self.os.sim, name=f"{self.name}.wake")
        entry = (thread, wake)
        self._waiters.append(entry)
        mutex._release(thread)
        while True:
            try:
                yield wake
                break
            except Interrupt as interrupt:
                yield from self.os._deliver_signal(thread, interrupt.payload)
                if wake.fired:
                    break
                # Spurious (signal) wakeup: still queued, wait again.
        yield from mutex._acquire(thread)

    def _notify(self, notify_all: bool = False) -> int:
        """Wake the longest waiter (or all).  Returns threads woken."""
        self.notifications += 1
        woken = 0
        while self._waiters:
            _, wake = self._waiters.popleft()
            wake.fire(None)
            woken += 1
            if not notify_all:
                break
        return woken


_barrier_ids = itertools.count(1)


class Barrier:
    """A cyclic barrier for *parties* threads (OpenMP-style).

    The last arrival releases everyone and the barrier resets for the
    next generation.  Inter-thread communication point: under Quartz,
    accumulated delay is injected before arriving (paper Section 7 lists
    OpenMP primitives as future interposition targets).
    """

    def __init__(self, os: "SimOS", parties: int, name: str = ""):
        if parties < 1:
            raise OsError(f"barrier needs at least one party: {parties}")
        self.os = os
        self.parties = parties
        self.name = name or f"barrier{next(_barrier_ids)}"
        self._waiting: list[tuple["SimThread", Condition]] = []
        self.generation = 0

    @property
    def waiting_count(self) -> int:
        """Threads currently blocked at the barrier."""
        return len(self._waiting)

    def _wait(self, thread: "SimThread"):
        """Channel-B generator: block until all parties arrive."""
        if any(waiter is thread for waiter, _ in self._waiting):
            raise OsError(
                f"thread {thread.name!r} re-entered barrier {self.name!r}"
            )
        if len(self._waiting) + 1 == self.parties:
            # Last arrival: release the generation without blocking.
            waiters, self._waiting = self._waiting, []
            self.generation += 1
            for _, release in waiters:
                release.fire(self.generation)
            return self.generation
        release = Condition(self.os.sim, name=f"{self.name}.release")
        self._waiting.append((thread, release))
        while True:
            try:
                generation = yield release
                return generation
            except Interrupt as interrupt:
                yield from self.os._deliver_signal(thread, interrupt.payload)
                if release.fired:
                    return release.value
                # Spurious wakeup: still registered, wait again.
