"""Cancellable scheduled events for the discrete-event kernel."""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

if TYPE_CHECKING:
    from repro.sim.kernel import Simulator


class ScheduledEvent:
    """A callback scheduled at a simulated time, cancellable before firing.

    Cancellation is lazy: the heap entry stays in place and is discarded
    when popped.  This makes :meth:`cancel` O(1), which matters because the
    core model cancels and reschedules completion events whenever a signal
    interrupts an in-flight memory activity.  The owning simulator keeps a
    live count of cancelled entries and compacts the heap when they
    dominate, so cancel-heavy runs cannot grow the heap without bound.

    Instances are pooled by :meth:`Simulator.run`, observed or not: once
    fired (or popped cancelled) with no outside references left, an event
    is reset and reused for a later :meth:`Simulator.schedule` call.
    Holding a reference to an event — a caller's handle, or a ``dispatch``
    subscriber that keeps it — keeps it out of the pool, so a kept event
    always describes the event that was scheduled.
    """

    __slots__ = ("time", "seq", "callback", "sim", "_cancelled", "_fired")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.sim = sim
        self._cancelled = False
        self._fired = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; no-op if already fired."""
        if self._cancelled or self._fired:
            return
        self._cancelled = True
        sim = self.sim
        if sim is not None:
            sim._note_cancel()

    @property
    def cancelled(self) -> bool:
        """True if :meth:`cancel` was called before the event fired."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """True once the callback has been invoked."""
        return self._fired

    @property
    def pending(self) -> bool:
        """True while the event is still scheduled to fire."""
        return not self._cancelled and not self._fired

    def __repr__(self) -> str:
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        return f"ScheduledEvent(t={self.time!r}, seq={self.seq}, {state})"
