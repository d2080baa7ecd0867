"""The discrete-event simulator loop.

:meth:`Simulator.run` is the kernel's one event-dispatch body, for
observed and unobserved runs alike.  Per event it pops the heap entry
first, reads the ``dispatch`` subscribers of :attr:`Simulator.hooks`
(:mod:`repro.sim.hooks`) once and calls each of them, then marks the
event fired and runs its callback.  With no subscriber that costs one
truthiness check, so invariant-checked runs and timed runs execute the
same code.  A subscriber armed or disarmed by a callback takes effect
from the next event; nothing has to re-select a loop.

The loop keeps the heap, ``heappop`` and the event free list in locals
and reconciles ``events_dispatched`` and the pending-event counter once,
when it exits.  Fired events with no outside references are recycled
through a bounded free list, so steady-state dispatch allocates nothing;
a subscriber that keeps an event keeps it out of the pool.

Cancellation is lazy (O(1)), but not unbounded: the simulator counts
cancelled entries still in the heap and compacts in place once they
exceed half of a non-trivial heap, preserving FIFO tie-break order
(the (time, seq) total order survives re-heapification).
"""
from __future__ import annotations

from heapq import heapify as _heapify, heappop as _heappop, heappush as _heappush
from sys import getrefcount, maxsize
from typing import Callable, Iterator, Optional

from repro.errors import SimulationError
from repro.sim.events import ScheduledEvent
from repro.sim.hooks import Hooks
from repro.sim.random import RandomStreams

_INF = float("inf")

#: Fired/cancelled events kept for reuse; beyond this the GC takes over.
_POOL_MAX = 4096
#: Compact only heaps larger than this (small heaps drain fast anyway).
_COMPACT_MIN_HEAP = 1024


class Simulator:
    """A single-clock discrete-event simulator.

    Time is a float number of nanoseconds starting at zero.  Events
    scheduled at equal times fire in scheduling order (FIFO), which keeps
    runs deterministic.

    The simulator owns a :class:`~repro.sim.random.RandomStreams` factory so
    every model component can draw reproducible randomness without sharing a
    stream.
    """

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        #: Heap entries are ``(time, seq, event)`` tuples: heapq then
        #: compares floats and ints in C, never reaching a Python-level
        #: ``__lt__`` — the single largest dispatch cost in the
        #: event-object heap layout this replaced.  ``seq`` is unique,
        #: so the event object itself is never compared.
        self._heap: list[tuple[float, int, ScheduledEvent]] = []
        self._seq = 0
        self._events_dispatched = 0
        #: Live count of still-pending events (maintained on schedule,
        #: cancel, and fire — never recomputed by scanning the heap).
        self._pending = 0
        #: Cancelled entries still sitting in the heap.
        self._cancelled_in_heap = 0
        #: Times the heap was compacted (introspection/bench counter).
        self.compactions = 0
        #: Free list of fired events with no outside references.
        self._free: list[ScheduledEvent] = []
        #: Set by :meth:`request_stop`; consumed by :meth:`run`.
        self._stop = False
        self.random = RandomStreams(seed=seed)
        #: Every observation seam of the run (see :mod:`repro.sim.hooks`).
        self.hooks = Hooks()

    # ------------------------------------------------------------------
    # Stop requests
    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        """Ask the running dispatch loop to return ``"stopped"`` before
        the next event fires.  Sticky until :meth:`run` consumes it."""
        self._stop = True

    def cancel_stop(self) -> None:
        """Withdraw a pending :meth:`request_stop` (e.g. new work arrived
        in the same callback that requested the stop)."""
        self._stop = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay_ns: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule *callback* to run ``delay_ns`` from now.

        ``schedule`` subscribers (timer faults) fold over the delay first.
        """
        perturbers = self.hooks.schedule
        if perturbers:
            for perturb in perturbers:
                delay_ns = perturb(delay_ns)
        if not delay_ns >= 0:  # also rejects NaN, which would fire out of order
            raise SimulationError(f"cannot schedule in the past (delay={delay_ns})")
        seq = self._seq
        self._seq = seq + 1
        time_ns = self.now + delay_ns
        free = self._free
        if free:
            event = free.pop()
            event.time = time_ns
            event.seq = seq
            event.callback = callback
            event._cancelled = False
            event._fired = False
        else:
            event = ScheduledEvent(time_ns, seq, callback, self)
        _heappush(self._heap, (time_ns, seq, event))
        self._pending += 1
        return event

    def schedule_at(self, time_ns: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule *callback* at absolute simulated time ``time_ns``."""
        if not time_ns >= self.now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at t={time_ns} before now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            event = free.pop()
            event.time = time_ns
            event.seq = seq
            event.callback = callback
            event._cancelled = False
            event._fired = False
        else:
            event = ScheduledEvent(time_ns, seq, callback, self)
        _heappush(self._heap, (time_ns, seq, event))
        self._pending += 1
        return event

    # ------------------------------------------------------------------
    # Cancellation hygiene
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """Called by :meth:`ScheduledEvent.cancel` exactly once per event."""
        self._pending -= 1
        cancelled = self._cancelled_in_heap + 1
        self._cancelled_in_heap = cancelled
        heap = self._heap
        if len(heap) > _COMPACT_MIN_HEAP and cancelled * 2 > len(heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place.

        In-place (``heap[:] = ...``) so a running dispatch loop's local
        binding stays valid.  FIFO tie-break order is preserved: events
        are totally ordered by (time, seq), so re-heapifying cannot
        reorder equal-time dispatches.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2]._cancelled]
        _heapify(heap)
        self._cancelled_in_heap = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        until_ns: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> str:
        """Run until the event heap drains, *until_ns* passes, *max_events*
        more events have been dispatched, or a stop is requested.

        Each ``dispatch`` subscriber sees an event after the clock has
        moved to it and before it is marked fired and its callback runs.

        Returns the stop reason:

        * ``"drained"`` — no pending events remain.  With ``until_ns``
          the clock still advances to the horizon.
        * ``"until"`` — the next pending event lies beyond ``until_ns``;
          the clock is advanced to exactly ``until_ns`` (later events
          stay queued).
        * ``"max-events"`` — the budget ran out with events still
          pending inside the horizon.  The clock advances to the earlier
          of the next pending event and ``until_ns``, so the two bounds
          compose: time never passes an undispatched event and never
          passes the horizon.
        * ``"stopped"`` — :meth:`request_stop` was called (usually from
          a callback); no further event was dispatched after it.
        """
        heap = self._heap
        pop = _heappop
        push = _heappush
        free = self._free
        hooks = self.hooks
        refcount = getrefcount
        until = _INF if until_ns is None else until_ns
        budget = maxsize if max_events is None else max_events
        dispatched = 0
        try:
            while heap:
                # Pop eagerly: the common iteration dispatches, so one
                # heap operation replaces peek-then-pop.  The rare exits
                # (stop, horizon, budget) push the entry straight back —
                # it was the minimum, so the heap order is unchanged.
                # Unpacking (not binding the tuple) drops the entry's
                # last reference, keeping the refcount gate meaningful.
                time_ns, seq, event = pop(heap)
                if event._cancelled:
                    self._cancelled_in_heap -= 1
                    if refcount(event) == 2 and len(free) < _POOL_MAX:
                        event.callback = None
                        free.append(event)
                    continue
                if self._stop:
                    push(heap, (time_ns, seq, event))
                    self._stop = False
                    return "stopped"
                if time_ns > until:
                    push(heap, (time_ns, seq, event))
                    if until > self.now:
                        self.now = until
                    return "until"
                if dispatched >= budget:
                    push(heap, (time_ns, seq, event))
                    if until_ns is not None:
                        self.now = max(self.now, min(time_ns, until))
                    return "max-events"
                self.now = time_ns
                dispatched += 1
                observers = hooks.dispatch
                if observers:
                    for observer in observers:
                        observer(event)
                event._fired = True
                event.callback()
                if refcount(event) == 2 and len(free) < _POOL_MAX:
                    event.callback = None
                    free.append(event)
        finally:
            self._events_dispatched += dispatched
            self._pending -= dispatched
        if self._stop:
            self._stop = False
            return "stopped"
        if until_ns is not None and until_ns > self.now:
            self.now = until_ns
        return "drained"

    def run_until_condition(
        self,
        predicate: Callable[[], bool],
        max_events: int = 50_000_000,
    ) -> None:
        """Run until *predicate* becomes true.

        Drives :meth:`run` one event at a time and re-evaluates the
        predicate between events, so this is the slow, fully-general
        form — prefer :meth:`request_stop` from a callback when the
        completion condition has a natural owner (see
        ``SimOS.run_to_completion``).

        Raises :class:`SimulationError` if the heap drains (or the event
        budget is exhausted) first — usually a deadlock in the modelled
        system.
        """
        remaining = max_events
        while not predicate():
            if remaining <= 0:
                raise SimulationError("event budget exhausted before condition held")
            before = self._events_dispatched
            # "drained" also follows the dispatch of the last queued
            # event, so a deadlock is "nothing dispatched", not a reason.
            if self.run(max_events=1) != "stopped" and self._events_dispatched == before:
                raise SimulationError(
                    "event heap drained before condition held (deadlock?)"
                )
            remaining -= 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_event_count(self) -> int:
        """Number of still-pending (non-cancelled) events.

        Maintained as a live counter on schedule and cancel — O(1),
        never a heap scan.  The fired share is reconciled when
        :meth:`run` exits, on every run, observed or not, so the count is
        exact between runs; inside a callback or a ``dispatch``
        subscriber it still includes the events this run has fired.
        """
        return self._pending

    @property
    def cancelled_event_count(self) -> int:
        """Cancelled entries still occupying heap slots (pre-compaction)."""
        return self._cancelled_in_heap

    @property
    def events_dispatched(self) -> int:
        """Total events fired since construction (reconciled when
        :meth:`run` exits, like :attr:`pending_event_count`)."""
        return self._events_dispatched

    def close(self) -> None:
        """End the run: drop every queued event, the event pool and every
        hook subscriber.

        Queued and pooled events point back at the simulator, and
        subscribers are bound to objects that hold it, so these are the
        references that would keep a finished run alive as a cycle.  The
        clock, the counters and the random streams stay readable.
        """
        self._heap.clear()
        self._free.clear()
        self._pending = 0
        self._cancelled_in_heap = 0
        self.hooks.clear()

    def spawn(self, generator: Iterator, name: str = "process"):
        """Create and start a :class:`~repro.sim.process.Process`.

        Imported lazily to avoid a circular import between kernel and
        process modules.
        """
        from repro.sim.process import Process

        return Process(self, generator, name=name)
