"""One ordered subscriber registry per simulator: every observation seam.

Quartz watches an application through a single mechanism, interposition
(Section 3.1).  The reproduction's checking and fault layers watch the
*model* the same way: each :class:`~repro.sim.kernel.Simulator` owns one
:class:`Hooks` (``sim.hooks``), and every layer that holds the simulator
subscribes to a fixed set of named events.  Subscribers of one event are
called in subscription order, so composing any set of them — fault
injection, invariant checking, tier accounting, persistence shadowing,
crash points, tracing, explore-mode gating — is deterministic and needs
no hand-written chaining.

Each event attribute is a tuple of subscribers, empty by default, so an
unobserved hot path pays one truthiness check.  Subscribing and
unsubscribing only rebind that tuple and notify no one: every caller
reads the tuple where it raises the event.  The events, what calls them,
and how the caller combines several subscribers:

* ``dispatch(event)`` — the kernel, before each event fires; notify all.
  The kernel's one dispatch loop reads this tuple once per event, so a
  subscriber armed or disarmed by a callback takes effect from the next
  event, and checked and unchecked runs execute the same loop.
* ``schedule(delay_ns) -> delay_ns`` — :meth:`Simulator.schedule`;
  folded in order (each subscriber sees the previous one's delay).
* ``pmc_read(core_id, event, value) -> value`` — every PMC read; folded
  in order over the reported value.
* ``signal(thread, signal) -> verdict`` — :meth:`SimOS.post_signal`;
  the first non-None verdict (``"drop"`` or a re-post delay) wins.
* ``gate(thread, op)`` — a generator the OS runs before every boundary
  op and once at thread start; run in order.
* ``thread_exit(thread)`` — a thread finished; notify all.
* ``op(thread, op)`` — once per op the OS actually executes; notify all.
* ``monitor_wakeup() -> skip`` — each Quartz monitor tick; the first
  true result skips the scan.
* ``close(info)`` — each epoch close, with its
  :class:`~repro.quartz.epoch.EpochCloseInfo`; notify all.
* ``pm_write(event, thread, op, deadline_ns)`` — each emulated
  ``pflush``/``pcommit``; notify all.
* ``commit(thread, op)`` / ``persist(thread, op)`` — the persistence
  domain drained a commit / persisted a durable flush; notify all.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import SimulationError

#: Every event name, in the order the list above gives them.
EVENTS = (
    "dispatch",
    "schedule",
    "pmc_read",
    "signal",
    "gate",
    "thread_exit",
    "op",
    "monitor_wakeup",
    "close",
    "pm_write",
    "commit",
    "persist",
)


class Hooks:
    """Ordered subscriber tuples, one attribute per event name."""

    __slots__ = EVENTS

    def __init__(self):
        for name in EVENTS:
            setattr(self, name, ())

    def subscribe(self, name: str, fn: Callable) -> None:
        """Append *fn* to the subscribers of event *name*."""
        setattr(self, name, self._subscribers(name) + (fn,))

    def unsubscribe(self, name: str, fn: Callable) -> None:
        """Remove the first subscriber of *name* equal to *fn*.

        Equality, not identity: a bound method is a new object on every
        attribute access, but compares equal to its earlier self.
        """
        subscribers = self._subscribers(name)
        for index, existing in enumerate(subscribers):
            if existing == fn:
                setattr(
                    self, name, subscribers[:index] + subscribers[index + 1:]
                )
                return
        raise SimulationError(f"{fn!r} is not subscribed to {name!r}")

    def _subscribers(self, name: str) -> tuple:
        if name not in EVENTS:
            raise SimulationError(
                f"unknown hook event {name!r} (events: {', '.join(EVENTS)})"
            )
        return getattr(self, name)
