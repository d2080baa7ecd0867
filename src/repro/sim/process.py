"""Generator-based processes with interrupt support.

A :class:`Process` wraps a Python generator.  The generator yields
*waitables*:

* :class:`Timeout` — resume after a simulated delay;
* :class:`Condition` — resume when another entity fires the condition
  (the fired value becomes the result of the ``yield``);
* another :class:`Process` — resume when it finishes (its return value
  becomes the result of the ``yield``).

While suspended, a process may be **interrupted**
(:meth:`Process.interrupt`): the pending wait is cancelled and an
:class:`Interrupt` exception carrying a payload is thrown into the
generator at the ``yield`` point.  This is the mechanism the simulated OS
uses to deliver POSIX-style signals — exactly how the Quartz monitor thread
forces application threads to close their epochs (paper Section 3.1,
Figure 5, step 2).
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:
    from repro.sim.kernel import Simulator


class Interrupt(Exception):
    """Thrown into a process generator when it is interrupted."""

    def __init__(self, payload: Any = None):
        super().__init__(payload)
        self.payload = payload


class Timeout:
    """Yieldable: suspend the process for ``delay_ns`` simulated time."""

    __slots__ = ("delay_ns",)

    def __init__(self, delay_ns: float):
        if not delay_ns >= 0:  # also rejects NaN
            raise SimulationError(f"negative timeout: {delay_ns}")
        self.delay_ns = delay_ns

    def __repr__(self) -> str:
        return f"Timeout({self.delay_ns!r})"


class Condition:
    """A one-shot waitable that processes can block on.

    Multiple processes may wait; all are resumed (in wait order) when the
    condition fires.  Waiting on an already-fired condition resumes on the
    next dispatch with the fired value.
    """

    __slots__ = ("sim", "name", "fired", "value", "_waiters")

    def __init__(self, sim: "Simulator", name: str = "condition"):
        self.sim = sim
        self.name = name
        self.fired = False
        self.value: Any = None
        self._waiters: list[Process] = []

    def fire(self, value: Any = None) -> None:
        """Fire the condition, resuming all waiters with *value*."""
        if self.fired:
            raise SimulationError(f"condition {self.name!r} fired twice")
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            process._schedule_resume(value=value)

    def _add_waiter(self, process: "Process") -> None:
        if self.fired:
            process._schedule_resume(value=self.value)
        else:
            self._waiters.append(process)

    def _remove_waiter(self, process: "Process") -> None:
        if process in self._waiters:
            self._waiters.remove(process)

    def __repr__(self) -> str:
        state = f"fired={self.value!r}" if self.fired else f"{len(self._waiters)} waiters"
        return f"Condition({self.name!r}, {state})"


class Process:
    """A running generator-based simulation process."""

    def __init__(self, sim: "Simulator", generator: Iterator, name: str = "process"):
        self.sim = sim
        self.name = name
        self._generator = generator
        self.done = False
        self.result: Any = None
        self.failure: Optional[BaseException] = None
        #: Fires with the generator's return value when the process ends.
        self.done_condition = Condition(sim, name=f"{name}.done")
        self._pending_event = None  # ScheduledEvent for a resume, if any
        self._waiting_on: Optional[Condition] = None
        self._running = False
        # The resume value/exception ride on the process (a process has at
        # most one pending resume), and the kernel callback is bound once —
        # so resuming allocates no per-resume closure.  ``sim.schedule`` is
        # also bound once: the resume path is the hottest process code.
        self._resume_value: Any = None
        self._resume_exc: Optional[BaseException] = None
        self._resume = self._resume_step
        self._sim_schedule = sim.schedule
        # Start the process on the next dispatch at the current time.
        self._schedule_resume(value=None)

    # ------------------------------------------------------------------
    # Resumption machinery
    # ------------------------------------------------------------------
    def _resume_step(self) -> None:
        """The kernel callback: advance the generator one step."""
        value, exc = self._resume_value, self._resume_exc
        self._resume_value = None
        self._resume_exc = None
        self._pending_event = None
        self._waiting_on = None
        self._running = True
        try:
            if exc is not None:
                yielded = self._generator.throw(exc)
            else:
                yielded = self._generator.send(value)
        except StopIteration as stop:
            self._finish(result=stop.value)
            return
        except Interrupt as leaked:
            # An Interrupt escaping the generator means the workload did not
            # install a handler; treat as abnormal termination.
            self._finish(failure=leaked)
            return
        finally:
            self._running = False
        if type(yielded) is Timeout:
            # Inlined hot branch of _wait_on: a Timeout wait is what
            # every Compute/Spin op becomes, so it skips the extra call.
            self._pending_event = self._sim_schedule(
                yielded.delay_ns, self._resume
            )
            return
        self._wait_on(yielded)

    def _schedule_resume(
        self, value: Any = None, exc: Optional[BaseException] = None
    ) -> None:
        if self.done:
            raise SimulationError(f"cannot resume finished process {self.name!r}")
        pending = self._pending_event
        if pending is not None and not pending._cancelled and not pending._fired:
            raise SimulationError(f"process {self.name!r} already has a pending resume")
        self._resume_value = value
        self._resume_exc = exc
        self._pending_event = self._sim_schedule(0.0, self._resume)

    def _wait_on(self, yielded: Any) -> None:
        if isinstance(yielded, Timeout):
            # The resume slots are already clear (_resume_step consumed
            # them before advancing the generator).
            self._pending_event = self._sim_schedule(
                yielded.delay_ns, self._resume
            )
        elif isinstance(yielded, Condition):
            self._waiting_on = yielded
            yielded._add_waiter(self)
        elif isinstance(yielded, Process):
            self._waiting_on = yielded.done_condition
            yielded.done_condition._add_waiter(self)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported value {yielded!r}"
            )

    def _finish(
        self, result: Any = None, failure: Optional[BaseException] = None
    ) -> None:
        self.done = True
        self.result = result
        self.failure = failure
        if failure is not None and not self.done_condition._waiters:
            raise failure
        self.done_condition.fire(result)

    # ------------------------------------------------------------------
    # Interrupts
    # ------------------------------------------------------------------
    def interrupt(self, payload: Any = None) -> bool:
        """Cancel the process's current wait and throw :class:`Interrupt`.

        Returns False (and does nothing) if the process already finished —
        interrupt/exit races are benign, exactly like signalling a thread
        that has just terminated.
        """
        if self.done:
            return False
        if self._running:
            raise SimulationError(
                f"cannot interrupt process {self.name!r} while it is on-stack"
            )
        if self._pending_event is not None and self._pending_event.pending:
            self._pending_event.cancel()
            self._pending_event = None
        if self._waiting_on is not None:
            self._waiting_on._remove_waiter(self)
            self._waiting_on = None
        self._schedule_resume(exc=Interrupt(payload))
        return True

    def close(self) -> None:
        """Finalize a process its run left suspended (a daemon, or a thread
        of a deadlocked run): close the generator, which runs its
        ``finally`` blocks, and drop the pending wait and the resume
        callback, the references that point back at the process."""
        if not self.done:
            self._generator.close()
        self._pending_event = self._waiting_on = self._resume = None

    @property
    def interruptible(self) -> bool:
        """True if the process is suspended and can receive an interrupt."""
        return not self.done and not self._running

    def __repr__(self) -> str:
        state = "done" if self.done else ("running" if self._running else "waiting")
        return f"Process({self.name!r}, {state})"
