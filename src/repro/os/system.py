"""The simulated OS facade: thread lifecycle, scheduling, signals, ops.

``SimOS`` drives workload bodies (generators of ops) against the hardware
model.  It owns:

* **core allocation** — threads are pinned to logical cores on a chosen
  socket (the numactl ``--cpunodebind`` analogue) and never migrate;
* **NUMA policy** — malloc draws from a configurable node
  (``--membind``), which is how validation Conf_2 physically slows memory;
* **signals** — :meth:`post_signal` interrupts the target thread with
  instruction granularity (the Quartz monitor's epoch-close mechanism);
* **interposition** — op hooks wrap ``pthread_mutex_unlock`` and friends
  exactly where the real library's ``LD_PRELOAD`` shims sit.

Ops run through one flat step: a plain :meth:`SimOS._dispatch` per op,
then at most one ``yield`` in the channel's own frame (a thread body, an
interposer or a signal handler).  Only ops that really wait — a contended
lock, condition and barrier waits, joins, sleeps, gate parks and
interposer streams — get a sub-generator.  The OS raises the ``gate``,
``op``, ``signal`` and ``thread_exit`` events of the simulator's
:class:`~repro.sim.hooks.Hooks`.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterator, Optional

from repro.errors import DeadlockError, OsError, SimulationError
from repro.hw.machine import Machine
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
    Op,
    SpawnThread,
    Sleep,
)
from repro.os.interpose import ORIGINAL, InterpositionTable
from repro.os.thread import Signal, SimThread, ThreadState
from repro.sim import Interrupt, Simulator, Timeout


class SimOS:
    """One OS instance managing one simulated machine."""

    def __init__(
        self,
        machine: Machine,
        default_cpu_node: int = 0,
        default_mem_node: Optional[int] = None,
    ):
        self.machine = machine
        self.sim: Simulator = machine.sim
        self.hooks = machine.sim.hooks
        self.interpose = InterpositionTable()
        self.default_cpu_node = default_cpu_node
        #: None = first-touch local (malloc on the thread's own socket).
        self.default_mem_node = default_mem_node
        self.threads: list[SimThread] = []
        self._tid_counter = itertools.count(1)
        self._free_cores: list[list[int]] = [
            list(
                range(
                    socket * machine.logical_cores_per_socket,
                    (socket + 1) * machine.logical_cores_per_socket,
                )
            )
            for socket in range(machine.arch.sockets)
        ]
        #: Per-signum handler: generator fn ``handler(thread, signal)``
        #: yielding ops, run with further signals masked.
        self.signal_handlers: dict[int, Callable] = {}
        # Live threads per socket drive the cache model's LLC sharing.
        self._live_threads_per_socket = [0] * machine.arch.sockets
        # Non-daemon threads still running: when the count hits zero the
        # simulator is asked to stop, which is how run_to_completion
        # terminates without re-evaluating a predicate per event.  The
        # stop is only requested while run_to_completion is actually
        # driving — direct sim.run(until_ns=...) callers must not be
        # interrupted by a thread happening to finish.
        self._unfinished_nondaemon = 0
        self._watch_completion = False

    # ------------------------------------------------------------------
    # Thread lifecycle
    # ------------------------------------------------------------------
    def create_thread(
        self,
        body: Callable[..., Iterator],
        name: str = "",
        cpu_node: Optional[int] = None,
        mem_node: Optional[int] = None,
        args: tuple = (),
        daemon: bool = False,
    ) -> SimThread:
        """Create and start a thread pinned to a core on *cpu_node*."""
        socket = self.default_cpu_node if cpu_node is None else cpu_node
        if not 0 <= socket < self.machine.arch.sockets:
            raise OsError(f"no such socket: {socket}")
        if not self._free_cores[socket]:
            raise OsError(
                f"socket {socket} has no free logical cores "
                f"(oversubscription is not modelled)"
            )
        core_id = self._free_cores[socket].pop(0)
        core = self.machine.core(core_id)
        if mem_node is None:
            mem_node = (
                self.default_mem_node if self.default_mem_node is not None else socket
            )
        tid = next(self._tid_counter)
        thread = SimThread(
            self,
            tid=tid,
            name=name or f"thread{tid}",
            body=body,
            core=core,
            mem_node=mem_node,
            args=args,
            daemon=daemon,
        )
        core.current_thread = thread
        self.threads.append(thread)
        if not daemon:
            self._unfinished_nondaemon += 1
            # A spawn in the same callback that finished the last thread
            # revives the run (mirrors the old between-events predicate).
            if self._watch_completion:
                self.sim.cancel_stop()
        self._live_threads_per_socket[socket] += 1
        self.machine.set_llc_sharers(
            socket, max(1, self._live_threads_per_socket[socket])
        )
        thread.process = self.sim.spawn(self._thread_main(thread), name=thread.name)
        return thread

    def _thread_main(self, thread: SimThread):
        thread.state = ThreadState.RUNNING
        try:
            # ``gate`` subscribers run once at thread start (op=None) and
            # before every boundary op: the explore scheduler parks here.
            for gate in self.hooks.gate:
                yield from gate(thread, None)
            begin_hook = self.interpose.op_hook("thread_begin")
            if begin_hook is not None:
                yield from self._exec_stream(thread, begin_hook(self, thread, None), False)
            generator = thread.body(thread.context, *thread.args)
            result = yield from self._exec_stream(thread, generator)
            end_hook = self.interpose.op_hook("thread_end")
            if end_hook is not None:
                yield from self._exec_stream(thread, end_hook(self, thread, None), False)
            thread.result = result
            return result
        finally:
            thread.state = ThreadState.FINISHED
            thread.core.current_thread = None
            self._free_cores[thread.socket].append(thread.core.core_id)
            self._free_cores[thread.socket].sort()
            if not thread.daemon:
                self._unfinished_nondaemon -= 1
                if self._unfinished_nondaemon == 0 and self._watch_completion:
                    self.sim.request_stop()
            self._live_threads_per_socket[thread.socket] -= 1
            self.machine.set_llc_sharers(
                thread.socket, max(1, self._live_threads_per_socket[thread.socket])
            )
            for subscriber in self.hooks.thread_exit:
                subscriber(thread)

    # ------------------------------------------------------------------
    # Op channels: the flat step protocol
    # ------------------------------------------------------------------
    def _exec_stream(
        self, thread: SimThread, generator: Iterator, interpose=True, intercepted=None
    ):
        """Drive one op channel: a thread body (``interpose``), an
        interposer's stream (its :data:`ORIGINAL` runs ``intercepted``) or
        a signal handler.  Each op takes one step: a plain :meth:`_dispatch`,
        then at most one ``yield wait`` here for a core op, or a ``yield
        from`` into the sub-generator of an op that really waits.  A timed
        wait that no other event can precede skips the yield: the kernel
        moves the clock in place (:meth:`Simulator.advance_to`).
        """
        send = generator.send
        dispatch = self._dispatch
        finish = thread.core.finish
        hooks = self.hooks
        sim = self.sim
        advance = sim.advance_to
        result = original = None
        while True:
            try:
                op = send(result)
            except StopIteration as stop:
                return original if stop.value is None else stop.value
            is_original = op is ORIGINAL and not interpose
            if is_original:
                if intercepted is None:
                    result = original = None
                    continue
                op = intercepted
            elif interpose and hooks.gate and type(op) in _BOUNDARY_OPS:
                for gate in hooks.gate:
                    yield from gate(thread, op)
            wait, token = dispatch(thread, op, interpose)
            if wait is None:
                result = token
            elif wait is _FRAME:
                result = yield from token
            elif (
                not hooks.dispatch
                and type(wait) is Timeout
                and advance(sim.now + wait.delay_ns, 1)
            ):
                # No event can come before the wait ends: its resume is
                # finished in place (a checked run stops at the first test).
                result = finish(token)
            else:
                try:
                    yield wait
                except Interrupt as interrupt:
                    result = yield from self._resume(thread, token, interrupt, interpose)
                else:
                    result = finish(token)
            while thread.pending_signals and not thread.signals_masked:
                yield from self._deliver_signal(thread, thread.pending_signals.popleft())
            if is_original:
                original = result

    def _resume(self, thread: SimThread, token, interrupt: Interrupt, interpose):
        """Deliver the signal that cut a core op short, then run the rest."""
        interrupted = thread.core.abort(token, interrupt)
        yield from self._deliver_signal(thread, interrupted.payload)
        if interrupted.remainder is None:
            return None
        return (yield from self._exec_stream(thread, _single(interrupted.remainder), interpose))

    def _dispatch(self, thread: SimThread, op: Op, interpose: bool = True):
        """Route one op to an interposer, the sync layer, or the core.

        A plain call, entered once per routed op, returning ``(wait,
        token)`` as :meth:`Core.execute` does; a ``wait`` of ``_FRAME``
        makes ``token`` the sub-generator the channel runs with ``yield from``.
        """
        kind = type(op)
        if interpose:
            symbol = _INTERPOSED_SYMBOLS.get(kind)
            if symbol is not None:
                hook = self.interpose.op_hook(symbol)
                if hook is not None:
                    return _FRAME, self._exec_stream(thread, hook(self, thread, op), False, op)
        # Past the interposition check every op is about to actually run,
        # so an ``op`` subscriber sees each executed op exactly once:
        # hook-intercepted ops re-enter here with ``interpose=False`` for
        # the ORIGINAL / replacement ops their hooks emit.
        observers = self.hooks.op
        if observers:
            for observer in observers:
                observer(thread, op)
        if kind not in _SYNC_OPS:
            return thread.core.execute(thread, op)
        if kind is MutexLock:
            if op.mutex._try_acquire(thread):
                return None, None
            return _FRAME, op.mutex._acquire_contended(thread)
        if kind is MutexUnlock:
            op.mutex._release(thread)
            return None, None
        if kind is CondWait:
            return _FRAME, op.cond._wait(thread, op.mutex)
        if kind is CondNotify:
            return None, op.cond._notify(notify_all=op.notify_all)
        if kind is BarrierWait:
            return _FRAME, op.barrier._wait(thread)
        if kind is SpawnThread:
            return None, self.create_thread(
                op.body, name=op.name, cpu_node=op.core_hint, args=op.args
            )
        if kind is JoinThread:
            return _FRAME, self._interruptible_join(thread, op.thread)
        return _FRAME, self._interruptible_sleep(thread, op.duration_ns)

    def run_op_hook(self, thread: SimThread, hook: Callable, op: Op):
        """Run an interposer in the *workload* channel (yields raw ops).

        Used by :class:`~repro.os.thread.ThreadContext` helpers like
        ``pflush`` whose hooks expand inside the body's own op stream.
        """
        generator = hook(self, thread, op)
        sub_result: Any = None
        original_result: Any = None
        while True:
            try:
                item = generator.send(sub_result)
            except StopIteration as stop:
                return stop.value if stop.value is not None else original_result
            if item is ORIGINAL:
                sub_result = yield op
                original_result = sub_result
            else:
                sub_result = yield item

    # ------------------------------------------------------------------
    # Waiting helpers that survive signals
    # ------------------------------------------------------------------
    def _interruptible_join(self, thread: SimThread, target: SimThread):
        while True:
            try:
                yield target.process.done_condition
                return target.result
            except Interrupt as interrupt:
                yield from self._deliver_signal(thread, interrupt.payload)

    def _interruptible_sleep(self, thread: SimThread, duration_ns: float):
        deadline = self.sim.now + duration_ns
        while True:
            remaining = deadline - self.sim.now
            if remaining <= 0:
                return
            try:
                yield Timeout(remaining)
                return
            except Interrupt as interrupt:
                yield from self._deliver_signal(thread, interrupt.payload)

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def post_signal(
        self, thread: SimThread, signal: Signal, *, faulted: bool = False
    ) -> bool:
        """Deliver (or queue) a signal to a thread.

        Returns False if the thread already finished — the monitor/exit
        race is benign, as on a real system.  The first ``signal``
        subscriber returning a verdict other than None may drop the
        signal (``"drop"``) or defer delivery by a simulated delay
        (``faulted=True`` marks the deferred re-post, which is not
        intercepted again).
        """
        if thread.finished:
            return False
        deciders = self.hooks.signal
        if deciders and not faulted:
            verdict = None
            for decide in deciders:
                verdict = decide(thread, signal)
                if verdict is not None:
                    break
            if verdict == "drop":
                return True
            if verdict:
                self.sim.schedule(
                    float(verdict),
                    lambda: self.post_signal(thread, signal, faulted=True),
                )
                return True
        if thread.signals_masked or not thread.process.interruptible:
            # POSIX semantics: a standard signal already pending is not
            # queued again — repeats coalesce into one delivery.
            if all(s.signum != signal.signum for s in thread.pending_signals):
                thread.pending_signals.append(signal)
            return True
        thread.process.interrupt(signal)
        return True

    def _deliver_signal(self, thread: SimThread, signal: Signal):
        """Run the registered handler with further signals masked."""
        if not isinstance(signal, Signal):
            raise OsError(f"unexpected interrupt payload: {signal!r}")
        handler = self.signal_handlers.get(signal.signum)
        if handler is None:
            return  # unhandled signals are ignored (SIG_IGN model)
        thread.signals_masked = True
        try:
            yield from self._exec_stream(thread, handler(thread, signal), False)
        finally:
            thread.signals_masked = False

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def close(self) -> None:
        """End the run: drop interposers and signal handlers, finalize the
        threads it left suspended and let go of every thread.

        Threads, their contexts and bodies (often bound to an object that
        keeps the thread, like the Quartz monitor) and the bound
        interposers and handlers all refer back to this OS; dropping them
        lets reference counting free the run once nothing outside holds it.
        """
        self.interpose.unregister_all()
        self.signal_handlers.clear()
        threads, self.threads = self.threads, []
        for thread in threads:
            thread.process.close()
            thread.context = thread.body = None

    def run_to_completion(self, max_events: int = 200_000_000) -> None:
        """Run the simulation until every non-daemon thread finished.

        Completion is event-driven: thread exit paths decrement a live
        count and request a simulator stop when it reaches zero, so the
        kernel's dispatch loop runs without a per-event predicate.
        Dispatch order and counts are identical to the old
        predicate-polling loop — the stop lands before the event that
        would have followed the final thread exit.
        """
        remaining = max_events
        self._watch_completion = True
        try:
            while True:
                if all(t.finished for t in self.threads if not t.daemon):
                    return
                before = self.sim.events_dispatched
                reason = self.sim.run(max_events=remaining)
                remaining -= self.sim.events_dispatched - before
                if reason == "stopped":
                    continue  # recheck: a stop may race a same-tick spawn
                if reason == "drained":
                    stuck = [t.name for t in self.threads if not t.finished]
                    raise DeadlockError(
                        f"no runnable work but threads blocked: {stuck}"
                    )
                if reason == "max-events":
                    raise SimulationError(
                        "event budget exhausted before condition held"
                    )
        finally:
            self._watch_completion = False


#: Op types ``gate`` subscribers intercept: every sync and
#: persist operation — the points where thread interleaving order can
#: change observable state.  Compute/memory ops between boundaries are
#: thread-local, so gating only here loses no distinct behaviours.
_BOUNDARY_OPS: frozenset = frozenset(
    {
        MutexLock,
        MutexUnlock,
        CondWait,
        CondNotify,
        BarrierWait,
        Flush,
        FlushOpt,
        Commit,
        SpawnThread,
        JoinThread,
    }
)

#: Op types the OS runs itself; ``_dispatch`` sends every other op to the core.
_SYNC_OPS: frozenset = frozenset(
    {MutexLock, MutexUnlock, CondWait, CondNotify, BarrierWait, SpawnThread, JoinThread, Sleep}
)

#: ``_dispatch``'s wait for an op that runs in its own sub-generator.
_FRAME = object()


def _single(op: Op):
    """A one-op stream (the remainder of an interrupted op)."""
    return (yield op)


#: Op types with OS-level interposition points and their symbol names.
_INTERPOSED_SYMBOLS: dict[type, str] = {
    BarrierWait: "barrier_wait",
    MutexLock: "pthread_mutex_lock",
    MutexUnlock: "pthread_mutex_unlock",
    CondNotify: "pthread_cond_notify",
    SpawnThread: "pthread_create",
    Commit: "pcommit",
}
