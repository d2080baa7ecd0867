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

The OS raises the ``gate``, ``op``, ``signal`` and ``thread_exit``
events of the simulator's :class:`~repro.sim.hooks.Hooks`.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterator, Optional

from repro.errors import DeadlockError, OsError, SimulationError
from repro.hw.core import OpInterrupted
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
                yield from self._run_hook_ops(thread, begin_hook, None)
            generator = thread.body(thread.context, *thread.args)
            result = yield from self._exec_stream(thread, generator)
            end_hook = self.interpose.op_hook("thread_end")
            if end_hook is not None:
                yield from self._run_hook_ops(thread, end_hook, None)
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

    def _exec_stream(self, thread: SimThread, generator: Iterator):
        """Drive a generator of ops, sending each op's result back."""
        result: Any = None
        while True:
            try:
                op = generator.send(result)
            except StopIteration as stop:
                return stop.value
            result = yield from self._run_op_with_signals(thread, op)

    # ------------------------------------------------------------------
    # Op execution with signal delivery
    # ------------------------------------------------------------------
    def _run_op_with_signals(
        self, thread: SimThread, op: Op, interpose: bool = True
    ):
        """Execute one op; handle interrupts and queued signals around it."""
        current: Optional[Op] = op
        result = None
        while current is not None:
            try:
                result = yield from self._dispatch(thread, current, interpose)
                current = None
            except OpInterrupted as interrupted:
                yield from self._deliver_signal(thread, interrupted.payload)
                current = interrupted.remainder
        while thread.pending_signals and not thread.signals_masked:
            signal = thread.pending_signals.popleft()
            yield from self._deliver_signal(thread, signal)
        return result

    def _dispatch(self, thread: SimThread, op: Op, interpose: bool = True):
        """Route one op to the core, the sync layer, or an interposer."""
        hooks = self.hooks
        if interpose:
            gates = hooks.gate
            if gates and type(op) in _BOUNDARY_OPS:
                for gate in gates:
                    yield from gate(thread, op)
            symbol = _INTERPOSED_SYMBOLS.get(type(op))
            if symbol is not None:
                hook = self.interpose.op_hook(symbol)
                if hook is not None:
                    result = yield from self._run_hook_ops(thread, hook, op)
                    return result
        # Past the interposition check every op is about to actually run,
        # so an ``op`` subscriber sees each executed op exactly once:
        # hook-intercepted ops re-enter here with ``interpose=False`` for
        # the ORIGINAL / replacement ops their hooks emit.
        observers = hooks.op
        if observers:
            for observer in observers:
                observer(thread, op)
        if isinstance(op, MutexLock):
            yield from op.mutex._acquire(thread)
            return None
        if isinstance(op, MutexUnlock):
            op.mutex._release(thread)
            return None
        if isinstance(op, CondWait):
            yield from op.cond._wait(thread, op.mutex)
            return None
        if isinstance(op, CondNotify):
            return op.cond._notify(notify_all=op.notify_all)
        if isinstance(op, BarrierWait):
            generation = yield from op.barrier._wait(thread)
            return generation
        if isinstance(op, SpawnThread):
            return self.create_thread(
                op.body, name=op.name, cpu_node=op.core_hint, args=op.args
            )
        if isinstance(op, JoinThread):
            result = yield from self._interruptible_join(thread, op.thread)
            return result
        if isinstance(op, Sleep):
            yield from self._interruptible_sleep(thread, op.duration_ns)
            return None
        result = yield from thread.core.execute(thread, op)
        return result

    def _run_hook_ops(self, thread: SimThread, hook: Callable, op: Optional[Op]):
        """Run an interposer generator in the OS execution channel."""
        generator = hook(self, thread, op)
        sub_result: Any = None
        original_result: Any = None
        while True:
            try:
                item = generator.send(sub_result)
            except StopIteration as stop:
                return stop.value if stop.value is not None else original_result
            if item is ORIGINAL:
                if op is None:
                    sub_result = None
                else:
                    sub_result = yield from self._run_op_with_signals(
                        thread, op, interpose=False
                    )
                original_result = sub_result
            else:
                sub_result = yield from self._run_op_with_signals(
                    thread, item, interpose=False
                )

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
            generator = handler(thread, signal)
            sub_result: Any = None
            while True:
                try:
                    item = generator.send(sub_result)
                except StopIteration:
                    break
                sub_result = yield from self._dispatch(
                    thread, item, interpose=False
                )
        finally:
            thread.signals_masked = False

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run_to_completion(self, max_events: int = 200_000_000) -> None:
        """Run the simulation until every non-daemon thread finished.

        Completion is event-driven: thread exit paths decrement a live
        count and request a simulator stop when it reaches zero, so the
        kernel's fast dispatch path runs without a per-event predicate.
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

#: Op types with OS-level interposition points and their symbol names.
_INTERPOSED_SYMBOLS: dict[type, str] = {
    BarrierWait: "barrier_wait",
    MutexLock: "pthread_mutex_lock",
    MutexUnlock: "pthread_mutex_unlock",
    CondNotify: "pthread_cond_notify",
    SpawnThread: "pthread_create",
    Commit: "pcommit",
}
