"""The per-op generator chain the flat step protocol replaced, kept as an oracle.

Before the step protocol every op went ``_exec_stream`` →
``_run_op_with_signals`` → ``_dispatch`` → ``Core.execute`` →
``_execute_*``, each a generator frame, and a core op raised
:class:`OpInterrupted` out of the chain when a signal landed.  This module
keeps that chain verbatim (as a :class:`SimOS` subclass plus the core's
old per-kind generators) so tests can run the same workload through both
drivers and require identical event sequences, results, remainders and
hook order.

The chain has no ``Interrupt`` handler for ``FlushOpt`` or ``Commit``, so
workloads compared against it must not signal a thread inside either.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import HardwareError, OsError
from repro.hw.core import OpInterrupted, _FLUSHOPT_ISSUE_CYCLES
from repro.ops import (
    BarrierWait,
    Commit,
    Compute,
    CondNotify,
    CondWait,
    Flush,
    FlushOpt,
    JoinThread,
    MemBatch,
    MutexLock,
    MutexUnlock,
    Op,
    OpResult,
    SpawnThread,
    Sleep,
    Spin,
)
from repro.os.interpose import ORIGINAL
from repro.os.system import _BOUNDARY_OPS, _INTERPOSED_SYMBOLS, SimOS
from repro.os.thread import Signal, SimThread, ThreadState
from repro.sim import Interrupt, Timeout
from repro.units import CACHE_LINE_BYTES


# ----------------------------------------------------------------------
# The core's per-kind generators
# ----------------------------------------------------------------------
def execute(core, thread, op: Op):
    kind = type(op)
    if kind is MemBatch:
        return (yield from _execute_membatch(core, op))
    if kind is Compute:
        return (yield from _execute_compute(core, op))
    if kind is Spin:
        return (yield from _execute_spin(core, op))
    if kind is Flush:
        return (yield from _execute_flush(core, op))
    if kind is FlushOpt:
        return (yield from _execute_flushopt(core, thread, op))
    if kind is Commit:
        return (yield from _execute_commit(core, thread, op))
    raise HardwareError(f"core cannot execute op {op!r}")


def _execute_compute(core, op: Compute):
    duration = op.cycles / core.frequency_ghz()
    start = core.machine.sim.now
    try:
        yield Timeout(duration)
    except Interrupt as intr:
        elapsed = core.machine.sim.now - start
        core.stats.busy_ns += elapsed
        core.stats.interrupts_taken += 1
        fraction = elapsed / duration if duration > 0 else 1.0
        remaining_cycles = op.cycles * max(0.0, 1.0 - fraction)
        remainder = Compute(remaining_cycles, op.label) if remaining_cycles > 0.5 else None
        raise OpInterrupted(remainder, intr.payload, elapsed) from None
    core.stats.busy_ns += duration
    return OpResult(op, duration)


def _execute_spin(core, op: Spin):
    start = core.machine.sim.now
    try:
        yield Timeout(op.duration_ns)
    except Interrupt as intr:
        elapsed = core.machine.sim.now - start
        core.stats.spin_ns += elapsed
        core.stats.interrupts_taken += 1
        remaining = op.duration_ns - elapsed
        remainder = Spin(remaining, op.label) if remaining > 0 else None
        raise OpInterrupted(remainder, intr.payload, elapsed) from None
    core.stats.spin_ns += op.duration_ns
    return OpResult(op, op.duration_ns)


def _execute_membatch(core, batch: MemBatch):
    if batch.accesses == 0:
        return OpResult(batch, 0.0)
    profile = core.machine.cache_model(core.socket).resolve(batch)
    freq = core.frequency_ghz()
    compute_like, _mem_wait, duration_min = core._membatch_timing(batch, profile, freq)
    sim = core.machine.sim
    start = sim.now
    if profile.dram_bytes > 0:
        controller = core.machine.controller(batch.region.node)
        rate_cap = profile.dram_bytes / max(duration_min, 1e-9)
        flow = controller.submit(
            profile.dram_bytes,
            rate_cap,
            label=batch.label or "membatch",
            kind="write" if batch.is_store else "read",
        )
        try:
            yield flow.done
        except Interrupt as intr:
            controller.withdraw(flow)
            fraction = flow.fraction_done
            core._account_membatch(
                batch, profile, fraction, sim.now - start, compute_like, freq
            )
            raise OpInterrupted(
                batch.split_remainder(fraction), intr.payload, sim.now - start
            ) from None
    else:
        try:
            yield Timeout(duration_min)
        except Interrupt as intr:
            elapsed = sim.now - start
            fraction = elapsed / duration_min if duration_min > 0 else 1.0
            core._account_membatch(batch, profile, fraction, elapsed, compute_like, freq)
            raise OpInterrupted(
                batch.split_remainder(fraction), intr.payload, elapsed
            ) from None
    elapsed = sim.now - start
    core._account_membatch(batch, profile, 1.0, elapsed, compute_like, freq)
    return OpResult(batch, elapsed)


def _execute_flush(core, op: Flush):
    latency = core._flush_latency_ns(op.region.node)
    duration = latency * op.lines
    controller = core.machine.controller(op.region.node)
    nbytes = op.lines * CACHE_LINE_BYTES
    controller.submit(nbytes, nbytes / max(duration, 1e-9), label="clflush", kind="write")
    start = core.machine.sim.now
    try:
        yield Timeout(duration)
    except Interrupt as intr:
        elapsed = core.machine.sim.now - start
        fraction = elapsed / duration if duration > 0 else 1.0
        done_lines = int(op.lines * fraction)
        remaining = op.lines - done_lines
        remainder = (
            Flush(
                op.region,
                remaining,
                op.label,
                line=None if op.line is None else op.line + done_lines,
            )
            if remaining
            else None
        )
        core.stats.busy_ns += elapsed
        core.stats.interrupts_taken += 1
        raise OpInterrupted(remainder, intr.payload, elapsed) from None
    core.stats.busy_ns += duration
    return OpResult(op, duration)


def _execute_flushopt(core, thread, op: FlushOpt):
    latency = core._flush_latency_ns(op.region.node)
    issue_ns = _FLUSHOPT_ISSUE_CYCLES * op.lines / core.frequency_ghz()
    controller = core.machine.controller(op.region.node)
    nbytes = op.lines * CACHE_LINE_BYTES
    controller.submit(nbytes, nbytes / max(latency, 1e-9), label="clflushopt", kind="write")
    completion = core.machine.sim.now + issue_ns + latency * 1.0
    thread.outstanding_flushes.append(completion)
    yield Timeout(issue_ns)
    core.stats.busy_ns += issue_ns
    return OpResult(op, issue_ns)


def _execute_commit(core, thread, op: Commit):
    now = core.machine.sim.now
    deadline = max(thread.outstanding_flushes, default=now)
    thread.outstanding_flushes.clear()
    wait = max(0.0, deadline - now)
    if wait > 0:
        yield Timeout(wait)
    core.stats.busy_ns += wait
    core.stats.stall_ns += wait
    return OpResult(op, wait)


# ----------------------------------------------------------------------
# The OS's generator chain
# ----------------------------------------------------------------------
class GeneratorChainOS(SimOS):
    """:class:`SimOS` driving every op through the old generator chain."""

    def _thread_main(self, thread: SimThread):
        thread.state = ThreadState.RUNNING
        try:
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

    def _exec_stream(self, thread, generator):
        result: Any = None
        while True:
            try:
                op = generator.send(result)
            except StopIteration as stop:
                return stop.value
            result = yield from self._run_op_with_signals(thread, op)

    def _run_op_with_signals(self, thread, op, interpose: bool = True):
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

    def _dispatch(self, thread, op, interpose: bool = True):
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
        result = yield from execute(thread.core, thread, op)
        return result

    def _run_hook_ops(self, thread, hook, op):
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

    def _deliver_signal(self, thread, signal):
        if not isinstance(signal, Signal):
            raise OsError(f"unexpected interrupt payload: {signal!r}")
        handler = self.signal_handlers.get(signal.signum)
        if handler is None:
            return
        thread.signals_masked = True
        try:
            generator = handler(thread, signal)
            sub_result: Any = None
            while True:
                try:
                    item = generator.send(sub_result)
                except StopIteration:
                    break
                sub_result = yield from self._dispatch(thread, item, interpose=False)
        finally:
            thread.signals_masked = False
