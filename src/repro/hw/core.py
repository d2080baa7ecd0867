"""The core execution engine.

A :class:`Core` turns instruction-level ops (:mod:`repro.ops`) into
simulated time, performance-counter increments, and memory-controller
traffic.  Execution is one plain step per op, driven by the OS layer:
:meth:`Core.execute` starts the op and returns the single wait it needs
(none, a :class:`~repro.sim.Timeout`, or a memory flow's ``done``
condition) with a token; :meth:`Core.finish` completes it after the wait.
In-flight work is *divisible*, so an :class:`~repro.sim.Interrupt` (a POSIX
signal in the modelled world) lands with instruction granularity:
:meth:`Core.abort` withdraws the memory flow, accounts the completed
fraction, and returns an :class:`OpInterrupted` carrying the remainder op
for later resumption.

Timing model for a memory batch (see DESIGN.md):

* L1/L2 hits cost their access latency, divided by a hit-ILP factor
  (serial for pointer chases, pipelined otherwise);
* LLC hits and DRAM misses on the critical path are the per-level counts
  divided by the effective MLP (paper Section 2.2, Figure 2);
* an ``overlap`` factor hides memory wait under compute — the effect the
  paper flags in Section 6 as a residual model risk;
* DRAM bytes move through the (possibly thermally throttled) memory
  controller as a rate-capped flow, so bandwidth throttling stretches the
  batch and grows true stall cycles exactly as on metal.

The stall-cycle PMC (``CYCLE_ACTIVITY:STALLS_L2_PENDING``) accrues time the
core spends waiting on loads past L2 — including LLC hits, which is why
Quartz's Eq. (3) must apportion it between hits and misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.errors import HardwareError
from repro.ops import (
    Commit,
    Compute,
    Flush,
    FlushOpt,
    MemBatch,
    Op,
    OpResult,
    PatternKind,
    PersistTail,
    Spin,
)
from repro.sim import Interrupt, Timeout
from repro.units import CACHE_LINE_BYTES

if TYPE_CHECKING:
    from repro.hw.cache import BatchProfile
    from repro.hw.machine import Machine
    from repro.os.thread import SimThread


class OpInterrupted(Exception):
    """An op was preempted by a signal.

    ``remainder`` is the op still to execute (None if effectively done);
    ``payload`` is the signal payload from the interrupt.
    """

    def __init__(self, remainder: Optional[Op], payload, elapsed_ns: float):
        super().__init__(f"op interrupted after {elapsed_ns} ns")
        self.remainder = remainder
        self.payload = payload
        self.elapsed_ns = elapsed_ns


@dataclass
class CoreStats:
    """Aggregate per-core accounting (test/validation hook)."""

    busy_ns: float = 0.0
    stall_ns: float = 0.0
    spin_ns: float = 0.0
    mem_accesses: float = 0.0
    dram_loads: float = 0.0
    interrupts_taken: int = 0


#: ILP divisor for L1/L2 hit latency when accesses are independent: with
#: two load ports an OOO core retires ~2 L1 hits per cycle, i.e. ~8
#: overlapped 4-cycle hits in flight.
_PIPELINED_HIT_ILP = 8.0
#: Cycles charged per posted store (store-buffer insertion).
_STORE_ISSUE_CYCLES = 0.25
#: Cycles charged for issuing a clflushopt (non-blocking).
_FLUSHOPT_ISSUE_CYCLES = 5.0


class Core:
    """One physical core of the simulated machine."""

    def __init__(self, machine: "Machine", core_id: int):
        self.machine = machine
        self.core_id = core_id
        self.socket = core_id // (machine.arch.cores_per_socket * machine.arch.smt)
        self.current_thread: Optional["SimThread"] = None
        self.stats = CoreStats()
        events = machine.arch.counter_events
        self._stall_event = events.l2_stalls
        self._l3_hit_event = events.l3_hit
        # LLC-miss events charged for loads served by the local node and
        # by a remote one.
        combined = (
            () if events.l3_miss_combined is None else (events.l3_miss_combined,)
        )
        if events.has_local_remote_split:
            self._local_miss_events = (events.l3_miss_local,) + combined
            self._remote_miss_events = (events.l3_miss_remote,) + combined
        else:
            self._local_miss_events = self._remote_miss_events = combined

    # ------------------------------------------------------------------
    # Timestamp counter
    # ------------------------------------------------------------------
    def tsc_ns(self) -> float:
        """Invariant TSC expressed in ns (rdtscp / nominal frequency)."""
        return self.machine.sim.now

    def tsc_cycles(self) -> float:
        """Invariant TSC in nominal cycles (what rdtscp returns)."""
        return self.machine.sim.now * self.machine.arch.freq_ghz

    def frequency_ghz(self) -> float:
        """Current effective frequency (DVFS-aware)."""
        return self.machine.dvfs.frequency_ghz(self.core_id, self.machine.sim.now)

    # ------------------------------------------------------------------
    # Op execution
    # ------------------------------------------------------------------
    def execute(self, thread: "SimThread", op: Op):
        """Start *op* for *thread*: the hardware half of one op step.

        Returns ``(wait, token)``.  A ``wait`` of None means the op is
        done and ``token`` is its :class:`OpResult`.  Otherwise the caller
        yields ``wait`` (a :class:`Timeout` or a memory flow's ``done``
        condition) and then passes ``token`` to :meth:`finish`, or to
        :meth:`abort` when an :class:`Interrupt` lands instead.
        """
        kind = type(op)
        now = self.machine.sim.now
        if kind is MemBatch:
            if op.accesses == 0:
                return None, OpResult(op, 0.0)
            profile = self.machine.cache_model(self.socket).resolve(op)
            freq = self.frequency_ghz()
            compute_like, _mem_wait, duration_min = self._membatch_timing(
                op, profile, freq
            )
            controller = flow = None
            if profile.dram_bytes > 0:
                controller = self.machine.controller(op.region.node)
                rate_cap = profile.dram_bytes / max(duration_min, 1e-9)
                flow = controller.submit(
                    profile.dram_bytes,
                    rate_cap,
                    label=op.label or "membatch",
                    kind="write" if op.is_store else "read",
                )
            wait = Timeout(duration_min) if flow is None else flow.done
            return wait, (
                kind, op, now, duration_min, profile, compute_like, freq, controller, flow
            )
        if kind is Compute:
            duration = op.cycles / self.frequency_ghz()
            return Timeout(duration), (kind, op, now, duration)
        if kind is Spin:
            # Spin loops poll rdtscp, which is invariant: the duration is
            # exact wall time regardless of DVFS.
            return Timeout(op.duration_ns), (kind, op, now, op.duration_ns)
        if kind is Flush:
            # clflush: synchronous line writebacks (serialized).
            duration = self._flush_latency_ns(op.region.node) * op.lines
            controller = self.machine.controller(op.region.node)
            nbytes = op.lines * CACHE_LINE_BYTES
            controller.submit(
                nbytes, nbytes / max(duration, 1e-9), label="clflush", kind="write"
            )
            return Timeout(duration), (kind, op, now, duration)
        if kind is Commit:
            # pcommit: drain all outstanding optimized flushes.
            deadline = max(thread.outstanding_flushes, default=now)
            thread.outstanding_flushes.clear()
            token = (kind, op, now, max(0.0, deadline - now), thread)
            if token[3] > 0:
                return Timeout(token[3]), token
            return None, self.finish(token)
        if kind is FlushOpt or kind is PersistTail and op.cycles:
            # clflushopt: post the writeback, do not stall.  A FlushOpt
            # tail issues what an interrupt left and posts the completion.
            region = op.region if kind is FlushOpt else op.op.region
            cycles = _FLUSHOPT_ISSUE_CYCLES * op.lines if kind is FlushOpt else op.cycles
            latency = self._flush_latency_ns(region.node)
            issue_ns = cycles / self.frequency_ghz()
            if kind is FlushOpt:
                nbytes = op.lines * CACHE_LINE_BYTES
                self.machine.controller(region.node).submit(
                    nbytes, nbytes / max(latency, 1e-9), label="clflushopt", kind="write"
                )
            thread.outstanding_flushes.append(now + issue_ns + latency)
            return Timeout(issue_ns), (FlushOpt, op, now, issue_ns, thread, cycles)
        if kind is PersistTail:
            return Timeout(op.drain_ns), (Commit, op, now, op.drain_ns, thread)
        raise HardwareError(f"core cannot execute op {op!r}")

    def finish(self, token: tuple) -> OpResult:
        """Complete the op behind *token* once its wait has elapsed."""
        kind = token[0]
        if kind is MemBatch:
            elapsed = self.machine.sim.now - token[2]
            self._account_membatch(token[1], token[4], 1.0, elapsed, token[5], token[6])
            return OpResult(token[1], elapsed)
        op, duration, stats = token[1], token[3], self.stats
        if kind is Spin:
            stats.spin_ns += duration
        else:
            stats.busy_ns += duration
            if kind is Commit:
                stats.stall_ns += duration
        return OpResult(op, duration)

    def abort(self, token: tuple, interrupt: Interrupt) -> OpInterrupted:
        """Account the done part of the op behind *token* and return the
        :class:`OpInterrupted` carrying what is left of it."""
        kind, op, start, duration = token[:4]
        stats = self.stats
        elapsed = self.machine.sim.now - start
        if kind is MemBatch:
            _, _, _, _, profile, compute_like, freq, controller, flow = token
            if flow is not None:
                controller.withdraw(flow)
                fraction = flow.fraction_done
            else:
                fraction = elapsed / duration if duration > 0 else 1.0
            self._account_membatch(op, profile, fraction, elapsed, compute_like, freq)
            return OpInterrupted(
                op.split_remainder(fraction), interrupt.payload, elapsed
            )
        stats.interrupts_taken += 1
        fraction = elapsed / duration if duration > 0 else 1.0
        remainder: Optional[Op] = None
        if kind is Spin:
            stats.spin_ns += elapsed
            remaining = op.duration_ns - elapsed
            if remaining > 0:
                remainder = Spin(remaining, op.label)
            return OpInterrupted(remainder, interrupt.payload, elapsed)
        stats.busy_ns += elapsed
        if kind is Compute:
            remaining_cycles = op.cycles * max(0.0, 1.0 - fraction)
            if remaining_cycles > 0.5:
                remainder = Compute(remaining_cycles, op.label)
        elif kind is Flush:
            done_lines = int(op.lines * fraction)
            remaining = op.lines - done_lines
            if remaining:
                line = None if op.line is None else op.line + done_lines
                remainder = Flush(op.region, remaining, op.label, line=line)
        elif kind is FlushOpt:
            # The writeback stays posted; only the unissued rest resumes
            # after the handler, and it posts the completion anew.
            cycles = token[5] * max(0.0, 1.0 - fraction)
            if cycles > 0.5:
                token[4].outstanding_flushes.pop()
                base = op if type(op) is FlushOpt else op.op
                remainder = PersistTail(base, cycles=cycles)
        else:
            # Commit: the flushes it drains were cleared at its start; the
            # rest of the drain stalls on after the handler.
            stats.stall_ns += elapsed
            remaining = duration - elapsed
            if remaining > 0:
                base = op if type(op) is Commit else op.op
                remainder = PersistTail(base, drain_ns=remaining)
        return OpInterrupted(remainder, interrupt.payload, elapsed)

    # -- memory batches -----------------------------------------------------
    def _membatch_timing(
        self, batch: MemBatch, profile: "BatchProfile", freq: float
    ):
        """Return (compute_like_ns, mem_wait_ns, duration_min_ns) at *freq*."""
        arch = self.machine.arch
        compute_ns = batch.accesses * batch.compute_cycles_per_access / freq
        hit_ilp = 1.0 if batch.pattern is PatternKind.CHASE else _PIPELINED_HIT_ILP
        l12_ns = (
            profile.l1_hits * arch.l1_lat_ns + profile.l2_hits * arch.l2_lat_ns
        ) / hit_ilp
        if batch.is_store:
            # Posted writes: the core only pays issue cost; drain time is
            # bandwidth-bound and enforced by the flow below.
            issue_ns = batch.accesses * _STORE_ISSUE_CYCLES / freq
            compute_like = compute_ns + issue_ns
            return compute_like, 0.0, compute_like
        dram_lat = self.machine.dram_latency_ns(self.socket, batch.region.node)
        mem_wait = (
            profile.serialized_l3_hits * arch.l3_lat_ns
            + profile.serialized_dram_accesses * dram_lat
            + profile.tlb_walks * arch.tlb_walk_ns / profile.effective_mlp
        )
        compute_like = compute_ns + l12_ns
        overlap = batch.overlap if batch.overlap is not None else 0.0
        hidden = overlap * min(compute_like, mem_wait)
        duration_min = compute_like + mem_wait - hidden
        return compute_like, mem_wait, duration_min

    def _account_membatch(
        self,
        batch: MemBatch,
        profile: "BatchProfile",
        fraction: float,
        elapsed_ns: float,
        compute_like_ns: float,
        freq: float,
    ) -> None:
        """Charge PMCs and stats for the completed *fraction* of a batch.

        *freq* is the frequency read at the start of the batch.  With DVFS
        on, stall cycles accrue at the frequency the batch ends at, so it
        is read again here.
        """
        if fraction < 1.0:
            self.stats.interrupts_taken += 1
        pmc = self.machine.pmc(self.core_id)
        stall_ns = 0.0
        if not batch.is_store:
            stall_ns = max(0.0, elapsed_ns - fraction * compute_like_ns)
        if self.machine.dvfs.enabled:
            freq = self.frequency_ghz()
        pmc.increment(self._stall_event, stall_ns * freq)
        pmc.increment(self._l3_hit_event, fraction * profile.pmc_l3_hits)
        dram_loads = fraction * profile.pmc_dram_loads
        if batch.region.node == self.socket:
            miss_events = self._local_miss_events
        else:
            miss_events = self._remote_miss_events
        for event in miss_events:
            pmc.increment(event, dram_loads)
        self.stats.busy_ns += elapsed_ns
        self.stats.stall_ns += stall_ns
        self.stats.mem_accesses += fraction * batch.accesses
        self.stats.dram_loads += dram_loads

    # -- persistent-memory line flushes -----------------------------------
    def _flush_latency_ns(self, node: int) -> float:
        """Time for a line writeback to reach the home memory of *node*."""
        return self.machine.dram_latency_ns(self.socket, node)
