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
#: Batch plans one core keeps before it starts over, so ops seen once
#: (every interrupted batch's remainder is a new op) cannot grow the
#: table without limit.
PLAN_LIMIT = 4096


class _BatchPlan:
    """How one :class:`MemBatch` op costs on one core.

    Everything here follows from the op, the socket's ``llc_sharers`` and
    inputs fixed for the run (the arch, the machine's DRAM latencies, the
    nominal frequency), so a core works it out on the op's first execution
    and reuses it while ``llc_sharers`` is unchanged.  It holds ``op``
    itself: the table is keyed by ``id(op)``, and a live op's id cannot be
    reused by another object.  The plan is how the charge is derived, never
    the charge itself: every execution still submits its flow, waits and
    adds its own counts.
    """

    __slots__ = (
        "op", "llc_sharers", "profile", "freq", "compute_like", "duration_min",
        "timeout", "controller", "dram_bytes", "rate_cap", "flow_kind", "label",
        "counts", "l3_hits", "dram_loads", "miss_events",
    )

    def __init__(self, core: "Core", op: MemBatch):
        machine = core.machine
        profile = core._cache_model.resolve(op)
        freq = core.frequency_ghz()
        compute_like, _mem_wait, duration_min = core._membatch_timing(
            op, profile, freq
        )
        self.op = op
        self.llc_sharers = core._cache_model.llc_sharers
        self.profile = profile
        self.freq = freq
        self.compute_like = compute_like
        self.duration_min = duration_min
        self.timeout = self.controller = None
        if profile.dram_bytes > 0:
            self.controller = machine.controller(op.region.node)
            self.dram_bytes = profile.dram_bytes
            self.rate_cap = profile.dram_bytes / max(duration_min, 1e-9)
            self.flow_kind = "write" if op.is_store else "read"
            self.label = op.label or "membatch"
        else:
            self.timeout = Timeout(duration_min)
        # Added to directly: the core's own events always exist in its file.
        self.counts = machine.pmc(core.core_id)._true
        self.l3_hits = profile.pmc_l3_hits
        self.dram_loads = profile.pmc_dram_loads
        if op.region.node == core.socket:
            self.miss_events = core._local_miss_events
        else:
            self.miss_events = core._remote_miss_events


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
        # by a remote one: one pair of tuples per family, shared.
        self._local_miss_events = events.local_miss_events
        self._remote_miss_events = events.remote_miss_events
        self._cache_model = machine.cache_model(self.socket)
        #: ``id(op)`` -> :class:`_BatchPlan` (see :meth:`execute`).
        self._plans: dict[int, _BatchPlan] = {}

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
        done and ``token`` is its :class:`OpResult`; a batch on an idle
        controller may end this way with the clock moved to its end
        (:meth:`MemoryController.serve_alone`).  Otherwise the caller
        yields ``wait`` (a :class:`Timeout` or a memory flow's ``done``
        condition) and then passes ``token`` to :meth:`finish`, or to
        :meth:`abort` when an :class:`Interrupt` lands instead.
        """
        kind = type(op)
        now = self.machine.sim.now
        if kind is MemBatch:
            if op.accesses == 0:
                return None, OpResult(op, 0.0)
            machine = self.machine
            if machine.dvfs.enabled or machine.loaded_latency_alpha > 0:
                # Frequency or DRAM latency moves with time or load.
                plan = _BatchPlan(self, op)
            else:
                plans = self._plans
                plan = plans.get(id(op))
                if plan is None or plan.llc_sharers != self._cache_model.llc_sharers:
                    plan = _BatchPlan(self, op)
                    if len(plans) >= PLAN_LIMIT:
                        plans.clear()
                    plans[id(op)] = plan
                else:
                    op.region.require_live()
            controller = plan.controller
            if controller is None:
                return plan.timeout, (kind, plan, now, None)
            if controller.serve_alone(plan.dram_bytes, plan.rate_cap, plan.flow_kind):
                return None, self.finish((kind, plan, now, None))
            flow = controller.submit(
                plan.dram_bytes, plan.rate_cap, label=plan.label, kind=plan.flow_kind
            )
            return flow.done, (kind, plan, now, flow)
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
            plan = token[1]
            elapsed = self.machine.sim.now - token[2]
            self._account_membatch(plan, 1.0, elapsed)
            return OpResult(plan.op, elapsed)
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
        kind = token[0]
        stats = self.stats
        elapsed = self.machine.sim.now - token[2]
        if kind is MemBatch:
            plan, flow = token[1], token[3]
            if flow is not None:
                plan.controller.withdraw(flow)
                fraction = flow.fraction_done
            else:
                duration = plan.duration_min
                fraction = elapsed / duration if duration > 0 else 1.0
            self._account_membatch(plan, fraction, elapsed)
            return OpInterrupted(
                plan.op.split_remainder(fraction), interrupt.payload, elapsed
            )
        op, duration = token[1], token[3]
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
        self, plan: _BatchPlan, fraction: float, elapsed_ns: float
    ) -> None:
        """Charge PMCs and stats for the completed *fraction* of a batch.

        The plan's frequency is the one read when it was made.  With DVFS
        on (never a stored plan), stall cycles accrue at the frequency the
        batch ends at, so it is read again here.
        """
        stats = self.stats
        if fraction < 1.0:
            stats.interrupts_taken += 1
        stall_ns = 0.0
        if not plan.op.is_store:
            stall_ns = max(0.0, elapsed_ns - fraction * plan.compute_like)
        freq = plan.freq
        if self.machine.dvfs.enabled:
            freq = self.frequency_ghz()
        counts = plan.counts
        counts[self._stall_event] += stall_ns * freq
        counts[self._l3_hit_event] += fraction * plan.l3_hits
        dram_loads = fraction * plan.dram_loads
        for event in plan.miss_events:
            counts[event] += dram_loads
        stats.busy_ns += elapsed_ns
        stats.stall_ns += stall_ns
        stats.mem_accesses += fraction * plan.op.accesses
        stats.dram_loads += dram_loads

    # -- persistent-memory line flushes -----------------------------------
    def _flush_latency_ns(self, node: int) -> float:
        """Time for a line writeback to reach the home memory of *node*."""
        return self.machine.dram_latency_ns(self.socket, node)
