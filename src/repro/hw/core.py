"""The core execution engine.

A :class:`Core` turns instruction-level ops (:mod:`repro.ops`) into
simulated time, performance-counter increments, and memory-controller
traffic.  Execution is a generator driven by the OS layer; in-flight work
is *divisible*, so an :class:`~repro.sim.Interrupt` (a POSIX signal in the
modelled world) lands with instruction granularity: the core withdraws its
memory flow, accounts the completed fraction, and raises
:class:`OpInterrupted` carrying the remainder op for later resumption.

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
        """Execute *op* on behalf of *thread* (generator).

        Returns an :class:`OpResult`; raises :class:`OpInterrupted` when a
        signal preempts the op.
        """
        kind = type(op)
        if kind is MemBatch:
            return (yield from self._execute_membatch(op))
        if kind is Compute:
            return (yield from self._execute_compute(op))
        if kind is Spin:
            return (yield from self._execute_spin(op))
        if kind is Flush:
            return (yield from self._execute_flush(op))
        if kind is FlushOpt:
            return (yield from self._execute_flushopt(thread, op))
        if kind is Commit:
            return (yield from self._execute_commit(thread, op))
        raise HardwareError(f"core cannot execute op {op!r}")

    # -- compute and spin ------------------------------------------------
    def _execute_compute(self, op: Compute):
        duration = op.cycles / self.frequency_ghz()
        start = self.machine.sim.now
        try:
            yield Timeout(duration)
        except Interrupt as intr:
            elapsed = self.machine.sim.now - start
            self.stats.busy_ns += elapsed
            self.stats.interrupts_taken += 1
            fraction = elapsed / duration if duration > 0 else 1.0
            remaining_cycles = op.cycles * max(0.0, 1.0 - fraction)
            remainder = Compute(remaining_cycles, op.label) if remaining_cycles > 0.5 else None
            raise OpInterrupted(remainder, intr.payload, elapsed) from None
        self.stats.busy_ns += duration
        return OpResult(op, duration)

    def _execute_spin(self, op: Spin):
        # Spin loops poll rdtscp, which is invariant: the duration is exact
        # wall time regardless of DVFS.
        start = self.machine.sim.now
        try:
            yield Timeout(op.duration_ns)
        except Interrupt as intr:
            elapsed = self.machine.sim.now - start
            self.stats.spin_ns += elapsed
            self.stats.interrupts_taken += 1
            remaining = op.duration_ns - elapsed
            remainder = Spin(remaining, op.label) if remaining > 0 else None
            raise OpInterrupted(remainder, intr.payload, elapsed) from None
        self.stats.spin_ns += op.duration_ns
        return OpResult(op, op.duration_ns)

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

    def _execute_membatch(self, batch: MemBatch):
        if batch.accesses == 0:
            return OpResult(batch, 0.0)
        profile = self.machine.cache_model(self.socket).resolve(batch)
        freq = self.frequency_ghz()
        compute_like, _mem_wait, duration_min = self._membatch_timing(
            batch, profile, freq
        )
        sim = self.machine.sim
        start = sim.now
        if profile.dram_bytes > 0:
            controller = self.machine.controller(batch.region.node)
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
                self._account_membatch(
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
                self._account_membatch(
                    batch, profile, fraction, elapsed, compute_like, freq
                )
                raise OpInterrupted(
                    batch.split_remainder(fraction), intr.payload, elapsed
                ) from None
        elapsed = sim.now - start
        self._account_membatch(batch, profile, 1.0, elapsed, compute_like, freq)
        return OpResult(batch, elapsed)

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

    def _execute_flush(self, op: Flush):
        """clflush: synchronous line writebacks (serialized)."""
        latency = self._flush_latency_ns(op.region.node)
        duration = latency * op.lines
        controller = self.machine.controller(op.region.node)
        nbytes = op.lines * CACHE_LINE_BYTES
        controller.submit(
            nbytes, nbytes / max(duration, 1e-9), label="clflush", kind="write"
        )
        start = self.machine.sim.now
        try:
            yield Timeout(duration)
        except Interrupt as intr:
            elapsed = self.machine.sim.now - start
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
            self.stats.busy_ns += elapsed
            self.stats.interrupts_taken += 1
            raise OpInterrupted(remainder, intr.payload, elapsed) from None
        self.stats.busy_ns += duration
        return OpResult(op, duration)

    def _execute_flushopt(self, thread: "SimThread", op: FlushOpt):
        """clflushopt: post the writeback, do not stall."""
        latency = self._flush_latency_ns(op.region.node)
        issue_ns = _FLUSHOPT_ISSUE_CYCLES * op.lines / self.frequency_ghz()
        controller = self.machine.controller(op.region.node)
        nbytes = op.lines * CACHE_LINE_BYTES
        controller.submit(
            nbytes, nbytes / max(latency, 1e-9), label="clflushopt", kind="write"
        )
        completion = self.machine.sim.now + issue_ns + latency * 1.0
        thread.outstanding_flushes.append(completion)
        yield Timeout(issue_ns)
        self.stats.busy_ns += issue_ns
        return OpResult(op, issue_ns)

    def _execute_commit(self, thread: "SimThread", op: Commit):
        """pcommit: drain all outstanding optimized flushes."""
        now = self.machine.sim.now
        deadline = max(thread.outstanding_flushes, default=now)
        thread.outstanding_flushes.clear()
        wait = max(0.0, deadline - now)
        if wait > 0:
            yield Timeout(wait)
        self.stats.busy_ns += wait
        self.stats.stall_ns += wait
        return OpResult(op, wait)
