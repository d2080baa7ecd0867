"""Per-thread epoch state and the close/reopen machinery (Sections 2.2-3.2).

An *epoch* is the interval between two delay injections.  Closing one:

1. reads the Table 1 counters through the configured backend (cost in
   cycles depends on rdpmc vs. PAPI, Section 3.2);
2. derives the memory-bound stall time via Eq. (3) — split local/remote
   across the memory tiers with the generalised Eq. (4) in tiered mode;
3. converts stalls to the required delay via Eq. (2);
4. amortises accumulated epoch-processing overhead by shaving it off the
   delay (carrying any excess to future epochs, Section 3.2);
5. spins for the remaining delay (unless injection is switched off) and
   starts the next epoch.

**Critical-section attribution.**  Section 2.3 requires delay accumulated
*inside* a critical section to be injected before the lock is released
(Figure 4b) so it propagates to waiters — while delay accumulated
*outside* must not be, or work that physically overlaps other threads'
critical sections would be serialised under the lock, inflating completion
time (~50% on the with-compute Multi-Threaded case).  The engine therefore
keeps cheap ``rdtscp`` timestamps at the interposed ``pthread_mutex_lock``
and ``pthread_mutex_unlock`` boundaries, accumulating in-CS and out-of-CS
wall time per epoch (blocked time excluded — it accrues no stalls), and
every sync-triggered close splits its delay proportionally: the CS share
spins while the lock is held, the outside share while it is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.errors import QuartzError
from repro.hw.machine import Machine
from repro.ops import Compute, Spin
from repro.quartz.calibration import CalibrationData
from repro.quartz.config import EPOCH_BASE_COST_CYCLES, QuartzConfig
from repro.quartz.counters import CounterBackend
from repro.quartz.model import (
    eq1_simple_delay,
    eq2_delay_from_stalls,
    eq3_ldm_stall,
    eqN_tier_stall_split,
    tier_direction_delay,
)
from repro.quartz.stats import EpochTrigger, QuartzStats, ThreadQuartzStats

if TYPE_CHECKING:
    from repro.os.thread import SimThread
    from repro.quartz.tiers import TierAccountant

#: Cycles for the timestamp bookkeeping at a sync boundary (two rdtscp
#: plus arithmetic) — far cheaper than a full epoch close, which is what
#: lets the minimum epoch size keep its purpose.
BOUNDARY_COST_CYCLES = 60.0


def amortize_delay(
    pool_ns: float, overhead_ns: float, delay_ns: float
) -> tuple[float, float, float]:
    """Section 3.2 amortisation as a pure function.

    The epoch's processing overhead joins the carried pool; the pool then
    absorbs as much of the computed delay as it can.  Returns
    ``(injected_ns, amortized_ns, new_pool_ns)`` satisfying, for
    non-negative inputs::

        injected + amortized == delay        (conservation)
        0 <= injected <= delay               (never schedules into the past)
        new_pool >= 0                        (carry is never negative)

    Branching on which side is exhausted keeps the carry exactly
    non-negative: the naive ``pool - (delay - injected)`` form loses one
    ulp when ``delay - pool`` rounds, leaving a pool of ``-1e-17``.
    """
    pool = pool_ns + overhead_ns
    if delay_ns > pool:
        # Pool fully consumed: everything beyond it is injected.
        return delay_ns - pool, pool, 0.0
    # Delay fully absorbed: the remainder stays carried (>= 0 exactly,
    # because subtracting a smaller float from a larger one never rounds
    # below zero).
    return 0.0, delay_ns, pool - delay_ns


@dataclass(frozen=True)
class EpochCloseInfo:
    """One epoch close, as seen by observers (e.g. the InvariantMonitor).

    Carries the full accounting picture — computed delay, amortisation
    split, overhead pool before/after, and (for sync closes) the CS /
    out-of-CS shares — so invariants can be checked without re-deriving
    any of it.
    """

    time_ns: float
    tid: int
    thread_name: str
    trigger: EpochTrigger
    epoch_length_ns: float
    delay_computed_ns: float
    injected_ns: float
    amortized_ns: float
    overhead_added_ns: float
    pool_before_ns: float
    pool_after_ns: float
    cs_wall_ns: float
    out_wall_ns: float
    #: The delay actually handed to the CS/out split (None for monitor and
    #: exit closes, which inject everything in place).
    split_delay_ns: Optional[float] = None
    cs_share_ns: Optional[float] = None
    out_share_ns: Optional[float] = None
    #: 1-based position of this close in the engine's notification order.
    #: Two closes can share a float timestamp; the sequence number gives
    #: observers (trace, crash injector) a total, deterministic identity.
    close_seq: int = 0
    #: Per-tier delay decomposition of a multi-tier close (index 0 is the
    #: DRAM tier, always 0.0); None without a tier ladder.  The
    #: invariant monitor checks these sum to ``delay_computed_ns``.
    tier_delays_ns: Optional[tuple[float, ...]] = None


@dataclass
class ThreadEpochState:
    """The Quartz library's per-thread bookkeeping."""

    start_ns: float
    #: Counter values at epoch start, aligned with the engine's cached
    #: event-name tuple (``EpochEngine._event_names``).
    counter_base: list[float]
    overhead_pool_ns: float = 0.0
    #: Running wall time spent inside / outside critical sections during
    #: the current epoch (blocked time excluded).
    cs_wall_ns: float = 0.0
    out_wall_ns: float = 0.0
    #: Timestamp of the last attribution boundary.
    last_boundary_ns: float = 0.0
    #: Critical-section nesting depth.
    cs_depth: int = 0
    #: Per-tier (reads, writes) accountant snapshot at epoch start —
    #: the software analogue of ``counter_base`` (tier ladder only).
    tier_base: Optional[list] = None


@dataclass
class SyncClosePlan:
    """Everything a sync-point hook must execute for one epoch close."""

    cost_cycles: float
    #: Spin before the interposed call (pre-release at unlock, outside the
    #: lock at acquire).
    pre_spin_ns: float
    #: Spin after the interposed call (outside the lock at unlock, inside
    #: at acquire).
    post_spin_ns: float


class EpochEngine:
    """Implements epoch close/reopen against one machine."""

    def __init__(
        self,
        machine: Machine,
        config: QuartzConfig,
        calibration: CalibrationData,
        backend: CounterBackend,
        stats: QuartzStats,
        accountant: Optional["TierAccountant"] = None,
    ):
        self.machine = machine
        self.config = config
        self.calibration = calibration
        self.backend = backend
        self.stats = stats
        self.accountant = accountant
        self._events = machine.arch.counter_events
        self._freq_ghz = machine.arch.freq_ghz  # nominal (DVFS assumed off)
        # Hot-path cache: the event-name tuple, each model event's index
        # into it, and the close costs (all constant per engine), so a
        # close computes deltas by list index instead of rebuilding dicts.
        names = self._events.all_events()
        self._event_names = names
        self._i_stalls = names.index(self._events.l2_stalls)
        self._i_hits = names.index(self._events.l3_hit)
        self._i_combined = (
            names.index(self._events.l3_miss_combined)
            if self._events.l3_miss_combined is not None
            else None
        )
        self._i_local = (
            names.index(self._events.l3_miss_local)
            if self._events.l3_miss_local is not None
            else None
        )
        self._i_remote = (
            names.index(self._events.l3_miss_remote)
            if self._events.l3_miss_remote is not None
            else None
        )
        read_cost = (
            backend.fixed_cost_cycles
            + backend.cost_per_event_cycles * len(names)
        )
        self._close_cost_cycles = read_cost + EPOCH_BASE_COST_CYCLES
        self._overhead_per_close_ns = (
            EPOCH_BASE_COST_CYCLES + read_cost
        ) / self._freq_ghz
        #: ``close`` subscribers get an :class:`EpochCloseInfo` after every
        #: close's accounting (before the delay spins execute); they may
        #: raise to abort the run.
        self._hooks = machine.sim.hooks
        #: Total closes so far (stamps ``close_seq``).
        self.closes_notified = 0
        #: Per-tier decomposition of the most recent close's delay
        #: (tier ladder only) — stashed here so the close paths can
        #: hand it to ``close`` subscribers.
        self._last_tier_delays: Optional[tuple[float, ...]] = None
        if config.ladder is not None:
            machine.arch.require_local_remote_counters()
            if accountant is None:
                raise QuartzError("a tier ladder needs the tier accountant")

    # ------------------------------------------------------------------
    # Epoch lifecycle
    # ------------------------------------------------------------------
    def open_initial(self, thread: "SimThread") -> float:
        """Start a thread's first epoch; returns the read cost in cycles."""
        pmc = self.machine.pmc(thread.core.core_id)
        values, cost_cycles = self.backend.read_values(pmc, self._event_names)
        now = self.machine.sim.now
        thread.library_state = ThreadEpochState(
            start_ns=now,
            counter_base=values,
            last_boundary_ns=now,
            tier_base=(
                self.accountant.snapshot(thread.tid)
                if self.accountant is not None
                else None
            ),
        )
        self.stats.per_thread[thread.tid] = ThreadQuartzStats(
            tid=thread.tid,
            name=thread.name,
            registered_at_ns=now,
        )
        self.stats.threads_registered += 1
        return cost_cycles

    def epoch_elapsed_ns(self, thread: "SimThread") -> float:
        """Age of the thread's current epoch (monitor's wake-up check)."""
        state = self._state_of(thread)
        return self.machine.sim.now - state.start_ns

    # ------------------------------------------------------------------
    # Monitor / exit closes: inject everything in place
    # ------------------------------------------------------------------
    def close_and_reopen(self, thread: "SimThread", trigger: EpochTrigger):
        """Close the thread's epoch, inject delay in place, reopen."""
        state = self._state_of(thread)
        self._accrue_segment(state)
        epoch_length_ns = self.machine.sim.now - state.start_ns
        cs_wall_ns, out_wall_ns = state.cs_wall_ns, state.out_wall_ns
        delay_ns, cost_cycles = self._close_measure(thread, state, trigger)
        injected_ns, amortized_ns, overhead_ns, pool_before = self._amortize(
            thread, state, delay_ns
        )
        self.closes_notified += 1
        if self._hooks.close:
            # Only built when someone reads it.
            self._notify_close(EpochCloseInfo(
                time_ns=self.machine.sim.now,
                tid=thread.tid,
                thread_name=thread.name,
                trigger=trigger,
                epoch_length_ns=epoch_length_ns,
                delay_computed_ns=delay_ns,
                injected_ns=injected_ns,
                amortized_ns=amortized_ns,
                overhead_added_ns=overhead_ns,
                pool_before_ns=pool_before,
                pool_after_ns=state.overhead_pool_ns,
                cs_wall_ns=cs_wall_ns,
                out_wall_ns=out_wall_ns,
                tier_delays_ns=self._last_tier_delays,
                close_seq=self.closes_notified,
            ))
        yield Compute(cost_cycles, label="quartz-epoch-processing")
        if self.config.injection_enabled and injected_ns > 0.0:
            self.stats.thread(thread.tid).delay_injected_ns += injected_ns
            yield Spin(injected_ns, label="quartz-delay")
        if trigger is EpochTrigger.EXIT:
            thread_stats = self.stats.thread(thread.tid)
            thread_stats.overhead_residual_ns = state.overhead_pool_ns
            thread.library_state = None
        else:
            self._reopen(state)

    # ------------------------------------------------------------------
    # Sync-point boundaries (lock/unlock, notify)
    # ------------------------------------------------------------------
    def sync_boundary(
        self, thread: "SimThread", kind: str
    ) -> Optional[SyncClosePlan]:
        """Handle the attribution boundary at a sync call; maybe close.

        ``kind`` is ``"acquire"``, ``"release"``, or ``"notify"``.  Called
        by the interposition hook *before* the real call.  Returns the
        close plan (spins to run around the call) or None when the
        minimum epoch size gates the close (Section 2.3) — in which case
        only the cheap timestamp bookkeeping happened.
        """
        state = self._state_of(thread)
        self._accrue_segment(state)
        thread_stats = self.stats.thread(thread.tid)
        if self.epoch_elapsed_ns(thread) < self.config.min_epoch_ns:
            thread_stats.closes_skipped_min_epoch += 1
            return None
        epoch_length_ns = self.epoch_elapsed_ns(thread)
        cs_wall_ns, out_wall_ns = state.cs_wall_ns, state.out_wall_ns
        delay_ns, cost_cycles = self._close_measure(
            thread, state, EpochTrigger.SYNC
        )
        injected_ns, amortized_ns, overhead_ns, pool_before = self._amortize(
            thread, state, delay_ns
        )
        # The accounting keeps the true injected share even when injection
        # is switched off; only the spins (the "effective" delay) go to 0.
        effective_ns = injected_ns if self.config.injection_enabled else 0.0
        thread_stats.delay_injected_ns += effective_ns
        cs_share, out_share = self._split_delay(state, effective_ns)
        state.cs_wall_ns = 0.0
        state.out_wall_ns = 0.0
        self.closes_notified += 1
        if self._hooks.close:
            self._notify_close(EpochCloseInfo(
                time_ns=self.machine.sim.now,
                tid=thread.tid,
                thread_name=thread.name,
                trigger=EpochTrigger.SYNC,
                epoch_length_ns=epoch_length_ns,
                delay_computed_ns=delay_ns,
                injected_ns=injected_ns,
                amortized_ns=amortized_ns,
                overhead_added_ns=overhead_ns,
                pool_before_ns=pool_before,
                pool_after_ns=state.overhead_pool_ns,
                cs_wall_ns=cs_wall_ns,
                out_wall_ns=out_wall_ns,
                split_delay_ns=effective_ns,
                cs_share_ns=cs_share,
                out_share_ns=out_share,
                tier_delays_ns=self._last_tier_delays,
                close_seq=self.closes_notified,
            ))
        if kind == "release":
            # CS delay propagates to waiters; outside delay after release.
            return SyncClosePlan(cost_cycles, pre_spin_ns=cs_share,
                                 post_spin_ns=out_share)
        if kind == "acquire":
            # Outside delay before acquiring (overlaps other threads);
            # residual CS delay from earlier sections inside the lock.
            return SyncClosePlan(cost_cycles, pre_spin_ns=out_share,
                                 post_spin_ns=cs_share)
        # notify: everything must precede the communication event.
        return SyncClosePlan(cost_cycles, pre_spin_ns=cs_share + out_share,
                             post_spin_ns=0.0)

    def finish_boundary(self, thread: "SimThread", kind: str) -> None:
        """Record the post-call boundary timestamp (excludes blocked time)
        and update the critical-section depth."""
        state = thread.library_state
        if not isinstance(state, ThreadEpochState):
            return
        state.last_boundary_ns = self.machine.sim.now
        if kind == "acquire":
            state.cs_depth += 1
        elif kind == "release":
            state.cs_depth = max(0, state.cs_depth - 1)

    def mark_epoch_start(self, thread: "SimThread") -> None:
        """Start the next epoch's clock (after any injected spins)."""
        state = thread.library_state
        if not isinstance(state, ThreadEpochState):
            return
        state.start_ns = self.machine.sim.now
        state.last_boundary_ns = self.machine.sim.now

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _accrue_segment(self, state: ThreadEpochState) -> None:
        elapsed = self.machine.sim.now - state.last_boundary_ns
        if elapsed <= 0:
            return
        if state.cs_depth > 0:
            state.cs_wall_ns += elapsed
        else:
            state.out_wall_ns += elapsed
        state.last_boundary_ns = self.machine.sim.now

    @staticmethod
    def _split_delay(
        state: ThreadEpochState, delay_ns: float
    ) -> tuple[float, float]:
        """Apportion a delay between in-CS and out-of-CS shares."""
        total_wall = state.cs_wall_ns + state.out_wall_ns
        if total_wall <= 0.0:
            return delay_ns, 0.0
        # Ratio first: ``delay * cs_wall`` can underflow to zero when both
        # operands are tiny even though the quotient is well-scaled.
        cs_share = delay_ns * (state.cs_wall_ns / total_wall)
        # Guard float rounding: the remainder must never go (even one ulp)
        # negative, or it would construct a negative spin.
        return cs_share, max(0.0, delay_ns - cs_share)

    def _close_measure(
        self, thread: "SimThread", state: ThreadEpochState, trigger: EpochTrigger
    ) -> tuple[float, float]:
        """Read counters, compute the epoch's delay, update stats."""
        pmc = self.machine.pmc(thread.core.core_id)
        values, _ = self.backend.read_values(pmc, self._event_names)
        # Clamp each delta at zero: counter reads are monotone on healthy
        # hardware, but wrapped/overflowed registers (real, and emulated by
        # the fault layer) would otherwise turn the Eq. 2/3 model negative.
        base = state.counter_base
        deltas = [
            value - prev if value > prev else 0.0
            for value, prev in zip(values, base)
        ]
        state.counter_base = values
        tier_deltas = None
        if self.accountant is not None:
            snapshot = self.accountant.snapshot(thread.tid)
            tier_base = state.tier_base or [(0.0, 0.0)] * len(snapshot)
            tier_deltas = [
                (
                    max(0.0, reads - base_reads),
                    max(0.0, writes - base_writes),
                )
                for (reads, writes), (base_reads, base_writes) in zip(
                    snapshot, tier_base
                )
            ]
            state.tier_base = snapshot
        self._last_tier_delays = None
        delay_ns = self._delay_from_deltas(deltas, tier_deltas)
        cost_cycles = self._close_cost_cycles
        thread_stats = self.stats.thread(thread.tid)
        thread_stats.delay_computed_ns += delay_ns
        if trigger is EpochTrigger.MONITOR:
            thread_stats.epochs_monitor += 1
        elif trigger is EpochTrigger.SYNC:
            thread_stats.epochs_sync += 1
        else:
            thread_stats.epochs_exit += 1
        return delay_ns, cost_cycles

    def _amortize(
        self, thread: "SimThread", state: ThreadEpochState, delay_ns: float
    ) -> tuple[float, float, float, float]:
        """Section 3.2 overhead amortisation against the thread's pool.

        Returns ``(injected_ns, amortized_ns, overhead_ns, pool_before_ns)``
        — everything ``close`` subscribers need to audit the accounting.
        """
        overhead_ns = self._overhead_per_close_ns
        pool_before = state.overhead_pool_ns
        injected_ns, amortized_ns, new_pool = amortize_delay(
            pool_before, overhead_ns, delay_ns
        )
        state.overhead_pool_ns = new_pool
        thread_stats = self.stats.thread(thread.tid)
        thread_stats.overhead_ns += overhead_ns
        thread_stats.overhead_amortized_ns += amortized_ns
        return injected_ns, amortized_ns, overhead_ns, pool_before

    def _notify_close(self, info: EpochCloseInfo) -> None:
        for subscriber in self._hooks.close:
            subscriber(info)

    def _reopen(self, state: ThreadEpochState) -> None:
        state.start_ns = self.machine.sim.now
        state.last_boundary_ns = self.machine.sim.now
        state.cs_wall_ns = 0.0
        state.out_wall_ns = 0.0

    # ------------------------------------------------------------------
    # The model
    # ------------------------------------------------------------------
    def _delay_from_deltas(
        self, deltas: list[float], tier_deltas: Optional[list] = None
    ) -> float:
        """Counter deltas for one epoch -> required delay (ns).

        *deltas* is positional, aligned with ``self._event_names``;
        *tier_deltas* carries the accountant's per-tier (reads, writes)
        deltas with a tier ladder.
        """
        stall_cycles = deltas[self._i_stalls]
        hits = deltas[self._i_hits]
        if self.config.latency_model == "simple":
            # Eq. (1): every LLC miss treated as serialized — ignores MLP
            # (the Figure 2 strawman, kept for the model ablation).
            return eq1_simple_delay(
                self._total_misses(deltas),
                self.config.nvm_read_latency_ns,
                self.calibration.dram_local_ns,
            )
        if self.config.ladder is None:
            misses = self._total_misses(deltas)
            if hits + misses <= 0:
                # Eq. (3) rejects a positive stall count with no LLC
                # references (inconsistent PMC feed); the engine keeps
                # the run alive and counts the discarded epoch instead.
                if stall_cycles > 0:
                    self.stats.model_warnings += 1
                return 0.0
            ldm_stall_cycles = eq3_ldm_stall(
                stall_cycles, hits, misses, self.calibration.w_local
            )
            ldm_stall_ns = ldm_stall_cycles / self._freq_ghz
            return eq2_delay_from_stalls(
                ldm_stall_ns,
                self.config.nvm_read_latency_ns,
                self.calibration.dram_local_ns,
            )
        return self._multi_tier_delay(deltas, tier_deltas)

    def _multi_tier_delay(
        self, deltas: list[float], tier_deltas: Optional[list]
    ) -> float:
        """The N-tier generalization of the Section 3.3 split.

        The hardware only separates local vs. remote LLC misses; the
        accountant's per-tier reference counts apportion the *remote*
        misses across the emulated tiers, the generalized Eq. (4) splits
        the stall time latency-weighted across all tiers, and each
        tier's share is stretched to its own read/write targets.  Sets
        ``_last_tier_delays`` for observers (per-tier delay
        conservation), and mirrors the directory's placement/migration
        report into the run statistics.
        """
        tiers = self.config.ladder.tiers
        assert tier_deltas is not None
        assert self.accountant is not None
        self.stats.tier_report = self.accountant.directory.report()
        stall_cycles = deltas[self._i_stalls]
        hits = deltas[self._i_hits]
        local_misses = deltas[self._i_local]
        remote_misses = deltas[self._i_remote]
        misses = local_misses + remote_misses
        zero = tuple(0.0 for _ in tiers)
        if misses <= 0:
            if stall_cycles > 0:
                self.stats.model_warnings += 1
            self._last_tier_delays = zero
            return 0.0
        w_effective = (
            local_misses * self.calibration.w_local
            + remote_misses * self.calibration.w_remote
        ) / misses
        ldm_stall_cycles = eq3_ldm_stall(stall_cycles, hits, misses, w_effective)
        ldm_stall_ns = ldm_stall_cycles / self._freq_ghz
        # Apportion the hardware's remote-miss count across the emulated
        # tiers in proportion to the software-tracked references (the
        # counters are ground truth for *how many* misses went remote;
        # the directory knows *where* they went).  With no tracked
        # references the split is even — deterministic, and only reached
        # when remote traffic bypassed every tiered region.
        totals = [reads + writes for reads, writes in tier_deltas[1:]]
        tracked = sum(totals)
        if tracked > 0:
            references = [local_misses] + [
                remote_misses * (count / tracked) for count in totals
            ]
        else:
            share = remote_misses / (len(tiers) - 1)
            references = [local_misses] + [share] * (len(tiers) - 1)
        backing = [self.calibration.dram_local_ns] + [
            self.calibration.dram_remote_ns
        ] * (len(tiers) - 1)
        shares = eqN_tier_stall_split(ldm_stall_ns, references, backing)
        tier_delays = [0.0]
        total_delay = 0.0
        for index in range(1, len(tiers)):
            reads, writes = tier_deltas[index]
            read_delay, write_delay = tier_direction_delay(
                shares[index],
                reads,
                writes,
                tiers[index].read_latency_ns,
                tiers[index].write_latency_ns,
                self.calibration.dram_remote_ns,
            )
            delay = read_delay + write_delay
            tier_delays.append(delay)
            total_delay += delay
        self._last_tier_delays = tuple(tier_delays)
        return total_delay

    def _total_misses(self, deltas: list[float]) -> float:
        if self._i_combined is not None:
            return deltas[self._i_combined]
        return deltas[self._i_local] + deltas[self._i_remote]

    def _state_of(self, thread: "SimThread") -> ThreadEpochState:
        state = thread.library_state
        if not isinstance(state, ThreadEpochState):
            raise QuartzError(
                f"thread {thread.name!r} has no open epoch (not registered?)"
            )
        return state
