"""The Quartz user-mode library (Section 3.1, Figure 5).

Attaching to a process (the ``LD_PRELOAD`` moment) performs the library
initialisation:

1. load the kernel module, program the Table 1 counters, enable rdpmc;
2. throttle DRAM bandwidth to the target NVM bandwidth;
3. interpose on ``pthread_create`` (thread registration),
   ``pthread_mutex_unlock`` / ``pthread_cond_notify`` (sync-triggered
   epoch closes), ``pmalloc``/``pfree``/``pflush``/``pcommit`` (the PM
   API);
4. install the epoch signal handler;
5. fork the monitor thread, which periodically interrupts any
   application thread whose epoch exceeds the maximum size.

Everything the emulator learns about the application it learns through
the same channels the real library had: performance counters, the TSC,
and the interposed calls.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.errors import QuartzError
from repro.ops import Compute, Sleep, Spin
from repro.os.interpose import ORIGINAL
from repro.os.system import SimOS
from repro.os.thread import Signal, SimThread
from repro.quartz.bandwidth import BandwidthThrottler
from repro.quartz.calibration import CalibrationData, calibrate_arch
from repro.quartz.config import (
    QuartzConfig,
    THREAD_REGISTRATION_COST_CYCLES,
    WriteModel,
)
from repro.quartz.counters import backend_by_name
from repro.quartz.epoch import BOUNDARY_COST_CYCLES, EpochEngine
from repro.quartz.kernel_module import QuartzKernelModule
from repro.quartz.pm import PmWriteEmulator
from repro.quartz.stats import EpochTrigger, QuartzStats
from repro.quartz.tiers import TierAccountant
from repro.quartz.virtual_topology import TieredTopology

if TYPE_CHECKING:
    from repro.os.thread import ThreadContext

#: Every sync boundary charges the same bookkeeping: one op serves all.
_BOUNDARY_OP = Compute(BOUNDARY_COST_CYCLES, label="quartz-sync-boundary")
#: Signal number the monitor uses to interrupt threads.
EPOCH_SIGNAL = 44
#: Socket the monitor thread is pinned to.
MONITOR_SOCKET = 1


class Quartz:
    """One attachment of the emulator to a simulated process."""

    def __init__(
        self,
        os: SimOS,
        config: QuartzConfig,
        calibration: Optional[CalibrationData] = None,
    ):
        self.os = os
        self.machine = os.machine
        self.config = config
        self.calibration = calibration
        self.kernel_module = QuartzKernelModule(self.machine)
        self.stats = QuartzStats()
        self.virtual_topology: Optional[TieredTopology] = None
        self.tier_accountant: Optional[TierAccountant] = None
        self.write_emulator: Optional[PmWriteEmulator] = None
        self._engine: Optional[EpochEngine] = None
        self._throttler: Optional[BandwidthThrottler] = None
        self._registered: dict[int, SimThread] = {}
        self._monitor_thread: Optional[SimThread] = None
        self._attached = False

    # ------------------------------------------------------------------
    # Attach / detach
    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Initialise the library (must precede application threads)."""
        if self._attached:
            raise QuartzError("Quartz already attached")
        config = self.config
        if self.calibration is None:
            self.calibration = calibrate_arch(self.machine.arch)
        if self.calibration.arch_name != self.machine.arch.name:
            raise QuartzError(
                f"calibration is for {self.calibration.arch_name}, "
                f"machine is {self.machine.arch.name}"
            )
        if config.ladder is not None:
            # Every emulated tier is backed by the sibling socket's DRAM:
            # each per-direction target must be reachable by slowing it
            # down (equal latencies are the zero-delay degenerate case).
            backing_latency = self.calibration.dram_remote_ns
            for tier in config.ladder.tiers[1:]:
                for direction, target in (
                    ("read", tier.read_latency_ns),
                    ("write", tier.write_latency_ns),
                ):
                    if target < backing_latency:
                        raise QuartzError(
                            f"tier {tier.name!r}: target {direction} "
                            f"latency {target} ns is below the backing "
                            f"DRAM latency {backing_latency} ns; "
                            "DRAM can only be slowed down"
                        )
        elif config.nvm_read_latency_ns < self.calibration.dram_local_ns:
            raise QuartzError(
                f"target NVM latency {config.nvm_read_latency_ns} ns is "
                f"below the backing DRAM latency "
                f"{self.calibration.dram_local_ns} ns; "
                "DRAM can only be slowed down"
            )

        self.kernel_module.load()
        self.kernel_module.setup_counters()

        nvm_node = 0
        if config.ladder is not None:
            topology = TieredTopology(self.machine, config.ladder)
            self.virtual_topology = topology
            self.os.default_cpu_node = topology.compute_sockets[0]
            nvm_node = topology.nvm_node_for(topology.compute_sockets[0])
            self.os.interpose.register_sync_hook("pmalloc", topology.pmalloc_hook)
            self.os.interpose.register_sync_hook("pfree", topology.pfree_hook)
            # Per-tier reference accounting watches every executed op.
            self.tier_accountant = TierAccountant(topology.directory, topology.policy)
            self.os.hooks.subscribe("op", self.tier_accountant)
        self._throttler = BandwidthThrottler(
            self.kernel_module, self.calibration, config, nvm_node
        )
        self._throttler.apply()

        backend = backend_by_name(config.counter_backend)
        self._engine = EpochEngine(
            self.machine,
            config,
            self.calibration,
            backend,
            self.stats,
            accountant=self.tier_accountant,
        )

        topology = self.virtual_topology
        if topology is not None or config.nvm_write_latency_ns is not None:
            self.write_emulator = PmWriteEmulator(
                self.machine,
                config,
                self.calibration,
                directory=topology.directory if topology is not None else None,
            )
            self.os.interpose.register_op_hook(
                "pflush", self.write_emulator.pflush_hook
            )
            if config.write_model is WriteModel.PCOMMIT:
                self.os.interpose.register_op_hook(
                    "pcommit", self.write_emulator.pcommit_hook
                )
            # Posted-flush deadlines must not outlive their thread: a
            # reused tid would inherit them (see PmWriteEmulator).
            self.os.hooks.subscribe(
                "thread_exit", self.write_emulator.discard_thread
            )

        self.os.interpose.register_op_hook("thread_begin", self._thread_begin_hook)
        self.os.interpose.register_op_hook("thread_end", self._thread_end_hook)
        # Section 2.3: epochs close when a thread *enters and/or exits* a
        # critical section, so delay accumulated outside the lock is
        # injected before acquiring (where it overlaps other threads) and
        # delay from inside is injected before releasing (where it
        # propagates to waiters, Figure 4b).
        self.os.interpose.register_op_hook(
            "pthread_mutex_lock", self._make_sync_hook("acquire")
        )
        self.os.interpose.register_op_hook(
            "pthread_mutex_unlock", self._make_sync_hook("release")
        )
        self.os.interpose.register_op_hook(
            "pthread_cond_notify", self._make_sync_hook("notify")
        )
        self.os.interpose.register_op_hook(
            "barrier_wait", self._make_sync_hook("notify")
        )
        self.os.signal_handlers[EPOCH_SIGNAL] = self._signal_handler

        self._attached = True
        self._monitor_thread = self.os.create_thread(
            self._monitor_body,
            name="quartz-monitor",
            cpu_node=MONITOR_SOCKET,
            daemon=True,
        )

    def detach(self) -> None:
        """Unload: drop hooks, restore registers, stop the monitor."""
        if not self._attached:
            raise QuartzError("Quartz is not attached")
        self._attached = False
        self.os.interpose.unregister_all()
        if self.tier_accountant is not None:
            self.os.hooks.unsubscribe("op", self.tier_accountant)
            self.tier_accountant = None
        if self.write_emulator is not None:
            self.os.hooks.unsubscribe(
                "thread_exit", self.write_emulator.discard_thread
            )
        self.os.signal_handlers.pop(EPOCH_SIGNAL, None)
        if self._throttler is not None:
            self._throttler.reset()
        self.kernel_module.unload()

    @property
    def attached(self) -> bool:
        """True while the library is active."""
        return self._attached

    @property
    def registered_thread_count(self) -> int:
        """Application threads currently under emulation."""
        return len(self._registered)

    # ------------------------------------------------------------------
    # Interposition hooks (generators of ops)
    # ------------------------------------------------------------------
    def _thread_begin_hook(self, os: SimOS, thread: SimThread, op):
        if thread.daemon:
            return  # library/monitor threads are not emulated
        assert self._engine is not None
        yield Compute(
            THREAD_REGISTRATION_COST_CYCLES, label="quartz-thread-registration"
        )
        read_cost = self._engine.open_initial(thread)
        self._registered[thread.tid] = thread
        yield Compute(read_cost, label="quartz-initial-counter-read")

    def _thread_end_hook(self, os: SimOS, thread: SimThread, op):
        if thread.tid not in self._registered:
            return
        assert self._engine is not None
        yield from self._engine.close_and_reopen(thread, EpochTrigger.EXIT)
        del self._registered[thread.tid]

    def _make_sync_hook(self, kind: str):
        """Build the interposer for one sync symbol.

        This is the Figure 4(b) mechanism: at a release, the delay
        accumulated inside the critical section spins *before* the unlock
        so it propagates to every waiter, while delay from outside the
        section spins after it; an acquire mirrors the split.  The
        minimum epoch size gates the close (Section 2.3), in which case
        only cheap timestamp bookkeeping runs.
        """

        def hook(os: SimOS, thread: SimThread, op):
            engine = self._engine
            assert engine is not None
            emulated = (
                thread.tid in self._registered
                and thread.library_state is not None
            )
            plan = None
            if emulated:
                yield _BOUNDARY_OP
                plan = engine.sync_boundary(thread, kind)
            if plan is not None:
                yield Compute(plan.cost_cycles, label="quartz-epoch-processing")
                if plan.pre_spin_ns > 0:
                    yield Spin(plan.pre_spin_ns, label="quartz-delay-pre")
            result = yield ORIGINAL
            if emulated:
                engine.finish_boundary(thread, kind)
            if plan is not None:
                if plan.post_spin_ns > 0:
                    yield Spin(plan.post_spin_ns, label="quartz-delay-post")
                engine.mark_epoch_start(thread)
            return result

        return hook

    def _signal_handler(self, thread: SimThread, signal: Signal):
        if thread.tid in self._registered and thread.library_state is not None:
            assert self._engine is not None
            yield from self._engine.close_and_reopen(thread, EpochTrigger.MONITOR)

    # ------------------------------------------------------------------
    # The monitor thread (Figure 5)
    # ------------------------------------------------------------------
    def _monitor_body(self, ctx: "ThreadContext"):
        interval = self.config.effective_monitor_interval_ns
        hooks = self.os.hooks
        while self._attached:
            yield Sleep(interval)
            skips = hooks.monitor_wakeup
            if skips and any(skip() for skip in skips):
                continue  # a missed wake-up: no scan, no signals this tick
            self.stats.monitor_wakeups += 1
            assert self._engine is not None
            for thread in list(self._registered.values()):
                if thread.finished or thread.library_state is None:
                    continue
                if self._engine.epoch_elapsed_ns(thread) > self.config.max_epoch_ns:
                    if self.os.post_signal(thread, Signal(EPOCH_SIGNAL)):
                        self.stats.signals_posted += 1
