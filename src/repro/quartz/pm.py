"""Persistent-write emulation: pflush and the pcommit extension.

Section 3.1: persistent-memory applications put writes on the critical
path, which the epoch/stall model cannot see (writes are posted and do not
stall).  Quartz therefore provides ``pflush``: a ``clflush`` followed by a
configurable injected delay, pessimistically serialising every persistent
write.

Section 6 sketches the improvement this module also implements: a
``clflushopt``/``pcommit`` model where flushes are posted, their *emulated*
completion times accumulate, and the barrier injects only the delay not
already hidden by program execution — letting independent writes proceed
in parallel.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional, TYPE_CHECKING

from repro.errors import QuartzError
from repro.hw.machine import Machine
from repro.ops import Flush, FlushOpt, Spin
from repro.os.interpose import ORIGINAL
from repro.quartz.calibration import CalibrationData
from repro.quartz.config import QuartzConfig, WriteModel

if TYPE_CHECKING:
    from repro.os.system import SimOS
    from repro.os.thread import SimThread
    from repro.quartz.tiers import TierDirectory


class PmWriteEmulator:
    """Implements the pflush / pcommit write-delay models."""

    def __init__(
        self,
        machine: Machine,
        config: QuartzConfig,
        calibration: CalibrationData,
        directory: Optional["TierDirectory"] = None,
    ):
        if config.nvm_write_latency_ns is None and directory is None:
            raise QuartzError("write emulation requires nvm_write_latency_ns")
        self.machine = machine
        self.config = config
        self.calibration = calibration
        #: Region -> tier mapping of a multi-tier attachment; when set,
        #: a flushed region pays its *tier's* write latency (the
        #: read/write asymmetry of the N-tier model) with
        #: ``nvm_write_latency_ns`` as the fallback for untiered regions.
        self.directory = directory
        #: Per-thread emulated completion deadlines of posted flushes.
        self._pending_deadlines: dict[int, list[float]] = defaultdict(list)
        self.flushes_emulated = 0
        self.commits_emulated = 0
        #: ``pm_write(event, thread, op, deadline_ns)`` fires once per
        #: hook invocation (``event`` is ``"pflush"`` or ``"pcommit"``;
        #: the deadline is the posted completion time under the PCOMMIT
        #: model, else ``None``): write-emulation metadata the op stream
        #: alone cannot carry.
        self._hooks = machine.sim.hooks

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def pflush_hook(self, os: "SimOS", thread: "SimThread", op: Flush):
        """Interposer for pflush calls (op hook, symbol ``pflush``)."""
        if self.config.write_model is WriteModel.PFLUSH:
            result = yield ORIGINAL  # hardware clflush, stall-waited
            extra = self._extra_write_delay_ns(thread, op) * op.lines
            self.flushes_emulated += op.lines
            for observer in self._hooks.pm_write:
                observer("pflush", thread, op, None)
            if extra > 0:
                yield Spin(extra, label="quartz-pflush-delay")
            return result
        # PCOMMIT model: post the writeback instead of stalling, and
        # remember when it would complete on real NVM.
        result = yield FlushOpt(
            op.region, op.lines, label="quartz-flushopt", line=op.line
        )
        deadline = (
            self.machine.sim.now + self._write_latency_for(op.region)
        )
        self._pending_deadlines[thread.tid].append(deadline)
        self.flushes_emulated += op.lines
        for observer in self._hooks.pm_write:
            observer("pflush", thread, op, deadline)
        return result

    def pcommit_hook(self, os: "SimOS", thread: "SimThread", op):
        """Interposer for pcommit barriers (op hook, symbol ``pcommit``)."""
        result = yield ORIGINAL  # hardware drain of posted flushes
        deadlines = self._pending_deadlines.pop(thread.tid, [])
        self.commits_emulated += 1
        for observer in self._hooks.pm_write:
            observer("pcommit", thread, op, None)
        if deadlines:
            # Only the portion of emulated write time not already covered
            # by program progress is injected (Section 6's discounting).
            remaining = max(deadlines) - self.machine.sim.now
            if remaining > 0:
                yield Spin(remaining, label="quartz-pcommit-delay")
        return result

    def total_pending_flushes(self) -> int:
        """Posted-but-uncommitted flushes across every live thread."""
        return sum(len(deadlines) for deadlines in self._pending_deadlines.values())

    def discard_thread(self, thread: "SimThread") -> None:
        """Drop a finished thread's posted-flush deadlines.

        Subscribed to the ``thread_exit`` hook when Quartz attaches:
        without it a reused tid would inherit a dead thread's pending
        writes and its first pcommit would stall on deadlines it never
        posted.
        """
        self._pending_deadlines.pop(thread.tid, None)

    # ------------------------------------------------------------------
    def _write_latency_for(self, region) -> float:
        """Target write latency of one region (its tier's, or the global)."""
        if self.directory is not None:
            tier = self.directory.tier_of(region.region_id)
            if tier is not None:
                return self.directory.tiers[tier].write_latency_ns
        if self.config.nvm_write_latency_ns is None:
            # Untiered region under a tier-only attachment: no write
            # delay beyond the hardware writeback.
            return 0.0
        return self.config.nvm_write_latency_ns

    def _extra_write_delay_ns(self, thread: "SimThread", op: Flush) -> float:
        """Per-line delay on top of the hardware writeback."""
        hardware_ns = self.machine.dram_latency_ns(
            thread.core.socket, op.region.node
        )
        return max(0.0, self._write_latency_for(op.region) - hardware_ns)
