"""Simulated threads and the context object handed to workload bodies."""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, TYPE_CHECKING

from repro.errors import OsError
from repro.hw.topology import MemoryRegion, PageSize
from repro.ops import Flush

if TYPE_CHECKING:
    from repro.hw.core import Core
    from repro.os.system import SimOS
    from repro.sim.process import Process


class ThreadState(enum.Enum):
    """Lifecycle of a simulated thread."""

    NEW = "new"
    RUNNING = "running"
    FINISHED = "finished"


@dataclass(frozen=True)
class Signal:
    """A POSIX-style signal payload delivered to a thread."""

    signum: int

    def __post_init__(self) -> None:
        if not 1 <= self.signum <= 64:
            raise OsError(f"signal number out of range: {self.signum}")


class SimThread:
    """One application (or library) thread pinned to a logical core."""

    def __init__(
        self,
        os: "SimOS",
        tid: int,
        name: str,
        body: Callable[..., Iterator],
        core: "Core",
        mem_node: int,
        args: tuple = (),
        daemon: bool = False,
    ):
        self.os = os
        self.tid = tid
        self.name = name
        self.body = body
        self.core = core
        #: NUMA node malloc draws from (numactl --membind analogue).
        self.mem_node = mem_node
        self.args = args
        self.daemon = daemon
        self.state = ThreadState.NEW
        self.pending_signals: deque[Signal] = deque()
        self.signals_masked = False
        #: Completion times of posted clflushopt writebacks (pcommit waits
        #: on these, Section 6).
        self.outstanding_flushes: list[float] = []
        #: Opaque per-thread slot for the Quartz library's epoch state.
        self.library_state: Any = None
        self.process: Optional["Process"] = None
        self.result: Any = None
        self.context = ThreadContext(os, self)

    @property
    def finished(self) -> bool:
        """True once the thread body returned."""
        return self.state is ThreadState.FINISHED

    @property
    def socket(self) -> int:
        """The socket this thread is pinned to."""
        return self.core.socket

    def __repr__(self) -> str:
        return f"SimThread({self.tid}, {self.name!r}, {self.state.value})"


class ThreadContext:
    """The "libc view" a workload body receives as its first argument.

    Untimed services (allocation, clock reads, RNG) are plain methods;
    anything that takes simulated time is expressed by yielding ops.  The
    persistent-memory API (``pmalloc``/``pfree``/``pflush``) routes through
    the interposition table, so attaching Quartz transparently changes its
    behaviour — the paper's "without modifying or instrumenting the
    application source code" property.
    """

    def __init__(self, os: "SimOS", thread: SimThread):
        self.os = os
        self.thread = thread

    # -- clock ----------------------------------------------------------
    @property
    def now_ns(self) -> float:
        """CLOCK_MONOTONIC (valid whenever the body is running)."""
        return self.os.sim.now

    @property
    def arch(self):
        """The machine's architecture spec."""
        return self.os.machine.arch

    def rng(self, name: str):
        """A deterministic per-purpose random stream.

        Keyed by thread *name*, not tid, so workload randomness is
        identical across configurations that create different numbers of
        library threads (e.g. with vs. without the Quartz monitor).
        """
        return self.os.sim.random.stream(f"thread-{self.thread.name}-{name}")

    # -- volatile memory (malloc/free) ------------------------------------
    def malloc(
        self,
        size_bytes: int,
        page_size: PageSize = PageSize.SMALL_4K,
        label: str = "",
    ) -> MemoryRegion:
        """Allocate volatile memory under the thread's NUMA policy."""
        return self.os.machine.allocate(
            size_bytes, node=self.thread.mem_node, page_size=page_size, label=label
        )

    def free(self, region: MemoryRegion) -> None:
        """Release a malloc'd region."""
        self.os.machine.free(region)

    # -- persistent memory (pmalloc/pfree/pflush) ---------------------------
    def pmalloc(
        self,
        size_bytes: int,
        page_size: PageSize = PageSize.SMALL_4K,
        label: str = "",
    ) -> MemoryRegion:
        """Allocate persistent memory.

        Interposed by Quartz: in tiered mode the allocation lands on
        the sibling socket's DRAM (virtual NVM, Section 3.3).  Without an
        interposer it falls back to local memory marked persistent.
        """
        hook = self.os.interpose.sync_hook("pmalloc")
        if hook is not None:
            return hook(self.thread, size_bytes, page_size, label)
        return self.os.machine.allocate(
            size_bytes,
            node=self.thread.mem_node,
            page_size=page_size,
            label=label or "pmem",
            persistent=True,
        )

    def pfree(self, region: MemoryRegion) -> None:
        """Release a pmalloc'd region."""
        hook = self.os.interpose.sync_hook("pfree")
        if hook is not None:
            hook(self.thread, region)
            return
        self.os.machine.free(region)

    def pflush(self, region: MemoryRegion, lines: int = 1, line: Optional[int] = None):
        """Flush lines to persistent memory (use as ``yield from``).

        Interposed by Quartz to append the configured NVM write delay
        after the hardware ``clflush`` (Section 3.1).  ``line`` names the
        first region-relative cache line flushed, which lets persistence
        observers attribute the writeback to exact lines instead of
        oldest-dirty-first.
        """
        op = Flush(region, lines=lines, label="pflush", line=line)
        hook = self.os.interpose.op_hook("pflush")
        if hook is None:
            result = yield op
            return result
        result = yield from self.os.run_op_hook(self.thread, hook, op)
        return result
