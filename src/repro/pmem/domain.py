"""The persistence-domain model: shadowing pmalloc'd memory per line.

Quartz emulates the *timing* of persistent writes (``pflush`` delay,
posted ``clflushopt`` + ``pcommit`` draining — Sections 3.1 and 6) but
keeps no persistence *state*: a workload that forgets a flush runs at
exactly the speed of a correct one.  This module adds the missing state
machine.  Every cache line of every persistent region moves through

    ``dirty-in-cache  →  posted (clflush/clflushopt issued)  →  persisted``

driven entirely by the simulator's :class:`~repro.sim.hooks.Hooks` —
the OS's ``op`` event for the op stream, and the
:class:`~repro.quartz.pm.PmWriteEmulator`'s ``pm_write`` event for
write-emulation metadata.  The domain never schedules an event or yields
an op, so attaching it cannot change a single simulated timestamp.  It
raises ``commit`` (after a pcommit drained) and ``persist`` (after a
durable flush persisted a line) on the same registry.

**Content channel.**  The op stream carries traffic shapes, not values,
so recoverable workloads additionally call :meth:`PersistenceDomain.record`
(untimed, the shadow-memory idiom of tools like pmemcheck) to say *what*
a dirty line logically holds.  A crash image is then the persisted
payload map with every dirty/posted line discarded — exactly what
survives power loss on hardware without ADR.

**Transition rules** (all effective at op dispatch, i.e. instruction
issue):

* a recorded store marks the line **dirty**;
* an executed :class:`~repro.ops.Flush` (synchronous ``clflush``, the
  pessimistic PFLUSH model or no emulator at all) persists its lines
  directly — the processor stall-waits for memory;
* an executed :class:`~repro.ops.FlushOpt` marks its lines **posted**,
  attributed to the issuing thread, capturing the payload at flush time
  (a later store re-dirties the line without disturbing the in-flight
  writeback);
* an executed :class:`~repro.ops.Commit` (``pcommit``) persists every
  line the committing thread posted.

Line selection: a flush op carrying ``line=k`` targets lines
``[k, k+lines)``; flushing a clean line is a harmless no-op (counted).
Without a line index the flush drains the region's oldest dirty lines
first, matching an LRU writeback order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, TYPE_CHECKING

from repro.errors import WorkloadError
from repro.ops import Commit, Flush, FlushOpt, MemBatch
from repro.sim.hooks import Hooks

if TYPE_CHECKING:
    from repro.hw.topology import MemoryRegion
    from repro.os.thread import SimThread


@dataclass
class RegionShadow:
    """Per-region shadow state, keyed by region-relative line index."""

    label: str
    lines: int
    #: Newest cache content not yet flushed.
    dirty: dict = field(default_factory=dict)
    #: In-flight writebacks: line -> (payload, tid that issued the flush).
    posted: dict = field(default_factory=dict)
    #: The durable image.
    persisted: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CrashImage:
    """What memory holds if power fails at one instant.

    ``persisted`` maps region *label* -> {line -> payload}; labels (not
    region ids, whose global counter varies across processes) keep
    images and violation records byte-identical for any job fan-out.
    """

    index: int
    time_ns: float
    trigger: str
    persisted: dict
    #: Volatile-state head-counts at the crash instant (diagnostics).
    dirty_lines: int
    posted_lines: int

    def lines(self, label: str) -> dict:
        """The persisted lines of one region (empty if never touched)."""
        return self.persisted.get(label, {})


class PersistenceDomain:
    """Cache-line persistence state across every shadowed region.

    Regions auto-register on first touch; only regions allocated with
    ``persistent=True`` (pmalloc) are shadowed — flushes of volatile
    memory are ignored, as on real hardware they have no durability
    meaning.
    """

    def __init__(self) -> None:
        self._shadows: dict[int, RegionShadow] = {}
        self._by_label: dict[str, RegionShadow] = {}
        # Counters (diagnostics; all deterministic).
        self.stores_recorded = 0
        self.store_batches_seen = 0
        self.lines_posted = 0
        self.lines_persisted = 0
        self.clean_flushes = 0
        self.flushes_seen = 0
        self.commits_seen = 0
        self.posted_deadlines_seen = 0
        #: Where ``commit`` / ``persist`` are raised: the run's registry
        #: once installed, a private one until then.
        self._hooks = Hooks()

    # ------------------------------------------------------------------
    # Registration / content channel
    # ------------------------------------------------------------------
    def _shadow(self, region: "MemoryRegion") -> Optional[RegionShadow]:
        shadow = self._shadows.get(region.region_id)
        if shadow is not None:
            return shadow
        if not region.persistent:
            return None
        label = region.label or f"pmem-{len(self._shadows)}"
        if label in self._by_label:
            raise WorkloadError(
                f"persistent regions must have unique labels; duplicate "
                f"{label!r} would make crash images ambiguous"
            )
        shadow = RegionShadow(label=label, lines=region.lines)
        self._shadows[region.region_id] = shadow
        self._by_label[label] = shadow
        return shadow

    def record(self, region: "MemoryRegion", line: int, payload: Any) -> None:
        """Declare the logical content of one dirty line (untimed).

        Recoverable workloads call this next to the store traffic they
        yield; the simulated timing is entirely carried by the ops, the
        shadow write costs nothing.
        """
        shadow = self._shadow(region)
        if shadow is None:
            raise WorkloadError(
                f"cannot record into non-persistent region {region.label!r}"
            )
        if not 0 <= line < shadow.lines:
            raise WorkloadError(
                f"line {line} outside region {shadow.label!r} "
                f"({shadow.lines} lines)"
            )
        shadow.dirty[line] = payload
        self.stores_recorded += 1

    # ------------------------------------------------------------------
    # Hook subscribers
    # ------------------------------------------------------------------
    def observe_op(self, thread: "SimThread", op) -> None:
        """The ``op`` subscriber (exactly once per executed op)."""
        kind = type(op)
        if kind is Flush:
            self._flush(thread, op, durable=True)
        elif kind is FlushOpt:
            self._flush(thread, op, durable=False)
        elif kind is Commit:
            self._drain(thread.tid)
            for subscriber in self._hooks.commit:
                subscriber(thread, op)
        elif kind is MemBatch and op.is_store and op.region.persistent:
            self.store_batches_seen += 1

    def observe_write_emulation(self, event: str, thread, op, deadline_ns) -> None:
        """The ``pm_write`` subscriber.

        The op stream already drives every state transition; this event
        only carries write-emulation metadata (posted deadlines) the ops
        cannot carry.
        """
        if event == "pflush" and deadline_ns is not None:
            self.posted_deadlines_seen += 1

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def _select_lines(self, shadow: RegionShadow, op) -> list[int]:
        if op.line is not None:
            return [
                index
                for index in range(op.line, op.line + op.lines)
                if index in shadow.dirty
            ]
        # Oldest-dirty-first: dicts preserve insertion order.
        return list(shadow.dirty)[: op.lines]

    def _flush(self, thread: "SimThread", op, durable: bool) -> None:
        self.flushes_seen += 1
        shadow = self._shadow(op.region)
        if shadow is None:
            return
        selected = self._select_lines(shadow, op)
        if not selected:
            self.clean_flushes += 1
            return
        for index in selected:
            payload = shadow.dirty.pop(index)
            if durable:
                shadow.persisted[index] = payload
                self.lines_persisted += 1
            else:
                shadow.posted[index] = (payload, thread.tid)
                self.lines_posted += 1
        if durable:
            for subscriber in self._hooks.persist:
                subscriber(thread, op)

    def _drain(self, tid: int) -> None:
        self.commits_seen += 1
        for shadow in self._shadows.values():
            drained = [
                index
                for index, (_, poster) in shadow.posted.items()
                if poster == tid
            ]
            for index in drained:
                payload, _ = shadow.posted.pop(index)
                shadow.persisted[index] = payload
                self.lines_persisted += 1

    # ------------------------------------------------------------------
    # Images / diagnostics
    # ------------------------------------------------------------------
    def dirty_line_count(self) -> int:
        """Lines currently dirty in cache across all regions."""
        return sum(len(shadow.dirty) for shadow in self._shadows.values())

    def posted_line_count(self) -> int:
        """Lines with in-flight (posted, undrained) writebacks."""
        return sum(len(shadow.posted) for shadow in self._shadows.values())

    def persisted_image(self) -> dict:
        """Deep copy of the durable image: label -> {line -> payload}."""
        return {
            shadow.label: dict(shadow.persisted)
            for shadow in self._shadows.values()
        }

    def snapshot(self, index: int, time_ns: float, trigger: str) -> CrashImage:
        """Freeze the current persisted image as a :class:`CrashImage`."""
        return CrashImage(
            index=index,
            time_ns=time_ns,
            trigger=trigger,
            persisted=self.persisted_image(),
            dirty_lines=self.dirty_line_count(),
            posted_lines=self.posted_line_count(),
        )

    def stats(self) -> dict:
        """Deterministic counters (JSON-safe)."""
        return {
            "regions": len(self._shadows),
            "stores_recorded": self.stores_recorded,
            "store_batches_seen": self.store_batches_seen,
            "flushes_seen": self.flushes_seen,
            "clean_flushes": self.clean_flushes,
            "lines_posted": self.lines_posted,
            "lines_persisted": self.lines_persisted,
            "commits_seen": self.commits_seen,
            "posted_deadlines_seen": self.posted_deadlines_seen,
            "dirty_lines": self.dirty_line_count(),
            "posted_lines": self.posted_line_count(),
        }

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, hooks: Hooks) -> None:
        """Subscribe to a run's ``op`` and ``pm_write`` events, and raise
        ``commit`` / ``persist`` there from now on."""
        self._hooks = hooks
        hooks.subscribe("op", self.observe_op)
        hooks.subscribe("pm_write", self.observe_write_emulation)
