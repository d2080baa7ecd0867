"""The key-value store workload — MassTree's stand-in (Section 4.7).

The paper runs MassTree with 1-8 threads and reports put/s and get/s.
Here each thread owns a key partition backed by a real
:class:`~repro.workloads.btree.BPlusTree` (functional: gets return what
puts stored) living in a pmalloc'd arena.  For every batch of operations
the workload charges the memory hierarchy one dependent random access per
tree level, with the level's true node-count footprint — the
latency-sensitive pointer-walk behaviour that makes MassTree throughput
collapse as NVM latency grows (Figure 16).

Phases are barrier-separated like the original benchmark: all threads
load (puts, timed), then all threads query (gets, timed).

A thread's tree, its per-batch shapes and its get check are a pure
function of the config fields they read, the thread index and the
thread's ``kv-put``/``kv-get`` stream states, and a validation pair runs
them twice.  So each phase is computed once per process for each such
key and replayed: the stream is left where the real work leaves it, and
every batch's ops are yielded and charged as before.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from repro.errors import WorkloadError
from repro.hw.topology import PageSize
from repro.ops import Commit, JoinThread, MemBatch, PatternKind, SpawnThread
from repro.units import CACHE_LINE_BYTES, MIB
from repro.workloads.btree import BPlusTree
from repro.workloads.memo import Memo, typed


@dataclass(frozen=True)
class KvRecordLayout:
    """The on-PM record shape shared by every KV-store incarnation.

    One place defines how a key maps to its stored payload and how much
    persistent memory records and index nodes occupy — the
    microbenchmark (:func:`kvstore_main_body`), the crash-checkable
    variant (:class:`RecoverableKvStore`), and the service-layer store
    (:mod:`repro.service.kvservice`) all derive their footprints and
    value codecs from the same layout, so a latency comparison between
    them is apples-to-apples.
    """

    node_order: int = 16
    node_bytes: int = 512
    value_bytes: int = 1024

    def __post_init__(self) -> None:
        # The smallest order whose half-full node holds two keys, so the
        # analytic tree in level_footprints narrows at every level.
        if self.node_order < 4:
            raise WorkloadError(f"node order must be >= 4: {self.node_order}")
        if self.node_bytes < CACHE_LINE_BYTES:
            raise WorkloadError(
                f"node smaller than a cache line: {self.node_bytes}"
            )
        if self.value_bytes < 1:
            raise WorkloadError(f"value size must be positive: {self.value_bytes}")

    # -- key codec ------------------------------------------------------
    def value_checksum(self, key: int, salt: int = 0) -> int:
        """The integer a put stores (and a verified get expects)."""
        return key * 31 + salt

    def value_payload(self, key: int, salt: int = 0) -> tuple:
        """The durable line payload of one record (persistence domain)."""
        return ("val", key, self.value_checksum(key, salt))

    # -- value/index sizing ---------------------------------------------
    def value_footprint(self, records: int) -> int:
        """Working-set bytes of the value heap for *records* live records."""
        return max(64, records * self.value_bytes)

    def arena_bytes(self, records: int) -> int:
        """PM arena size for a store holding *records* records."""
        node_estimate = (records * 2 // self.node_order + 64) * self.node_bytes
        value_estimate = records * self.value_bytes
        return max(64 * MIB, 4 * node_estimate + 2 * value_estimate)

    def header_arena_bytes(self, records: int) -> int:
        """PM arena size of the header-indexed durable log variant."""
        return max(MIB, (1 + records) * CACHE_LINE_BYTES)

    def level_footprints(self, records: int) -> tuple:
        """Analytic per-level index footprints, root first (bytes).

        The microbenchmark walks a real
        :meth:`~repro.workloads.btree.BPlusTree.level_footprints`; the
        service store holds key counts far too large to materialise, so
        it prices the same dependent walk from half-full-node tree
        arithmetic instead.
        """
        if records <= 0:
            return (self.node_bytes,)
        # B+-tree nodes run half full in steady state.
        per_node = self.node_order // 2
        counts = [max(1, -(-records // per_node))]
        while counts[0] > 1:
            counts.insert(0, max(1, -(-counts[0] // per_node)))
        return tuple(count * self.node_bytes for count in counts)

    def to_dict(self) -> dict:
        return {
            "node_order": self.node_order,
            "node_bytes": self.node_bytes,
            "value_bytes": self.value_bytes,
        }


def layout_for(config: "KvStoreConfig") -> KvRecordLayout:
    """The record layout a :class:`KvStoreConfig` implies."""
    return KvRecordLayout(
        node_order=config.node_order,
        node_bytes=config.node_bytes,
        value_bytes=config.value_bytes,
    )


@dataclass(frozen=True)
class KvStoreConfig:
    """Parameters of one KV-store run."""

    #: Keys each thread inserts during the put phase.
    puts_per_thread: int = 20_000
    #: Lookups each thread performs during the get phase.
    gets_per_thread: int = 20_000
    threads: int = 1
    #: B+-tree fan-out and modelled node size.
    node_order: int = 16
    node_bytes: int = 512
    #: Stored value size; the value heap is the store's bulk footprint
    #: (values dominate memory in KV stores, and put/get each touch one).
    value_bytes: int = 1024
    #: Operations charged to the memory system per batch.
    batch_ops: int = 500
    #: Key-comparison / node-search / protocol work per level visit
    #: (MassTree-class stores spend well under a microsecond of CPU per
    #: operation; ~180 cycles x 4 levels here).
    compute_cycles_per_level: float = 180.0
    #: Store the tree in persistent memory (pmalloc).
    persistent: bool = True
    #: pflush the touched leaf line after every put (needs Quartz write
    #: emulation to cost anything extra).
    flush_writes: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise WorkloadError(f"need at least one thread: {self.threads}")
        if self.puts_per_thread < 1:
            raise WorkloadError("puts_per_thread must be positive")
        if self.gets_per_thread < 0:
            raise WorkloadError("gets_per_thread cannot be negative")
        if self.batch_ops < 1:
            raise WorkloadError(f"batch size must be positive: {self.batch_ops}")
        if not 0.0 <= self.compute_cycles_per_level < math.inf:
            raise WorkloadError(
                "compute cycles per level must be finite and non-negative: "
                f"{self.compute_cycles_per_level}"
            )
        layout_for(self)  # every layout rule, checked here


@dataclass
class KvStoreResult:
    """Output of one KV-store run."""

    config: KvStoreConfig
    put_phase_ns: float
    get_phase_ns: float
    total_puts: int
    total_gets: int
    #: Lookups whose value matched what was stored (functional check).
    verified_gets: int
    final_sizes: list[int] = field(default_factory=list)

    @property
    def puts_per_second(self) -> float:
        """Aggregate put throughput (the Figure 15/16 metric)."""
        if self.put_phase_ns <= 0:
            return 0.0
        return self.total_puts / self.put_phase_ns * 1e9

    @property
    def gets_per_second(self) -> float:
        """Aggregate get throughput."""
        if self.get_phase_ns <= 0:
            return 0.0
        return self.total_gets / self.get_phase_ns * 1e9


def _arena_bytes(config: KvStoreConfig) -> int:
    return layout_for(config).arena_bytes(config.puts_per_thread)


def _tree_traffic(ctx, arena, ops, shape, config, layout, is_put):
    """Charge one batch of tree operations to the memory system.

    One dependent node fetch per tree level (footprint = the level's
    node count), then one access to the value heap — the bulk footprint
    that misses the LLC on realistic store sizes.  *shape* is the tree's
    ``(level footprints, records)`` after the batch.
    """
    level_footprints, records = shape
    for footprint in level_footprints:
        yield MemBatch(
            arena,
            accesses=ops,
            pattern=PatternKind.RANDOM,
            footprint_bytes=min(footprint, arena.size_bytes),
            compute_cycles_per_access=config.compute_cycles_per_level,
            label="kv-level",
        )
    value_footprint = min(layout.value_footprint(records), arena.size_bytes)
    if is_put:
        yield MemBatch(
            arena,
            accesses=ops,
            pattern=PatternKind.RANDOM,
            footprint_bytes=value_footprint,
            is_store=True,
            label="kv-value-write",
        )
        if config.flush_writes:
            # Persist each put's value line, then a persistence barrier
            # for the batch (clflushopt + pcommit semantics; under the
            # pessimistic pflush model each line already stall-waited).
            yield from ctx.pflush(arena, lines=ops)
            yield Commit()
    else:
        yield MemBatch(
            arena,
            accesses=ops,
            pattern=PatternKind.RANDOM,
            footprint_bytes=value_footprint,
            label="kv-value-read",
        )


class _PutPhase(NamedTuple):
    """One thread's put phase: what its traffic and gets read."""

    key: tuple
    #: The thread's tree; nothing mutates it after the put phase.
    tree: BPlusTree
    #: ``(ops, (level footprints, records))`` after each batch's inserts.
    batches: tuple
    #: The ``kv-put`` stream's state after the key shuffle.
    rng_state: tuple


class _GetPhase(NamedTuple):
    verified: int
    #: The ``kv-get`` stream's state after the last lookup.
    rng_state: tuple


#: Put and get phases the memo keeps.  A run adds one entry per thread
#: and phase, and an LRU smaller than that never hits, so this is the
#: least bound at which every thread of an 8-thread reference/emulated
#: pair hits.  A put entry keeps its thread's tree, about 100 bytes a
#: key, so the memo holds at most 16 * 100 * ``puts_per_thread`` bytes.
PHASE_MEMO_LIMIT = 16

_PHASES = Memo(PHASE_MEMO_LIMIT)


def _put_phase(memo_key, config: KvStoreConfig, thread_index, rng) -> _PutPhase:
    layout = layout_for(config)
    tree = BPlusTree(order=config.node_order)
    keys = list(
        range(thread_index, thread_index + config.threads * config.puts_per_thread,
              config.threads)
    )
    rng.shuffle(keys)
    batches = []
    for done in range(0, len(keys), config.batch_ops):
        batch = keys[done : done + config.batch_ops]
        for key in batch:
            tree.insert(key, layout.value_checksum(key, thread_index))
        shape = (tuple(tree.level_footprints(config.node_bytes)), len(tree))
        batches.append((len(batch), shape))
    return _PutPhase(memo_key, tree, tuple(batches), rng.getstate())


def _get_phase(config: KvStoreConfig, put: _PutPhase, thread_index, rng) -> _GetPhase:
    layout = layout_for(config)
    key_space = config.threads * config.puts_per_thread
    verified = 0
    for _ in range(config.gets_per_thread):
        key = rng.randrange(key_space // config.threads) * config.threads
        key += thread_index
        if put.tree.get(key) == layout.value_checksum(key, thread_index):
            verified += 1
    return _GetPhase(verified, rng.getstate())


def _put_worker(ctx, config: KvStoreConfig, arena, thread_index, phases):
    rng = ctx.rng("kv-put")
    # Every config field the put phase reads.
    key = typed(
        config.threads, config.puts_per_thread, config.node_order,
        config.node_bytes, config.batch_ops, thread_index,
    ) + (rng.getstate(),)
    put = _PHASES.get(key, lambda: _put_phase(key, config, thread_index, rng))
    rng.setstate(put.rng_state)
    phases[thread_index] = put
    layout = layout_for(config)
    for ops, shape in put.batches:
        yield from _tree_traffic(ctx, arena, ops, shape, config, layout, is_put=True)
    return config.puts_per_thread


def _get_worker(ctx, config: KvStoreConfig, arena, thread_index, put: _PutPhase):
    rng = ctx.rng("kv-get")
    key = (put.key, *typed(config.gets_per_thread), rng.getstate())
    get = _PHASES.get(key, lambda: _get_phase(config, put, thread_index, rng))
    rng.setstate(get.rng_state)
    layout = layout_for(config)
    # Gets leave the tree as the last put batch left it.
    shape = put.batches[-1][1]
    done = 0
    while done < config.gets_per_thread:
        batch = min(config.batch_ops, config.gets_per_thread - done)
        yield from _tree_traffic(ctx, arena, batch, shape, config, layout, is_put=False)
        done += batch
    return get.verified


def kvstore_main_body(config: KvStoreConfig, out: dict):
    """Main-thread body: barrier-separated put and get phases."""

    def body(ctx):
        alloc = ctx.pmalloc if config.persistent else ctx.malloc
        arenas = [
            alloc(
                _arena_bytes(config),
                page_size=PageSize.HUGE_2M,
                label=f"kv-arena{index}",
            )
            for index in range(config.threads)
        ]
        # Each put worker files its phase here for its get worker.
        phases: list = [None] * config.threads
        # -- put phase ----------------------------------------------------
        put_start = ctx.now_ns
        workers = []
        for index in range(config.threads):
            workers.append(
                (
                    yield SpawnThread(
                        _put_worker,
                        name=f"kv-put{index}",
                        args=(config, arenas[index], index, phases),
                    )
                )
            )
        total_puts = 0
        for worker in workers:
            total_puts += yield JoinThread(worker)
        put_elapsed = ctx.now_ns - put_start
        # -- get phase ----------------------------------------------------
        get_start = ctx.now_ns
        workers = []
        for index in range(config.threads):
            workers.append(
                (
                    yield SpawnThread(
                        _get_worker,
                        name=f"kv-get{index}",
                        args=(config, arenas[index], index, phases[index]),
                    )
                )
            )
        verified = 0
        for worker in workers:
            verified += yield JoinThread(worker)
        get_elapsed = ctx.now_ns - get_start
        out["result"] = KvStoreResult(
            config=config,
            put_phase_ns=put_elapsed,
            get_phase_ns=get_elapsed,
            total_puts=total_puts,
            total_gets=config.threads * config.gets_per_thread,
            verified_gets=verified,
            final_sizes=[len(put.tree) for put in phases],
        )
        return out["result"]

    return body


# ----------------------------------------------------------------------
# Crash-checkable variant (repro.pmem)
# ----------------------------------------------------------------------


def committed_key_sequence(config: KvStoreConfig, thread_index: int) -> list:
    """The deterministic insertion order of one put worker.

    Shared by the workload body and :meth:`RecoverableKvStore.recover`
    so recovery can recompute exactly which keys the persisted header
    claims committed — a plain seeded shuffle, independent of thread
    names and simulator streams.
    """
    keys = list(
        range(
            thread_index,
            thread_index + config.threads * config.puts_per_thread,
            config.threads,
        )
    )
    random.Random(config.seed * 1_000_003 + thread_index).shuffle(keys)
    return keys


def _kv_arena_label(thread_index: int) -> str:
    return f"pmkv-{thread_index}"


def _kv_value_payload(key: int, thread_index: int) -> tuple:
    # The key codec is layout-independent (payloads are whole lines);
    # delegate to the shared layout so the codec has one definition.
    return KvRecordLayout().value_payload(key, thread_index)


def _pm_arena_bytes(config: KvStoreConfig) -> int:
    return layout_for(config).header_arena_bytes(config.puts_per_thread)


def _recoverable_put_worker(ctx, config, domain, mutant, thread_index):
    """Header-indexed durable log: line 0 counts committed puts, line
    ``1+i`` holds the i-th value.

    Correct protocol per batch: persist the values, *then* persist the
    header that makes them reachable.  The mutants break exactly that:
    ``missing-flush`` never flushes values, ``misordered-barrier``
    commits the header before them.
    """
    arena = ctx.pmalloc(
        _pm_arena_bytes(config),
        page_size=PageSize.HUGE_2M,
        label=_kv_arena_label(thread_index),
    )
    keys = committed_key_sequence(config, thread_index)
    done = 0
    while done < len(keys):
        batch = keys[done : done + config.batch_ops]
        first_line = 1 + done
        for offset, key in enumerate(batch):
            domain.record(
                arena, first_line + offset, _kv_value_payload(key, thread_index)
            )
        yield MemBatch(
            arena,
            accesses=len(batch),
            pattern=PatternKind.RANDOM,
            footprint_bytes=max(
                CACHE_LINE_BYTES,
                min(len(keys) * config.value_bytes, arena.size_bytes),
            ),
            is_store=True,
            label="pmkv-value-write",
        )
        if mutant is None:
            yield from ctx.pflush(arena, lines=len(batch), line=first_line)
            yield Commit()
        done += len(batch)
        domain.record(arena, 0, ("count", done))
        yield MemBatch(
            arena,
            accesses=1,
            pattern=PatternKind.RANDOM,
            footprint_bytes=CACHE_LINE_BYTES,
            is_store=True,
            label="pmkv-header-write",
        )
        yield from ctx.pflush(arena, lines=1, line=0)
        yield Commit()
        if mutant == "misordered-barrier":
            # The broken ordering: data persists only *after* the header
            # already claimed it — a crash in between loses committed keys.
            yield from ctx.pflush(arena, lines=len(batch), line=first_line)
            yield Commit()
    return done


def recoverable_kvstore_body(
    config: KvStoreConfig, out: dict, domain, mutant: Optional[str] = None
):
    """Body factory for the crash-checkable put phase."""

    def body(ctx):
        workers = []
        for index in range(config.threads):
            workers.append(
                (
                    yield SpawnThread(
                        _recoverable_put_worker,
                        name=f"pmkv-put{index}",
                        args=(config, domain, mutant, index),
                    )
                )
            )
        total = 0
        for worker in workers:
            total += yield JoinThread(worker)
        out["result"] = {
            "committed_puts": total,
            "threads": config.threads,
            "mutant": mutant,
        }
        return out["result"]

    return body


class RecoverableKvStore:
    """Crash-checkable KV store (see :mod:`repro.pmem.checker`)."""

    workload_id = "kvstore"

    def __init__(self, config: KvStoreConfig, mutant: Optional[str] = None):
        self.config = config
        self.mutant = mutant

    def invariants(self) -> tuple:
        return ("committed-prefix-durable",)

    def body_factory(self, domain, out: dict):
        return recoverable_kvstore_body(self.config, out, domain, self.mutant)

    def recover(self, image) -> list:
        """Restart-time check: every key the header commits is durable."""
        issues = []
        for thread_index in range(self.config.threads):
            lines = image.lines(_kv_arena_label(thread_index))
            header = lines.get(0)
            if header is None:
                continue  # nothing committed: trivially consistent
            committed = header[1]
            keys = committed_key_sequence(self.config, thread_index)
            for position in range(committed):
                expected = _kv_value_payload(keys[position], thread_index)
                got = lines.get(1 + position)
                if got != expected:
                    issues.append(
                        {
                            "invariant": "committed-prefix-durable",
                            "detail": (
                                f"thread {thread_index}: header commits "
                                f"{committed} put(s) but key "
                                f"{keys[position]} (line {1 + position}) "
                                f"holds {got!r}"
                            ),
                        }
                    )
        return issues

