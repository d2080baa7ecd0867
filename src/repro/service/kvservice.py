"""The trace-driven multi-tenant KV service over SimOS.

N simulated client threads (``clients_per_tenant`` per tenant) replay
seeded :mod:`~repro.service.traces` streams against a PM-resident store
fronted by the :mod:`~repro.service.cache` DRAM tier.  The store prices
operations the same way the MassTree microbenchmark does — a dependent
node fetch per index level plus a value-heap access, all derived from
the shared :class:`~repro.workloads.kvstore.KvRecordLayout` — but keeps
a *versions* map as the authoritative value store, so cache hits are
verified for coherence, not just counted.

Caching is write-back: an update that hits only dirties the DRAM copy;
persistent-memory writes happen on misses, on dirty evictions, and in
the final drain.  Every persistent value write is followed by
``pflush`` + ``pcommit`` when ``flush_writes`` is set, which is what
makes the service sensitive to Quartz's emulated NVM write latency.

Per-operation latency lands in fixed-bucket log-spaced histograms (one
per tenant), from which :class:`ServiceResult` reports nearest-rank
p50/p95/p99/p999 and throughput per tenant and overall.  Fixed bucket
bounds make histogram merging and the derived tails exactly
reproducible — byte-identical across ``--jobs`` values.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from repro.errors import WorkloadError
from repro.hw.topology import PageSize
from repro.ops import Commit, Compute, JoinThread, MemBatch, PatternKind, Sleep, SpawnThread
from repro.service.cache import CacheConfig, DramCache
from repro.service.traces import TraceConfig, TraceOp, client_ops, operation_stream
from repro.stats_util import nearest_rank_index
from repro.units import CACHE_LINE_BYTES
from repro.workloads.kvstore import KvRecordLayout

#: The percentiles every tenant report carries (name -> fraction).
REPORTED_PERCENTILES = (
    ("p50_ns", 0.50),
    ("p95_ns", 0.95),
    ("p99_ns", 0.99),
    ("p999_ns", 0.999),
)


def _histogram_bounds() -> tuple:
    """Fixed log-spaced latency bucket upper bounds, in nanoseconds.

    8 buckets per decade from 16 ns to ~100 ms, integer and strictly
    increasing.  Shared by every histogram so merges are index-aligned.
    """
    bounds = []
    value = 16.0
    factor = 10.0 ** (1.0 / 8.0)
    while value <= 1.2e8:
        bound = round(value)
        if bounds and bound <= bounds[-1]:
            bound = bounds[-1] + 1
        bounds.append(bound)
        value *= factor
    return tuple(bounds)


HISTOGRAM_BOUNDS = _histogram_bounds()


class LatencyHistogram:
    """Fixed-bucket latency histogram with nearest-rank percentiles.

    A sample is recorded into the first bucket whose bound is >= the
    sample (the last bucket saturates).  Percentiles return the bucket
    *bound* — a deterministic, merge-stable upper estimate of the true
    nearest-rank sample.
    """

    __slots__ = ("counts", "count")

    def __init__(self, counts: Optional[list] = None):
        self.counts = counts if counts is not None else [0] * len(HISTOGRAM_BOUNDS)
        self.count = sum(self.counts)

    def record(self, latency_ns: float) -> None:
        index = bisect_left(HISTOGRAM_BOUNDS, latency_ns)
        if index >= len(HISTOGRAM_BOUNDS):
            index = len(HISTOGRAM_BOUNDS) - 1
        self.counts[index] += 1
        self.count += 1

    def merge(self, other: "LatencyHistogram") -> None:
        for index, value in enumerate(other.counts):
            self.counts[index] += value
        self.count += other.count

    def percentile(self, fraction: float) -> Optional[float]:
        if self.count == 0:
            return None
        rank = nearest_rank_index(self.count, fraction)
        cumulative = 0
        for bound, bucket in zip(HISTOGRAM_BOUNDS, self.counts):
            cumulative += bucket
            if rank < cumulative:
                return float(bound)
        return float(HISTOGRAM_BOUNDS[-1])

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "buckets": {
                str(bound): bucket
                for bound, bucket in zip(HISTOGRAM_BOUNDS, self.counts)
                if bucket
            },
        }


@dataclass(frozen=True)
class ServiceConfig:
    """Everything one service run depends on."""

    trace: TraceConfig = TraceConfig()
    cache: CacheConfig = CacheConfig()
    #: Concurrent client threads per tenant.
    clients_per_tenant: int = 1
    #: Record/index shape shared with the KV-store microbenchmark.
    layout: KvRecordLayout = KvRecordLayout()
    #: Request parse/dispatch CPU cost per operation.
    compute_cycles_per_op: float = 300.0
    #: Key-comparison work per index level visit (matches the
    #: microbenchmark's default).
    compute_cycles_per_level: float = 180.0
    #: Persist every PM value write with pflush + pcommit.
    flush_writes: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.clients_per_tenant < 1:
            raise WorkloadError(
                f"need at least one client per tenant: {self.clients_per_tenant}"
            )
        if not 0 <= self.compute_cycles_per_op < math.inf:
            raise WorkloadError(
                "per-op compute must be finite and non-negative: "
                f"{self.compute_cycles_per_op}"
            )
        if not 0 <= self.compute_cycles_per_level < math.inf:
            raise WorkloadError(
                "per-level compute must be finite and non-negative: "
                f"{self.compute_cycles_per_level}"
            )

    def to_dict(self) -> dict:
        return {
            "trace": self.trace.to_dict(),
            "cache": self.cache.to_dict(),
            "clients_per_tenant": self.clients_per_tenant,
            "layout": self.layout.to_dict(),
            "compute_cycles_per_op": self.compute_cycles_per_op,
            "compute_cycles_per_level": self.compute_cycles_per_level,
            "flush_writes": self.flush_writes,
            "seed": self.seed,
        }


@dataclass
class ServiceResult:
    """Output of one service run (plain data; picklable across workers)."""

    config: dict
    duration_ns: float
    tenant_reports: dict
    overall: dict
    cache_report: dict

    def report(self) -> dict:
        """The JSON-safe summary carried by runner results and manifests."""
        return {
            "duration_ns": self.duration_ns,
            "tenants": self.tenant_reports,
            "overall": self.overall,
            "cache": self.cache_report,
        }


class _TenantLedger:
    """Per-tenant functional counters (distinct from cache accounting)."""

    __slots__ = ("ops", "kinds", "verified_reads", "scanned_records", "histogram")

    def __init__(self) -> None:
        self.ops = 0
        self.kinds: dict = {}
        self.verified_reads = 0
        self.scanned_records = 0
        self.histogram = LatencyHistogram()


class _ServiceRuntime:
    """Shared run state: cache, authoritative store, arenas, ledgers.

    One instance is shared by every client thread of the run.  The DES
    interleaves clients cooperatively, so plain Python state is safe;
    all *timing* flows through the ops the helpers yield.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        trace = config.trace
        self.cache = DramCache(config.cache, trace.tenants)
        #: tenant -> {key -> version}; an absent key is at version 0.
        self.versions: dict = {t: {} for t in range(trace.tenants)}
        self.ledgers = {t: _TenantLedger() for t in range(trace.tenants)}
        layout = config.layout
        self.level_footprints = layout.level_footprints(trace.keys_per_tenant)
        self.value_footprint = layout.value_footprint(trace.keys_per_tenant)
        self.lines_per_value = max(1, layout.value_bytes // CACHE_LINE_BYTES)
        self.arenas: dict = {}
        self.cache_arena = None
        self.dispatch = Compute(config.compute_cycles_per_op, label="svc-dispatch")
        self.commit = Commit()

    # -- placement ------------------------------------------------------
    def allocate(self, ctx) -> None:
        """Place the arenas, then build the ops every point operation
        yields: they depend only on the config and the arenas, so each
        is built once and re-yielded (ops are immutable values)."""
        layout = self.config.layout
        keys = self.config.trace.keys_per_tenant
        for tenant in range(self.config.trace.tenants):
            self.arenas[tenant] = ctx.pmalloc(
                layout.arena_bytes(keys),
                page_size=PageSize.HUGE_2M,
                label=f"svc-store{tenant}",
            )
        self.cache_arena = ctx.malloc(
            self.config.cache.arena_bytes,
            page_size=PageSize.HUGE_2M,
            label="svc-cache",
        )
        #: tenant -> one dependent node fetch per index level.
        self.index_walks: dict = {}
        #: tenant -> the value-heap load / store of one record.
        self.value_reads: dict = {}
        self.value_writes: dict = {}
        for tenant, arena in self.arenas.items():
            self.index_walks[tenant] = tuple(
                MemBatch(
                    arena,
                    accesses=1,
                    pattern=PatternKind.RANDOM,
                    footprint_bytes=min(footprint, arena.size_bytes),
                    compute_cycles_per_access=self.config.compute_cycles_per_level,
                    label="svc-level",
                )
                for footprint in self.level_footprints
            )
            value_footprint = min(self.value_footprint, arena.size_bytes)
            self.value_reads[tenant] = MemBatch(
                arena,
                accesses=1,
                pattern=PatternKind.RANDOM,
                footprint_bytes=value_footprint,
                label="svc-value-read",
            )
            self.value_writes[tenant] = MemBatch(
                arena,
                accesses=1,
                pattern=PatternKind.RANDOM,
                footprint_bytes=value_footprint,
                is_store=True,
                label="svc-value-write",
            )
        self.load_probe, self.store_probe = (
            MemBatch(
                self.cache_arena,
                accesses=1,
                pattern=PatternKind.RANDOM,
                footprint_bytes=self.cache_arena.size_bytes,
                is_store=store,
                label="svc-cache-probe",
            )
            for store in (False, True)
        )

    # -- authoritative values -------------------------------------------
    def current_value(self, tenant: int, key: int) -> tuple:
        return (key, self.versions[tenant].get(key, 0))

    def bump_value(self, tenant: int, key: int) -> tuple:
        version = self.versions[tenant].get(key, 0) + 1
        self.versions[tenant][key] = version
        return (key, version)

    # -- priced store paths (generators yielding ops) --------------------
    # A plain ``for`` re-yields each prebuilt op: ``yield from`` a tuple
    # fails, as a tuple iterator cannot take the OpResult sent back.
    def _index_walk(self, tenant: int):
        for batch in self.index_walks[tenant]:
            yield batch

    def _value_write(self, ctx, tenant: int):
        yield self.value_writes[tenant]
        if self.config.flush_writes:
            yield from ctx.pflush(self.arenas[tenant], lines=self.lines_per_value)
            yield self.commit

    def writeback_traffic(self, ctx, evicted):
        """Charge PM writeback traffic for evicted *dirty* entries.

        Billed to the evicting client's timeline (it performed the
        eviction), against the evicted entry's owner arena.
        """
        for entry in evicted:
            if not entry.dirty:
                continue
            yield from self._value_write(ctx, entry.tenant)

    # -- one operation ---------------------------------------------------
    def perform(self, ctx, op: TraceOp):
        config = self.config
        tenant = op.tenant
        ledger = self.ledgers[tenant]
        yield self.dispatch
        if op.kind == "scan":
            # Range scans bypass the point cache: walk the index to the
            # start key, then stream scan_len records sequentially.
            yield from self._index_walk(tenant)
            arena = self.arenas[tenant]
            yield MemBatch(
                arena,
                accesses=op.scan_len * self.lines_per_value,
                pattern=PatternKind.SEQUENTIAL,
                footprint_bytes=min(
                    max(CACHE_LINE_BYTES, op.scan_len * config.layout.value_bytes),
                    arena.size_bytes,
                ),
                label="svc-scan",
            )
            ledger.scanned_records += op.scan_len
            return
        if op.kind in ("read", "rmw"):
            hit, cached = self.cache.lookup(tenant, op.key)
            if hit:
                yield self.load_probe
                if cached == self.current_value(tenant, op.key):
                    ledger.verified_reads += 1
            else:
                yield from self._index_walk(tenant)
                yield self.value_reads[tenant]
                value = self.current_value(tenant, op.key)
                ledger.verified_reads += 1
                evicted = self.cache.insert(tenant, op.key, value, dirty=False)
                yield from self.writeback_traffic(ctx, evicted)
            if op.kind == "read":
                return
        if op.kind in ("update", "rmw"):
            value = self.bump_value(tenant, op.key)
            if self.cache.write(tenant, op.key, value):
                # Write-back: only the DRAM copy changes now.
                yield self.store_probe
            else:
                # Miss: write through to PM, then admit the clean copy.
                yield from self._index_walk(tenant)
                yield from self._value_write(ctx, tenant)
                evicted = self.cache.insert(tenant, op.key, value, dirty=False)
                yield from self.writeback_traffic(ctx, evicted)
            return
        if op.kind == "insert":
            # Blind insert: write through to PM (no probe), admit clean.
            value = self.bump_value(tenant, op.key)
            yield from self._index_walk(tenant)
            yield from self._value_write(ctx, tenant)
            evicted = self.cache.insert(tenant, op.key, value, dirty=False)
            yield from self.writeback_traffic(ctx, evicted)
            return

    def drain(self, ctx):
        """End-of-run flush of every dirty cache entry to PM."""
        yield from self.writeback_traffic(ctx, self.cache.drain_dirty())

    # -- reporting -------------------------------------------------------
    def result(self, elapsed_ns: float) -> ServiceResult:
        overall_hist = LatencyHistogram()
        tenant_reports = {}
        total_ops = 0
        for tenant in sorted(self.ledgers):
            ledger = self.ledgers[tenant]
            overall_hist.merge(ledger.histogram)
            total_ops += ledger.ops
            report = {
                "ops": ledger.ops,
                "kinds": dict(sorted(ledger.kinds.items())),
                "verified_reads": ledger.verified_reads,
                "scanned_records": ledger.scanned_records,
                "throughput_ops_s": (
                    ledger.ops / elapsed_ns * 1e9 if elapsed_ns > 0 else 0.0
                ),
                "cache": self.cache.stats[tenant].to_dict(),
                "histogram": ledger.histogram.to_dict(),
            }
            for name, fraction in REPORTED_PERCENTILES:
                report[name] = ledger.histogram.percentile(fraction)
            tenant_reports[f"t{tenant}"] = report
        overall = {
            "ops": total_ops,
            "throughput_ops_s": (
                total_ops / elapsed_ns * 1e9 if elapsed_ns > 0 else 0.0
            ),
            "histogram": overall_hist.to_dict(),
        }
        for name, fraction in REPORTED_PERCENTILES:
            overall[name] = overall_hist.percentile(fraction)
        return ServiceResult(
            config=self.config.to_dict(),
            duration_ns=elapsed_ns,
            tenant_reports=tenant_reports,
            overall=overall,
            cache_report=self.cache.report(),
        )


def _client_worker(ctx, config: ServiceConfig, runtime: _ServiceRuntime,
                   tenant: int, client: int):
    """One client thread: replay its trace share, timing every op."""
    trace = config.trace
    count = client_ops(trace, config.clients_per_tenant, client)
    ledger = runtime.ledgers[tenant]
    for op in operation_stream(trace, tenant, client, count):
        if op.gap_ns > 0:
            yield Sleep(op.gap_ns)
        start = ctx.now_ns
        yield from runtime.perform(ctx, op)
        ledger.histogram.record(ctx.now_ns - start)
        ledger.ops += 1
        ledger.kinds[op.kind] = ledger.kinds.get(op.kind, 0) + 1
    return count


def kvservice_main_body(config: ServiceConfig, out: dict):
    """Main-thread body: spawn all clients, join, drain, verify, report."""

    def body(ctx):
        runtime = _ServiceRuntime(config)
        runtime.allocate(ctx)
        start = ctx.now_ns
        workers = []
        for tenant in range(config.trace.tenants):
            for client in range(config.clients_per_tenant):
                workers.append(
                    (
                        yield SpawnThread(
                            _client_worker,
                            name=f"svc{tenant}-{client}",
                            args=(config, runtime, tenant, client),
                        )
                    )
                )
        for worker in workers:
            yield JoinThread(worker)
        yield from runtime.drain(ctx)
        elapsed = ctx.now_ns - start
        # Conservation check runs on every path — including faulted runs.
        runtime.cache.verify_accounting()
        out["result"] = runtime.result(elapsed)
        return out["result"]

    return body
