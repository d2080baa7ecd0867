"""The KV service end-to-end: histograms, runner integration, faults."""

import json
import math
import random
from dataclasses import replace

import pytest

from repro.errors import WorkloadError
from repro.faults import FaultPlan, active_faults
from repro.hw import IVY_BRIDGE, Machine
from repro.hw.topology import MemoryRegion, PageSize
from repro.ops import Commit, Compute, Flush, MemBatch, OpResult, PatternKind
from repro.os import SimOS, Signal
from repro.quartz.config import QuartzConfig
from repro.service import CacheConfig, LatencyHistogram, ServiceConfig, TraceConfig
from repro.service.kvservice import (
    HISTOGRAM_BOUNDS,
    REPORTED_PERCENTILES,
    _ServiceRuntime,
)
from repro.service.traces import OP_KINDS, TraceOp
from repro.sim import Simulator
from repro.units import CACHE_LINE_BYTES, MILLISECOND
from repro.validation.experiments.service import run_service_latency
from repro.validation.runner import RunSpec, reset_run_stats, run_specs
from repro.workloads.kvstore import KvRecordLayout

SIGTEST = 40

SMALL_TRACE = TraceConfig(
    tenants=2, ops_per_tenant=150, keys_per_tenant=2_000, mix="ycsb-a", seed=5
)
SMALL_SERVICE = ServiceConfig(
    trace=SMALL_TRACE, cache=CacheConfig(capacity=128), clients_per_tenant=2
)


def _spec(config: ServiceConfig = SMALL_SERVICE, seed: int = 9) -> RunSpec:
    return RunSpec(
        workload="kvservice",
        config=config,
        arch_name=IVY_BRIDGE.name,
        mode="service",
        seed=seed,
        quartz=QuartzConfig(
            nvm_read_latency_ns=400.0,
            nvm_write_latency_ns=800.0,
            max_epoch_ns=1.0 * MILLISECOND,
        ),
    )


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------


def test_histogram_bounds_are_increasing_integers():
    assert all(isinstance(bound, int) for bound in HISTOGRAM_BOUNDS)
    assert list(HISTOGRAM_BOUNDS) == sorted(set(HISTOGRAM_BOUNDS))
    assert HISTOGRAM_BOUNDS[0] == 16
    assert HISTOGRAM_BOUNDS[-1] >= 1e8


def test_histogram_percentiles_are_bucket_bounds():
    histogram = LatencyHistogram()
    for latency in (10.0, 100.0, 1_000.0, 10_000.0):
        histogram.record(latency)
    assert histogram.count == 4
    for _name, fraction in REPORTED_PERCENTILES:
        value = histogram.percentile(fraction)
        assert value in [float(bound) for bound in HISTOGRAM_BOUNDS]
    # Percentiles never decrease in the fraction.
    ladder = [histogram.percentile(f) for f in (0.1, 0.5, 0.9, 0.999)]
    assert ladder == sorted(ladder)


def test_histogram_saturates_and_merges():
    histogram = LatencyHistogram()
    histogram.record(9e99)  # beyond the last bound: clamps, never raises
    assert histogram.percentile(0.5) == float(HISTOGRAM_BOUNDS[-1])
    other = LatencyHistogram()
    other.record(20.0)
    other.record(20.0)
    histogram.merge(other)
    assert histogram.count == 3
    assert histogram.percentile(0.5) == pytest.approx(20.0, abs=5.0)
    payload = histogram.to_dict()
    assert payload["count"] == 3
    assert sum(payload["buckets"].values()) == 3  # sparse: only non-empty


def test_histogram_empty_percentile_is_none():
    assert LatencyHistogram().percentile(0.99) is None


def test_service_config_validation():
    with pytest.raises(WorkloadError):
        ServiceConfig(clients_per_tenant=0)
    with pytest.raises(WorkloadError):
        ServiceConfig(compute_cycles_per_op=-1.0)
    with pytest.raises(WorkloadError):
        ServiceConfig(compute_cycles_per_level=-1.0)
    for value in (math.nan, math.inf):
        with pytest.raises(WorkloadError):
            ServiceConfig(compute_cycles_per_op=value)
        with pytest.raises(WorkloadError):
            ServiceConfig(compute_cycles_per_level=value)


# ----------------------------------------------------------------------
# End-to-end through the runner
# ----------------------------------------------------------------------


def test_service_run_reports_per_tenant_tails():
    reset_run_stats()
    [run] = run_specs([_spec()], jobs=1)
    report = run.reports["service"]
    assert set(report) == {"duration_ns", "tenants", "overall", "cache"}
    assert sorted(report["tenants"]) == ["t0", "t1"]
    for summary in report["tenants"].values():
        assert summary["ops"] == SMALL_TRACE.ops_per_tenant
        assert summary["throughput_ops_s"] > 0
        tail = [summary[name] for name, _ in REPORTED_PERCENTILES]
        assert all(value is not None for value in tail)
        assert tail == sorted(tail)
    overall = report["overall"]
    assert overall["ops"] == SMALL_TRACE.tenants * SMALL_TRACE.ops_per_tenant
    totals = report["cache"]["totals"]
    assert totals["hits"] + totals["misses"] == totals["lookups"]
    assert report["cache"]["resident"] <= SMALL_SERVICE.cache.capacity


def test_service_report_is_byte_identical_across_worker_counts():
    reset_run_stats()
    specs = [_spec(seed=seed) for seed in (1, 2, 3)]
    sequential = run_specs(specs, jobs=1)
    parallel = run_specs(specs, jobs=3)
    for seq, par in zip(sequential, parallel):
        assert json.dumps(seq.reports["service"], sort_keys=True) == json.dumps(
            par.reports["service"], sort_keys=True
        )


def test_service_accounting_holds_under_faults():
    # kvservice_main_body calls verify_accounting() on every completed
    # run, so a clean exit *is* the invariant check; arming
    # check_invariants additionally turns any breakage into a hard
    # InvariantViolation rather than a logged warning.
    plan = FaultPlan(
        seed=11,
        timer_jitter_rel=0.01,
        signal_delay_ns=20_000.0,
        signal_delay_p=0.25,
        monitor_miss_p=0.1,
        counter_stale_p=0.05,
    )
    reset_run_stats()
    with active_faults(plan, check_invariants=True):
        [run] = run_specs([_spec()], jobs=1)
    assert run.reports["invariants"]["violations"] == 0
    totals = run.reports["service"]["cache"]["totals"]
    assert totals["hits"] + totals["misses"] == totals["lookups"]


def test_reads_verify_against_authoritative_store():
    # Every cache hit and every PM read is checked against the
    # authoritative version map inside the run; verified_reads counts
    # the PM-side checks, so a nonzero value proves coherence was
    # actually exercised.
    reset_run_stats()
    [run] = run_specs([_spec()], jobs=1)
    verified = sum(
        summary["verified_reads"]
        for summary in run.reports["service"]["tenants"].values()
    )
    assert verified > 0


def test_higher_nvm_latency_slows_the_service():
    reset_run_stats()
    fast_spec = _spec()
    slow_spec = RunSpec(
        workload="kvservice",
        config=SMALL_SERVICE,
        arch_name=IVY_BRIDGE.name,
        mode="service",
        seed=9,
        quartz=QuartzConfig(
            nvm_read_latency_ns=1_600.0,
            nvm_write_latency_ns=3_200.0,
            max_epoch_ns=1.0 * MILLISECOND,
        ),
    )
    fast_run, slow_run = run_specs([fast_spec, slow_spec], jobs=1)
    assert (
        slow_run.reports["service"]["overall"]["p99_ns"]
        > fast_run.reports["service"]["overall"]["p99_ns"]
    )
    assert (
        slow_run.reports["service"]["overall"]["throughput_ops_s"]
        < fast_run.reports["service"]["overall"]["throughput_ops_s"]
    )


# ----------------------------------------------------------------------
# Prebuilt ops: every point operation re-yields ops built once per run
# ----------------------------------------------------------------------


def _count_membatches(monkeypatch, ops_per_tenant: int) -> int:
    built = []
    validate = MemBatch.__post_init__

    def counting(batch):
        built.append(batch.label)
        validate(batch)

    trace = TraceConfig(
        tenants=2, ops_per_tenant=ops_per_tenant, keys_per_tenant=5_000,
        mix="ycsb-a", seed=1200,
    )
    with monkeypatch.context() as patch:
        patch.setattr(MemBatch, "__post_init__", counting)
        run_service_latency(latency_pairs=((400.0, 800.0),), trace=trace, jobs=1)
    return len(built)


def test_membatch_constructions_do_not_grow_with_the_trace(monkeypatch):
    _count_membatches(monkeypatch, 300)  # warm the calibration cache
    short = _count_membatches(monkeypatch, 300)
    long = _count_membatches(monkeypatch, 600)
    assert short == long
    # Per tenant: one batch per index level, a value read and a value
    # write; plus the load and store cache probes.
    levels = len(KvRecordLayout().level_footprints(5_000))
    assert short == 2 * (levels + 2) + 2


class _Ctx:
    """Just enough of a thread context to place arenas and flush lines."""

    def __init__(self):
        self.base = 0

    def _region(self, size_bytes, page_size, label, persistent):
        region = MemoryRegion(
            node=0, size_bytes=size_bytes, base=self.base,
            page_size=page_size, label=label, persistent=persistent,
        )
        self.base += size_bytes
        return region

    def malloc(self, size_bytes, page_size=PageSize.SMALL_4K, label=""):
        return self._region(size_bytes, page_size, label, False)

    def pmalloc(self, size_bytes, page_size=PageSize.SMALL_4K, label=""):
        return self._region(size_bytes, page_size, label, True)

    def pflush(self, region, lines=1, line=None):
        result = yield Flush(region, lines=lines, label="pflush", line=line)
        return result


def _per_op_value_write(runtime, ctx, owner):
    arena = runtime.arenas[owner]
    yield MemBatch(
        arena,
        accesses=1,
        pattern=PatternKind.RANDOM,
        footprint_bytes=min(runtime.value_footprint, arena.size_bytes),
        is_store=True,
        label="svc-value-write",
    )
    if runtime.config.flush_writes:
        yield from ctx.pflush(arena, lines=runtime.lines_per_value)
        yield Commit()


def _per_op_writeback(runtime, ctx, evicted):
    for entry in evicted:
        if entry.dirty:
            yield from _per_op_value_write(runtime, ctx, entry.tenant)


def _per_op_perform(runtime, ctx, op):
    """The service's op stream with every op built per call: the oracle."""
    config = runtime.config
    tenant = op.tenant
    ledger = runtime.ledgers[tenant]

    def index_walk():
        arena = runtime.arenas[tenant]
        for footprint in runtime.level_footprints:
            yield MemBatch(
                arena,
                accesses=1,
                pattern=PatternKind.RANDOM,
                footprint_bytes=min(footprint, arena.size_bytes),
                compute_cycles_per_access=config.compute_cycles_per_level,
                label="svc-level",
            )

    def cache_probe(store=False):
        yield MemBatch(
            runtime.cache_arena,
            accesses=1,
            pattern=PatternKind.RANDOM,
            footprint_bytes=runtime.cache_arena.size_bytes,
            is_store=store,
            label="svc-cache-probe",
        )

    def value_read():
        arena = runtime.arenas[tenant]
        yield MemBatch(
            arena,
            accesses=1,
            pattern=PatternKind.RANDOM,
            footprint_bytes=min(runtime.value_footprint, arena.size_bytes),
            label="svc-value-read",
        )

    yield Compute(config.compute_cycles_per_op, label="svc-dispatch")
    if op.kind == "scan":
        yield from index_walk()
        arena = runtime.arenas[tenant]
        yield MemBatch(
            arena,
            accesses=op.scan_len * runtime.lines_per_value,
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
        hit, cached = runtime.cache.lookup(tenant, op.key)
        if hit:
            yield from cache_probe()
        else:
            yield from index_walk()
            yield from value_read()
            value = runtime.current_value(tenant, op.key)
            evicted = runtime.cache.insert(tenant, op.key, value, dirty=False)
            yield from _per_op_writeback(runtime, ctx, evicted)
        if op.kind == "read":
            return
    if op.kind in ("update", "rmw"):
        value = runtime.bump_value(tenant, op.key)
        if runtime.cache.write(tenant, op.key, value):
            yield from cache_probe(store=True)
        else:
            yield from index_walk()
            yield from _per_op_value_write(runtime, ctx, tenant)
            evicted = runtime.cache.insert(tenant, op.key, value, dirty=False)
            yield from _per_op_writeback(runtime, ctx, evicted)
        return
    if op.kind == "insert":
        value = runtime.bump_value(tenant, op.key)
        yield from index_walk()
        yield from _per_op_value_write(runtime, ctx, tenant)
        evicted = runtime.cache.insert(tenant, op.key, value, dirty=False)
        yield from _per_op_writeback(runtime, ctx, evicted)


def _yielded(stream) -> list:
    """Every op *stream* yields, answering each with an OpResult as the
    dispatcher does (a non-None send, which a bare tuple iterator fails)."""
    ops = []
    try:
        op = next(stream)
        while True:
            ops.append(op)
            op = stream.send(OpResult(op, 0.0))
    except StopIteration:
        return ops


def test_prebuilt_ops_equal_the_per_op_oracle_for_every_kind():
    config = ServiceConfig(
        trace=TraceConfig(tenants=2, ops_per_tenant=10, keys_per_tenant=2_000),
        cache=CacheConfig(capacity=4),
    )
    ctx = _Ctx()
    runtime = _ServiceRuntime(config)
    runtime.allocate(ctx)
    oracle = _ServiceRuntime(config)
    oracle.arenas = runtime.arenas
    oracle.cache_arena = runtime.cache_arena
    prebuilt = [runtime.dispatch, runtime.load_probe, runtime.store_probe]
    for tenant in runtime.arenas:
        prebuilt.extend(runtime.index_walks[tenant])
        prebuilt += [runtime.value_reads[tenant], runtime.value_writes[tenant]]
    rng = random.Random(7)
    labels = {kind: set() for kind in OP_KINDS}
    for _ in range(400):
        kind = rng.choice(OP_KINDS)
        scan_len = rng.randint(1, 8) if kind == "scan" else 1
        op = TraceOp(rng.randrange(2), kind, rng.randrange(12), scan_len, 0.0)
        expected = _yielded(_per_op_perform(oracle, ctx, op))
        actual = _yielded(runtime.perform(ctx, op))
        assert actual == expected
        labels[kind].update(getattr(o, "label", "") for o in expected)
        # Only a scan's own batch depends on the op; the rest are reused.
        assert all(
            any(o is built for built in prebuilt)
            for o in actual
            if isinstance(o, (Compute, MemBatch)) and o.label != "svc-scan"
        )
    # Reads both hit and miss, and a miss evicted a dirty entry.
    assert {"svc-cache-probe", "svc-value-read", "svc-value-write"} <= labels["read"]
    assert "svc-scan" in labels["scan"]
    drained = _yielded(runtime.drain(ctx))
    assert drained
    assert drained == _yielded(
        _per_op_writeback(oracle, ctx, oracle.cache.drain_dirty())
    )


def test_a_signal_inside_a_prebuilt_batch_leaves_it_whole():
    os = SimOS(Machine(Simulator(seed=1), IVY_BRIDGE))
    config = ServiceConfig(
        trace=TraceConfig(tenants=1, ops_per_tenant=2, keys_per_tenant=2_000),
        flush_writes=False,
    )
    runtime = _ServiceRuntime(config)
    executed = []
    armed = []
    handled = []

    def observe(thread, op):
        executed.append(op)
        if getattr(op, "label", "") == "svc-level" and not armed:
            # Lands 1 ns into the first index-level fetch.
            armed.append(op)
            os.sim.schedule(1.0, lambda: os.post_signal(thread, Signal(SIGTEST)))

    def handler(thread, signal):
        handled.append(os.sim.now)
        return
        yield  # pragma: no cover - makes this a generator

    os.signal_handlers[SIGTEST] = handler
    os.hooks.subscribe("op", observe)
    snapshots = []

    def body(ctx):
        runtime.allocate(ctx)
        snapshots.extend(replace(batch) for batch in runtime.index_walks[0])
        yield from runtime.perform(ctx, TraceOp(0, "read", 1, 1, 0.0))
        executed.append("next")
        yield from runtime.perform(ctx, TraceOp(0, "read", 2, 1, 0.0))

    os.create_thread(body)
    os.run_to_completion()
    walk = runtime.index_walks[0]
    assert len(handled) == 1  # the signal was taken mid-batch
    assert list(walk) == snapshots  # the shared batches are unchanged
    first, rest = executed[1], executed[2]
    assert first is walk[0]
    assert rest is not walk[0] and rest == walk[0]  # split off a new op
    # The next operation walks the index with the prebuilt, full batches.
    following = executed[executed.index("next") + 1:]
    assert following[1:1 + len(walk)] == list(walk)
    assert all(a is b for a, b in zip(following[1:], walk))
