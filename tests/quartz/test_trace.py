"""Tests for the epoch-trace instrumentation."""

import pytest

from repro.errors import QuartzError
from repro.hw import IVY_BRIDGE, Machine
from repro.hw.topology import PageSize
from repro.ops import MemBatch, MutexLock, MutexUnlock, PatternKind
from repro.os import Mutex, SimOS
from repro.quartz import Quartz, QuartzConfig, calibrate_arch
from repro.quartz.stats import EpochTrigger
from repro.quartz.trace import EpochRecord, EpochTrace, attach_trace
from repro.sim import Simulator
from repro.units import GIB, MILLISECOND


def run_traced(body, config=None, seed=2):
    sim = Simulator(seed=seed)
    machine = Machine(sim, IVY_BRIDGE)
    osys = SimOS(machine)
    quartz = Quartz(
        osys,
        config or QuartzConfig(
            nvm_read_latency_ns=500.0, max_epoch_ns=0.2 * MILLISECOND
        ),
        calibration=calibrate_arch(IVY_BRIDGE),
    )
    quartz.attach()
    trace = attach_trace(quartz)
    osys.create_thread(body, name="traced")
    osys.run_to_completion()
    return trace, quartz


def chase_body(ctx):
    region = ctx.pmalloc(2 * GIB, page_size=PageSize.HUGE_2M)
    yield MemBatch(region, 80_000, PatternKind.CHASE)


def test_trace_requires_attached_emulator():
    sim = Simulator(seed=1)
    machine = Machine(sim, IVY_BRIDGE)
    quartz = Quartz(
        SimOS(machine), QuartzConfig(), calibration=calibrate_arch(IVY_BRIDGE)
    )
    with pytest.raises(QuartzError, match="attach the emulator"):
        attach_trace(quartz)


def test_trace_records_monitor_epochs():
    trace, quartz = run_traced(chase_body)
    assert len(trace) == quartz.stats.epochs_total
    monitor_records = trace.by_trigger(EpochTrigger.MONITOR)
    assert len(monitor_records) > 5
    assert trace.by_trigger(EpochTrigger.EXIT)
    # Epoch lengths cluster around the configured maximum.
    stats = trace.epoch_length_stats()
    assert 0.15e6 < stats.mean < 0.5e6


def test_trace_records_sync_epochs():
    def body(ctx):
        mutex = Mutex(ctx.os)
        region = ctx.pmalloc(2 * GIB, page_size=PageSize.HUGE_2M)
        for _ in range(5):
            yield MutexLock(mutex)
            yield MemBatch(region, 5_000, PatternKind.CHASE)
            yield MutexUnlock(mutex)

    trace, _ = run_traced(
        body,
        config=QuartzConfig(nvm_read_latency_ns=500.0, min_epoch_ns=0.0),
    )
    assert len(trace.by_trigger(EpochTrigger.SYNC)) >= 5


def test_trace_totals_track_stats():
    trace, quartz = run_traced(chase_body)
    computed = sum(r.delay_computed_ns for r in trace.records)
    assert computed == pytest.approx(quartz.stats.delay_computed_ns, rel=1e-6)
    assert 0.9 <= trace.injection_ratio() <= 1.0


def test_trace_injected_delay_equals_stats():
    # Short sync epochs leave part of each close's own overhead in the
    # amortisation pool; the trace must record exactly what was injected.
    def body(ctx):
        mutex = Mutex(ctx.os)
        region = ctx.pmalloc(2 * GIB, page_size=PageSize.HUGE_2M)
        for _ in range(200):
            yield MutexLock(mutex)
            yield MemBatch(region, 50, PatternKind.CHASE)
            yield MutexUnlock(mutex)

    trace, quartz = run_traced(
        body,
        config=QuartzConfig(nvm_read_latency_ns=500.0, min_epoch_ns=0.0),
    )
    assert len(trace.by_trigger(EpochTrigger.SYNC)) >= 200
    assert trace.total_injected_ns == pytest.approx(
        quartz.stats.delay_injected_ns, rel=1e-12
    )


def test_trace_by_thread_filters():
    trace, _ = run_traced(chase_body)
    tids = {r.tid for r in trace.records}
    assert len(tids) == 1
    tid = tids.pop()
    assert len(trace.by_thread(tid)) == len(trace)
    assert trace.by_thread(tid + 99) == []


def test_trace_summary_renders():
    trace, _ = run_traced(chase_body)
    text = trace.summary()
    assert "epochs over 1 thread" in text
    assert "monitor=" in text
    assert "delay injected" in text


def test_empty_trace_summary_and_stats():
    trace = EpochTrace()
    assert trace.summary() == "epoch trace: empty"
    with pytest.raises(QuartzError):
        trace.epoch_length_stats()
    assert trace.injection_ratio() == 1.0


def test_trace_ring_buffer_caps_records():
    trace = EpochTrace(max_records=3)
    for index in range(6):
        trace.record(
            EpochRecord(
                time_ns=float(index), tid=1, thread_name="t",
                trigger=EpochTrigger.MONITOR, epoch_length_ns=1.0,
                delay_computed_ns=0.0, delay_injected_ns=0.0,
            )
        )
    assert len(trace) == 3
    assert [r.time_ns for r in trace.records] == [3.0, 4.0, 5.0]


def test_trace_eviction_is_constant_time():
    """The cap evicts O(1) per record (a bounded deque, not list deletes)."""
    import time

    def fill(trace, count):
        record = EpochRecord(
            time_ns=0.0, tid=1, thread_name="t",
            trigger=EpochTrigger.MONITOR, epoch_length_ns=1.0,
            delay_computed_ns=0.0, delay_injected_ns=0.0,
        )
        start = time.perf_counter()
        for _ in range(count):
            trace.record(record)
        return time.perf_counter() - start

    # Warm-up, then: appending past a saturated large cap must not cost
    # meaningfully more than appending below an unreached cap (the old
    # list implementation paid an O(cap) front-delete per record once
    # saturated: ~4e8 pointer moves for this workload).
    fill(EpochTrace(max_records=10), 1_000)
    saturated = fill(EpochTrace(max_records=20_000), 40_000)
    unsaturated = fill(EpochTrace(max_records=200_000), 40_000)
    assert saturated < 20 * max(unsaturated, 1e-4)


def test_trace_accepts_preexisting_records():
    record = EpochRecord(
        time_ns=1.0, tid=1, thread_name="t",
        trigger=EpochTrigger.MONITOR, epoch_length_ns=1.0,
        delay_computed_ns=0.0, delay_injected_ns=0.0,
    )
    trace = EpochTrace(records=[record, record, record], max_records=2)
    assert len(trace) == 2  # the cap applies at construction too


# ----------------------------------------------------------------------
# JSONL streaming
# ----------------------------------------------------------------------
def test_epoch_record_dict_roundtrip():
    from repro.quartz.trace import EpochRecord

    record = EpochRecord(
        time_ns=12.5, tid=3, thread_name="worker",
        trigger=EpochTrigger.SYNC, epoch_length_ns=1000.0,
        delay_computed_ns=40.0, delay_injected_ns=35.0,
    )
    assert EpochRecord.from_dict(record.to_dict()) == record
    assert record.to_dict()["trigger"] == "sync"


def test_jsonl_sink_streams_past_the_memory_cap(tmp_path):
    """The file keeps full history even when the in-memory trace drops it."""
    from repro.quartz.trace import JsonlTraceWriter, read_trace_jsonl

    path = tmp_path / "trace.jsonl"
    with JsonlTraceWriter(path) as sink:
        trace = EpochTrace(max_records=3, sink=sink)
        for index in range(10):
            trace.record(
                EpochRecord(
                    time_ns=float(index), tid=1, thread_name="t",
                    trigger=EpochTrigger.MONITOR, epoch_length_ns=1.0,
                    delay_computed_ns=2.0, delay_injected_ns=1.0,
                )
            )
    assert len(trace) == 3  # memory capped...
    reloaded = read_trace_jsonl(path)
    assert len(reloaded.trace) == 10  # ...disk is not
    assert [r.time_ns for r in reloaded.trace.records] == [
        float(index) for index in range(10)
    ]
    # Applying the same cap on reload reproduces the in-memory view.
    capped = read_trace_jsonl(path, max_records=3)
    assert list(capped.trace.records) == list(trace.records)
    assert capped.trace.summary() == trace.summary()


def test_live_run_jsonl_roundtrip_reproduces_summary(tmp_path):
    """A sink-attached run reloads to the exact in-memory summary."""
    from repro.quartz.trace import JsonlTraceWriter, read_trace_jsonl

    path = tmp_path / "run.jsonl"
    sim = Simulator(seed=2)
    machine = Machine(sim, IVY_BRIDGE)
    osys = SimOS(machine)
    quartz = Quartz(
        osys,
        QuartzConfig(nvm_read_latency_ns=500.0, max_epoch_ns=0.2 * MILLISECOND),
        calibration=calibrate_arch(IVY_BRIDGE),
    )
    quartz.attach()
    with JsonlTraceWriter(path) as sink:
        trace = attach_trace(quartz, sink=sink)
        osys.create_thread(chase_body, name="traced")
        osys.run_to_completion()
        sink.write_stats(quartz.stats)
    assert len(trace) > 5
    reloaded = read_trace_jsonl(path)
    assert len(reloaded.trace) == len(trace)
    assert reloaded.trace.summary() == trace.summary()
    assert reloaded.stats[0]["epochs_total"] == quartz.stats.epochs_total


def test_summarize_trace_jsonl_matches_in_memory_summary(tmp_path):
    from repro.quartz.trace import (
        JsonlTraceWriter,
        summarize_trace_jsonl,
    )

    path = tmp_path / "cap.jsonl"
    with JsonlTraceWriter(path) as sink:
        trace = EpochTrace(max_records=4, sink=sink)
        for index in range(12):
            trace.record(
                EpochRecord(
                    time_ns=float(index), tid=1, thread_name="t",
                    trigger=EpochTrigger.MONITOR,
                    epoch_length_ns=100.0 * (index + 1),
                    delay_computed_ns=10.0, delay_injected_ns=10.0,
                )
            )
    text = summarize_trace_jsonl(path, max_records=4)
    assert text.startswith(trace.summary())


def test_read_trace_jsonl_rejects_bad_files(tmp_path):
    from repro.quartz.trace import read_trace_jsonl

    missing = tmp_path / "missing.jsonl"
    with pytest.raises(QuartzError, match="cannot open"):
        read_trace_jsonl(missing)

    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(QuartzError, match="empty trace file"):
        read_trace_jsonl(empty)

    not_ours = tmp_path / "other.jsonl"
    not_ours.write_text('{"kind": "header", "schema": "other"}\n')
    with pytest.raises(QuartzError, match="not a"):
        read_trace_jsonl(not_ours)

    future = tmp_path / "future.jsonl"
    future.write_text(
        '{"kind": "header", "schema": "quartz-repro/epoch-trace", '
        '"schema_version": 999}\n'
    )
    with pytest.raises(QuartzError, match="unsupported trace schema"):
        read_trace_jsonl(future)

    garbage = tmp_path / "garbage.jsonl"
    garbage.write_text(
        '{"kind": "header", "schema": "quartz-repro/epoch-trace", '
        '"schema_version": 1}\nnot-json\n'
    )
    with pytest.raises(QuartzError, match="not valid JSON"):
        read_trace_jsonl(garbage)


def test_read_trace_jsonl_skips_unknown_kinds(tmp_path):
    from repro.quartz.trace import JsonlTraceWriter, read_trace_jsonl

    path = tmp_path / "mixed.jsonl"
    with JsonlTraceWriter(path) as sink:
        sink.begin_run(index=0, workload="memlat")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"kind": "future-extension", "x": 1}\n')
    reloaded = read_trace_jsonl(path)
    assert len(reloaded.trace) == 0
    assert reloaded.runs[0]["workload"] == "memlat"


def test_writer_is_idempotent_on_close(tmp_path):
    from repro.quartz.trace import JsonlTraceWriter

    writer = JsonlTraceWriter(tmp_path / "t.jsonl")
    writer.close()
    writer.close()  # second close is a no-op
    with pytest.raises(QuartzError, match="already closed"):
        writer.begin_run(index=0)
