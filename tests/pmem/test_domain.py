"""Unit tests of the persistence-domain state machine.

The domain only reads ``thread.tid`` and op fields, so these tests drive
it directly with hand-built regions and a stub thread — the end-to-end
hook events (``op``, ``pm_write``, crash-injector triggers) are covered
by ``test_crash_check.py``.
"""

import pytest

from repro.errors import WorkloadError
from repro.hw.topology import MemoryRegion
from repro.ops import Commit, Flush, FlushOpt
from repro.pmem import CrashPlan, PersistenceDomain
from repro.pmem.crash import CrashInjector
from repro.sim.hooks import Hooks
from repro.units import CACHE_LINE_BYTES


class StubThread:
    def __init__(self, tid, name="t"):
        self.tid = tid
        self.name = name


def pm_region(label="pm", lines=16, persistent=True):
    return MemoryRegion(
        node=0,
        size_bytes=lines * CACHE_LINE_BYTES,
        base=0,
        label=label,
        persistent=persistent,
    )


def test_store_flush_persists():
    domain = PersistenceDomain()
    region = pm_region()
    thread = StubThread(1)
    domain.record(region, 3, "hello")
    assert domain.dirty_line_count() == 1
    assert domain.persisted_image() == {"pm": {}}
    domain.observe_op(thread, Flush(region, lines=1, line=3))
    assert domain.dirty_line_count() == 0
    assert domain.persisted_image() == {"pm": {3: "hello"}}


def test_flushopt_needs_commit_to_persist():
    domain = PersistenceDomain()
    region = pm_region()
    thread = StubThread(1)
    domain.record(region, 0, "v0")
    domain.observe_op(thread, FlushOpt(region, lines=1, line=0))
    # Posted, not durable: a crash here loses the line.
    assert domain.posted_line_count() == 1
    assert domain.persisted_image() == {"pm": {}}
    domain.observe_op(thread, Commit())
    assert domain.posted_line_count() == 0
    assert domain.persisted_image() == {"pm": {0: "v0"}}


def test_commit_only_drains_own_threads_posts():
    domain = PersistenceDomain()
    region = pm_region()
    first, second = StubThread(1), StubThread(2)
    domain.record(region, 0, "a")
    domain.observe_op(first, FlushOpt(region, lines=1, line=0))
    domain.record(region, 1, "b")
    domain.observe_op(second, FlushOpt(region, lines=1, line=1))
    domain.observe_op(first, Commit())
    # Thread 2's in-flight writeback is untouched by thread 1's barrier.
    assert domain.persisted_image() == {"pm": {0: "a"}}
    assert domain.posted_line_count() == 1


def test_untargeted_flush_takes_oldest_dirty_first():
    domain = PersistenceDomain()
    region = pm_region()
    thread = StubThread(1)
    for line, payload in ((5, "first"), (2, "second"), (9, "third")):
        domain.record(region, line, payload)
    domain.observe_op(thread, Flush(region, lines=2))
    assert domain.persisted_image() == {"pm": {5: "first", 2: "second"}}
    assert domain.dirty_line_count() == 1


def test_clean_flush_is_counted_noop():
    domain = PersistenceDomain()
    region = pm_region()
    thread = StubThread(1)
    domain.observe_op(thread, Flush(region, lines=4, line=0))
    assert domain.clean_flushes == 1
    assert domain.persisted_image() == {"pm": {}}


def test_store_after_flushopt_redirties_without_losing_writeback():
    domain = PersistenceDomain()
    region = pm_region()
    thread = StubThread(1)
    domain.record(region, 0, "old")
    domain.observe_op(thread, FlushOpt(region, lines=1, line=0))
    domain.record(region, 0, "new")
    domain.observe_op(thread, Commit())
    # The in-flight writeback carried the flush-time payload; the later
    # store stays dirty.
    assert domain.persisted_image() == {"pm": {0: "old"}}
    assert domain.dirty_line_count() == 1


def test_volatile_regions_are_not_shadowed():
    domain = PersistenceDomain()
    region = pm_region(label="dram", persistent=False)
    thread = StubThread(1)
    domain.observe_op(thread, Flush(region, lines=1, line=0))
    assert domain.persisted_image() == {}
    with pytest.raises(WorkloadError, match="non-persistent"):
        domain.record(region, 0, "x")


def test_record_rejects_out_of_range_line():
    domain = PersistenceDomain()
    region = pm_region(lines=4)
    with pytest.raises(WorkloadError, match="outside region"):
        domain.record(region, 4, "x")


def test_duplicate_region_labels_rejected():
    domain = PersistenceDomain()
    domain.record(pm_region(label="same"), 0, "a")
    with pytest.raises(WorkloadError, match="unique labels"):
        domain.record(pm_region(label="same"), 0, "b")


def test_snapshot_freezes_the_image():
    domain = PersistenceDomain()
    region = pm_region()
    thread = StubThread(1)
    domain.record(region, 0, "v")
    domain.observe_op(thread, Flush(region, lines=1, line=0))
    image = domain.snapshot(index=0, time_ns=10.0, trigger="test")
    domain.record(region, 1, "later")
    domain.observe_op(thread, Flush(region, lines=1, line=1))
    # The earlier snapshot is unaffected by later persistence.
    assert image.lines("pm") == {0: "v"}
    assert image.dirty_lines == 0 and image.posted_lines == 0


def test_crash_plan_validation():
    with pytest.raises(WorkloadError):
        CrashPlan(random_interval_ns=-1.0)
    with pytest.raises(WorkloadError):
        CrashPlan(max_points=0)
    with pytest.raises(WorkloadError):
        CrashInjector(PersistenceDomain(), CrashPlan(), shard=2, shards=2)


def test_commit_observer_fires_after_drain():
    domain = PersistenceDomain()
    region = pm_region()
    thread = StubThread(1)
    seen = []
    hooks = Hooks()
    domain.install(hooks)
    hooks.subscribe(
        "commit", lambda t, op: seen.append(dict(domain.persisted_image()["pm"]))
    )
    domain.record(region, 0, "v")
    domain.observe_op(thread, FlushOpt(region, lines=1, line=0))
    domain.observe_op(thread, Commit())
    # The observer sees the post-drain image: the adversarial "power
    # fails as the barrier retires" point includes the drained line.
    assert seen == [{0: "v"}]
