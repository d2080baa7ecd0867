"""Kernel dispatch-loop behaviour: compaction, pooling, stop, parity.

One loop dispatches every run; an armed ``dispatch`` observer only adds
a call before each event fires.  These tests pin that observed and
unobserved runs are mechanically identical (same event sequence, same
clock, same counters), that arming or disarming mid-run takes effect at
the next event, and that the cancellation-hygiene machinery (live
counters, threshold compaction, event pooling) never changes observable
behaviour, with or without an observer.
"""

from repro.sim import Simulator
from repro.sim.kernel import _COMPACT_MIN_HEAP, _POOL_MAX


def _unhooked_and_hooked():
    """A plain simulator and one with a dispatch observer that keeps
    nothing: the stop and pool tests hold for both."""
    hooked = Simulator()
    hooked.hooks.subscribe("dispatch", lambda event: None)
    return Simulator(), hooked


# ----------------------------------------------------------------------
# Heap compaction under cancellation-heavy load
# ----------------------------------------------------------------------


def test_cancel_heavy_workload_triggers_compaction_and_bounds_heap():
    sim = Simulator()
    events = [sim.schedule(1_000.0 + i, lambda: None) for i in range(4_000)]
    for event in events[:3_000]:
        event.cancel()
    assert sim.compactions >= 1
    # The heap physically dropped cancelled entries: it never holds more
    # than ~2x the live events (the >50% threshold invariant).
    assert len(sim._heap) < 4_000
    assert len(sim._heap) <= 2 * sim.pending_event_count + 1
    assert sim.pending_event_count == 1_000


def test_compaction_preserves_fifo_order_and_pending_counts():
    sim = Simulator()
    fired = []
    keep = []
    # Equal-time survivors interleaved with a compaction-triggering mass
    # of cancellations (two victims per keeper keeps the cancelled
    # fraction above the >50% threshold): FIFO tie-break order must
    # survive re-heapify.
    for i in range(2_000):
        victims = [sim.schedule(500.0, lambda: None) for _ in range(2)]
        keep.append(sim.schedule(500.0, lambda i=i: fired.append(i)))
        for victim in victims:
            victim.cancel()
    assert sim.compactions >= 1
    assert sim.pending_event_count == 2_000
    sim.run()
    assert fired == list(range(2_000))
    assert sim.pending_event_count == 0


def test_small_heaps_are_never_compacted():
    sim = Simulator()
    events = [sim.schedule(10.0, lambda: None) for i in range(100)]
    for event in events:
        event.cancel()
    # Under the size floor lazy cancellation stays lazy.
    assert sim.compactions == 0
    assert len(sim._heap) == 100
    sim.run()
    assert len(sim._heap) == 0


def test_compaction_mid_run_keeps_dispatch_loop_consistent():
    sim = Simulator()
    fired = []
    later = [
        sim.schedule(10_000.0 + i, lambda i=i: fired.append(i))
        for i in range(_COMPACT_MIN_HEAP + 500)
    ]

    def cancel_most():
        for event in later[: _COMPACT_MIN_HEAP + 200]:
            event.cancel()

    sim.schedule(1.0, cancel_most)
    assert sim.run() == "drained"
    assert sim.compactions >= 1
    assert fired == list(range(_COMPACT_MIN_HEAP + 200, _COMPACT_MIN_HEAP + 500))


# ----------------------------------------------------------------------
# Observed vs unobserved parity
# ----------------------------------------------------------------------


def _workload(sim, fired):
    def tick(tag, period, hops):
        fired.append(tag)
        if hops > 0:
            sim.schedule(period, lambda: tick(tag, period, hops - 1))

    for chain in range(7):
        sim.schedule(float(chain), lambda c=chain: tick(c, float(c + 2), 40))
    # Cancel/reschedule churn in the middle of the run.
    holder = {}

    def churn(round_no):
        if "deadline" in holder and holder["deadline"].pending:
            holder["deadline"].cancel()
        holder["deadline"] = sim.schedule(1_000.0, lambda: fired.append("dl"))
        if round_no < 25:
            sim.schedule(3.0, lambda: churn(round_no + 1))

    sim.schedule(0.5, lambda: churn(0))


def test_fast_and_observed_paths_dispatch_identical_sequences():
    fast_fired = []
    fast = Simulator(seed=3)
    _workload(fast, fast_fired)
    fast.run()

    observed_fired = []
    seen = []
    obs = Simulator(seed=3)
    _workload(obs, observed_fired)
    obs.hooks.subscribe("dispatch", lambda event: seen.append(event.time))
    obs.run()

    assert observed_fired == fast_fired
    assert obs.now == fast.now
    assert obs.events_dispatched == fast.events_dispatched
    assert len(seen) == obs.events_dispatched


def test_observer_armed_mid_run_switches_paths_without_skew():
    fired = []
    seen = []
    sim = Simulator()
    for i in range(20):
        sim.schedule(float(i + 1), lambda i=i: fired.append(i))

    def arm():
        sim.hooks.subscribe("dispatch", seen.append)

    def disarm():
        sim.hooks.unsubscribe("dispatch", seen.append)

    sim.schedule(5.5, arm)
    sim.schedule(12.5, disarm)
    assert sim.run() == "drained"
    assert fired == list(range(20))
    # Events dispatched while armed were observed: indices 5..11 plus the
    # disarm event itself (the observer sees each event before its
    # callback runs, so disarming takes effect from the next dispatch).
    assert [e.time for e in seen] == [float(i + 1) for i in range(5, 12)] + [12.5]


def test_observer_sees_events_before_their_callback_fires():
    sim = Simulator()
    states = []
    sim.schedule(1.0, lambda: None)
    sim.hooks.subscribe("dispatch", lambda event: states.append(
        (event.fired, sim.now == event.time)
    ))
    sim.run()
    assert states == [(False, True)]


# ----------------------------------------------------------------------
# Event pooling
# ----------------------------------------------------------------------


def test_fired_event_with_no_outside_reference_is_reused():
    for sim in _unhooked_and_hooked():
        first_id = id(sim.schedule(1.0, lambda: None))
        sim.run()
        recycled = sim.schedule(2.0, lambda: None)
        assert id(recycled) == first_id
        assert recycled.pending and not recycled.fired
        sim.run()


def test_held_event_is_never_recycled():
    for sim in _unhooked_and_hooked():
        held = sim.schedule(1.0, lambda: None)
        sim.run()
        fresh = sim.schedule(2.0, lambda: None)
        assert fresh is not held
        # The held handle still describes the event that fired.
        assert held.fired and not held.pending


def test_observer_that_keeps_the_event_keeps_it_out_of_the_pool():
    sim = Simulator()
    seen = []
    sim.hooks.subscribe("dispatch", seen.append)
    sim.schedule(1.0, lambda: None)
    sim.run()
    fresh = sim.schedule(2.0, lambda: None)
    assert fresh is not seen[0]
    assert seen[0].fired and not seen[0].pending
    assert seen[0].time == 1.0
    sim.run()
    assert seen[1] is fresh


def test_pool_reuse_keeps_handles_valid_across_generations():
    for sim in _unhooked_and_hooked():
        fired = []
        for round_no in range(5):
            events = [
                sim.schedule(float(i + 1), lambda r=round_no, i=i: fired.append((r, i)))
                for i in range(50)
            ]
            events[10].cancel()
            sim.run()
            assert events[10].cancelled and not events[10].fired
            assert all(e.fired for i, e in enumerate(events) if i != 10)
        expected = [
            (r, i) for r in range(5) for i in range(50) if i != 10
        ]
        assert fired == expected


def test_pool_is_bounded():
    for sim in _unhooked_and_hooked():
        for i in range(2 * _POOL_MAX):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert len(sim._free) <= _POOL_MAX


# ----------------------------------------------------------------------
# Stop requests
# ----------------------------------------------------------------------


def test_request_stop_from_callback_returns_stopped():
    for sim in _unhooked_and_hooked():
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, sim.request_stop)
        sim.schedule(3.0, lambda: fired.append("b"))
        assert sim.run() == "stopped"
        assert fired == ["a"]
        assert sim.now == 2.0
        # The stop was consumed; resuming dispatches the remainder.
        assert sim.run() == "drained"
        assert fired == ["a", "b"]


def test_cancel_stop_in_same_callback_revives_run():
    for sim in _unhooked_and_hooked():
        fired = []

        def stop_then_cancel():
            sim.request_stop()
            sim.cancel_stop()

        sim.schedule(1.0, stop_then_cancel)
        sim.schedule(2.0, lambda: fired.append("later"))
        assert sim.run() == "drained"
        assert fired == ["later"]


def test_request_stop_on_observable_path():
    for sim in _unhooked_and_hooked():
        fired = []
        sim.schedule(1.0, sim.request_stop)
        sim.schedule(2.0, lambda: fired.append("x"))
        assert sim.run() == "stopped"
        assert fired == []
        assert sim.run() == "drained"
        assert fired == ["x"]


# ----------------------------------------------------------------------
# Live counters
# ----------------------------------------------------------------------


def test_pending_count_is_live_through_schedule_cancel_and_run():
    sim = Simulator()
    assert sim.pending_event_count == 0
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
    assert sim.pending_event_count == 10
    events[0].cancel()
    events[1].cancel()
    assert sim.pending_event_count == 8
    assert sim.cancelled_event_count == 2
    sim.run(max_events=3)
    assert sim.pending_event_count == 5
    sim.run()
    assert sim.pending_event_count == 0
    assert sim.cancelled_event_count == 0


def test_cancel_after_fire_is_a_noop_for_counters():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.run()
    event.cancel()
    assert sim.pending_event_count == 0
    assert sim.cancelled_event_count == 0
    assert event.fired and not event.cancelled
