"""Unit tests for the discrete-event kernel."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator, Timeout


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(30.0, lambda: fired.append("c"))
    sim.schedule(10.0, lambda: fired.append("a"))
    sim.schedule(20.0, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 30.0


def test_equal_time_events_fire_fifo():
    sim = Simulator()
    fired = []
    for tag in range(5):
        sim.schedule(10.0, lambda t=tag: fired.append(t))
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_nan_times_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(math.nan, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at(math.nan, lambda: None)
    with pytest.raises(SimulationError):
        Timeout(math.nan)


def test_rejected_nan_event_leaves_the_order_intact():
    # A NaN in the heap compares false both ways, so it would fire out of
    # order and set the clock to NaN while it ran.
    sim = Simulator()
    fired = []
    for delay in (5.0, math.nan, 1.0, 3.0):
        try:
            sim.schedule(delay, lambda d=delay: fired.append((d, sim.now)))
        except SimulationError:
            pass
    sim.run()
    assert fired == [(1.0, 1.0), (3.0, 3.0), (5.0, 5.0)]
    assert sim.now == 5.0


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(10.0, lambda: fired.append("x"))
    event.cancel()
    sim.run()
    assert fired == []
    assert event.cancelled and not event.fired


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(10.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()
    assert not event.fired


def test_run_until_advances_clock_without_dispatching_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, lambda: fired.append("early"))
    sim.schedule(100.0, lambda: fired.append("late"))
    sim.run(until_ns=50.0)
    assert fired == ["early"]
    assert sim.now == 50.0
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_with_empty_heap_advances_clock():
    sim = Simulator()
    sim.run(until_ns=123.0)
    assert sim.now == 123.0


def test_max_events_budget():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i + 1), lambda i=i: fired.append(i))
    assert sim.run(max_events=3) == "max-events"
    assert fired == [0, 1, 2]


def test_run_reports_stop_reason():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.schedule(100.0, lambda: None)
    assert sim.run(until_ns=50.0) == "until"
    assert sim.run() == "drained"
    assert sim.run(until_ns=200.0) == "drained"
    assert sim.now == 200.0


def test_max_events_with_horizon_advances_clock_to_next_event():
    """When the budget stops a bounded run, time still moves forward.

    The clock lands on the earlier of the next pending event and the
    horizon — never past an undispatched event, never past the horizon.
    """
    sim = Simulator()
    for time_ns in (10.0, 20.0, 30.0, 40.0):
        sim.schedule(time_ns, lambda: None)
    assert sim.run(until_ns=100.0, max_events=2) == "max-events"
    assert sim.now == 30.0  # next pending event, inside the horizon
    # An event beyond the horizon outranks the budget: "until" stops first.
    assert sim.run(until_ns=25.0, max_events=0) == "until"
    assert sim.now == 30.0  # and the clock never moves backwards
    # Without a horizon the budget stop leaves the clock untouched.
    assert sim.run(max_events=0) == "max-events"
    assert sim.now == 30.0
    assert sim.run(until_ns=100.0) == "drained"
    assert sim.now == 100.0


def test_events_scheduled_during_dispatch_run_in_order():
    sim = Simulator()
    fired = []

    def outer():
        fired.append("outer")
        sim.schedule(0.0, lambda: fired.append("inner-now"))
        sim.schedule(5.0, lambda: fired.append("inner-later"))

    sim.schedule(10.0, outer)
    sim.schedule(12.0, lambda: fired.append("preexisting"))
    sim.run()
    assert fired == ["outer", "inner-now", "preexisting", "inner-later"]


def test_run_until_condition():
    sim = Simulator()
    counter = []
    for i in range(10):
        sim.schedule(float(i), lambda: counter.append(1))
    sim.run_until_condition(lambda: len(counter) >= 4)
    assert len(counter) == 4
    # The last queued event makes the predicate true: the run that
    # dispatches it returns "drained", which must not read as a deadlock.
    sim.run_until_condition(lambda: len(counter) >= 10)
    assert len(counter) == 10
    assert sim.pending_event_count == 0


def test_run_until_condition_deadlock_detected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.run_until_condition(lambda: False)


def test_pending_event_count_ignores_cancelled():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    cancelled = sim.schedule(2.0, lambda: None)
    cancelled.cancel()
    assert sim.pending_event_count == 1


def test_random_streams_are_deterministic_and_independent():
    a = Simulator(seed=7)
    b = Simulator(seed=7)
    assert a.random.stream("pmc").random() == b.random.stream("pmc").random()
    # Drawing from one stream must not perturb another.
    c = Simulator(seed=7)
    c.random.stream("other").random()
    assert (
        c.random.stream("pmc").random()
        == Simulator(seed=7).random.stream("pmc").random()
    )


def test_random_streams_differ_across_names_and_seeds():
    sim = Simulator(seed=7)
    assert sim.random.stream("a").random() != sim.random.stream("b").random()
    assert (
        Simulator(seed=1).random.stream("a").random()
        != Simulator(seed=2).random.stream("a").random()
    )
