"""The kernel's in-place rule: :meth:`Simulator.advance_to`.

A callback may finish the events it would schedule next in place only
when nothing could run before them or see the difference.  Each test
drives the rule from inside a callback of a running loop and checks
both answers: where it holds, the clock moves and the events count as
dispatched (and against the budget); where it does not, nothing changes.
"""

import math

from repro.sim import Simulator


def _ask(sim, time_ns, events=1, at=0.0):
    """Ask for *events* in place at *time_ns* from a callback at *at*;
    the list returned gets ``(answer, clock after the ask)``."""
    answers = []

    def callback():
        answers.append((sim.advance_to(time_ns, events), sim.now))

    sim.schedule(at, callback)
    return answers


def test_outside_a_run_nothing_runs_ahead():
    sim = Simulator()
    assert not sim.advance_to(10.0, 1)
    assert sim.now == 0.0
    assert sim.events_dispatched == 0


def test_an_empty_heap_lets_the_clock_run_and_counts_the_events():
    sim = Simulator()
    answers = _ask(sim, 50.0, events=2)
    assert sim.run() == "drained"
    assert answers == [(True, 50.0)]
    assert sim.now == 50.0
    # One popped event plus the two finished in place; none pending.
    assert sim.events_dispatched == 3
    assert sim.pending_event_count == 0


def test_the_heap_head_must_be_strictly_later():
    for head, expected in ((50.0, False), (50.000001, True), (49.0, False)):
        sim = Simulator()
        answers = _ask(sim, 50.0)
        sim.schedule(head, lambda: None)
        assert sim.run() == "drained"
        assert answers == [(expected, 50.0 if expected else 0.0)]


def test_a_cancelled_head_still_bounds_the_rule():
    # Cancelled entries stay in the heap; the rule only reads the head,
    # which is conservative and never reorders a live event.
    sim = Simulator()
    answers = _ask(sim, 50.0)
    sim.schedule(20.0, lambda: None).cancel()
    sim.run()
    assert answers == [(False, 0.0)]


def test_the_horizon_bounds_the_rule():
    sim = Simulator()
    answers = _ask(sim, 50.0)
    assert sim.run(until_ns=49.0) == "drained"
    assert answers == [(False, 0.0)]
    assert sim.now == 49.0

    sim = Simulator()
    answers = _ask(sim, 50.0)
    assert sim.run(until_ns=50.0) == "drained"
    assert answers == [(True, 50.0)]


def test_the_budget_is_exact():
    # The asking callback is event 1 of the budget; in-place events take
    # the rest, and a request that does not fit is refused whole.
    for budget, events, expected in ((3, 2, True), (2, 2, False), (2, 1, True)):
        sim = Simulator()
        answers = _ask(sim, 50.0, events=events)
        sim.run(max_events=budget)
        assert answers[0][0] is expected
        assert sim.events_dispatched == 1 + (events if expected else 0)


def test_in_place_events_use_up_the_budget_of_later_pops():
    sim = Simulator()
    answers = _ask(sim, 50.0, events=2)
    sim.schedule(60.0, lambda: None)
    sim.schedule(70.0, lambda: None)
    assert sim.run(max_events=4) == "max-events"
    assert answers == [(True, 50.0)]
    # 1 popped + 2 in place + 1 popped at 60; the event at 70 waits.
    assert sim.events_dispatched == 4
    assert sim.now == 60.0
    assert sim.pending_event_count == 1


def test_a_pending_stop_turns_the_rule_off():
    sim = Simulator()
    answers = []

    def callback():
        sim.request_stop()
        answers.append(sim.advance_to(50.0, 1))

    sim.schedule(0.0, callback)
    assert sim.run() == "stopped"
    assert answers == [False]


def test_dispatch_and_schedule_subscribers_turn_the_rule_off():
    for name, subscriber in (
        ("dispatch", lambda event: None),
        ("schedule", lambda delay_ns: delay_ns),
    ):
        sim = Simulator()
        answers = _ask(sim, 50.0)
        sim.hooks.subscribe(name, subscriber)
        sim.run()
        assert answers == [(False, 0.0)], name


def test_times_before_now_and_nan_are_refused():
    for time_ns in (5.0, math.nan):
        sim = Simulator()
        answers = _ask(sim, time_ns, at=10.0)
        sim.run()
        assert answers == [(False, 10.0)], time_ns


def test_a_nested_run_restores_the_outer_budget():
    sim = Simulator()
    answers = []

    def outer():
        assert sim.run(max_events=1) == "drained"
        answers.append(sim.advance_to(50.0, 2))

    sim.schedule(0.0, outer)
    sim.schedule(1.0, lambda: None)
    sim.run(max_events=3)
    # The outer run had 2 of its 3 events left; the nested run's pop
    # counted against its own budget only.
    assert answers == [True]
    assert sim.events_dispatched == 4
    assert sim.now == 50.0
