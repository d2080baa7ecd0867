"""Tests of the ordered hook registry every observation seam rides on."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator
from repro.sim.hooks import EVENTS, Hooks


def test_every_event_starts_empty():
    hooks = Hooks()
    assert all(getattr(hooks, name) == () for name in EVENTS)


def test_subscribers_are_kept_in_subscription_order():
    hooks = Hooks()
    first, second, third = object(), object(), object()
    for subscriber in (first, second, third):
        hooks.subscribe("op", subscriber)
    hooks.unsubscribe("op", second)
    assert hooks.op == (first, third)


def test_unknown_event_is_a_named_error():
    hooks = Hooks()
    with pytest.raises(SimulationError, match="unknown hook event 'opp'"):
        hooks.subscribe("opp", print)
    with pytest.raises(SimulationError, match="unknown hook event"):
        hooks.unsubscribe("nope", print)


def test_unsubscribe_matches_rebuilt_bound_methods():
    class Listener:
        def on_close(self, info):
            pass

    listener = Listener()
    hooks = Hooks()
    hooks.subscribe("close", listener.on_close)
    # A fresh bound-method object, equal but not identical.
    hooks.unsubscribe("close", listener.on_close)
    assert hooks.close == ()
    with pytest.raises(SimulationError, match="not subscribed"):
        hooks.unsubscribe("close", listener.on_close)


def test_schedule_subscribers_fold_in_order():
    sim = Simulator()
    sim.hooks.subscribe("schedule", lambda delay: delay + 1.0)
    sim.hooks.subscribe("schedule", lambda delay: delay * 10.0)
    event = sim.schedule(2.0, lambda: None)
    assert event.time == 30.0
