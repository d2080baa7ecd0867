"""Ops finished in place against the always-push loop.

A thread's timed waits (back-to-back ``Compute`` ops) and its memory
batches on an idle controller finish in place when no other event can
come first (:meth:`Simulator.advance_to`).  A no-op ``dispatch``
subscriber turns that off, so the same run under one is the always-push
oracle.  Every run bound — a horizon, an event budget, a stop requested
from a callback, :meth:`Simulator.run_until_condition` and a ``schedule``
subscriber — must end both runs with the same stop reason, clock, event
count, pending events and hardware accounting.
"""

import dataclasses

import pytest

from repro.hw import IVY_BRIDGE
from repro.hw.topology import PageSize
from repro.ops import Compute, MemBatch, PatternKind
from repro.os.testbed import Testbed as _Testbed  # not a test class
from repro.units import MIB


def compute_ops(ctx):
    for index in range(40):
        yield Compute(700.0 + 13.0 * index)


def batch_ops(ctx):
    # A lone thread: the controller is idle at every batch.
    region = ctx.malloc(512 * MIB, page_size=PageSize.HUGE_2M)
    for index in range(40):
        yield MemBatch(
            region,
            accesses=8 + index % 5,
            pattern=PatternKind.RANDOM,
            footprint_bytes=region.size_bytes,
            is_store=index % 3 == 0,
        )


WORKLOADS = {"compute": compute_ops, "batches": batch_ops}


def _testbed(observed, perturbed=False):
    testbed = _Testbed(IVY_BRIDGE, seed=5)
    if perturbed:
        # A timer fault: every scheduled delay stretched by a quarter.
        testbed.sim.hooks.subscribe("schedule", lambda delay_ns: delay_ns * 1.25)
    if observed:
        testbed.sim.hooks.subscribe("dispatch", lambda event: None)
    return testbed


def _state(testbed, reason):
    sim, machine = testbed.sim, testbed.machine
    return (
        reason,
        sim.now,
        sim.events_dispatched,
        sim.pending_event_count,
        dataclasses.astuple(machine.core(0).stats),
        dict(machine.pmc(0)._true),
        [controller.total_bytes_served for controller in machine.controllers],
    )


def _run(workload, observed, drive, perturbed=False, body=None):
    """Start one thread of *workload*, then record the state after each
    stop *drive* makes; finish the run and record its end too."""
    testbed = _testbed(observed, perturbed)
    testbed.os.create_thread(body or WORKLOADS[workload], name="worker")
    states = [_state(testbed, reason) for reason in drive(testbed.sim)]
    states.append(_state(testbed, testbed.sim.run()))
    schedules = testbed.sim._seq
    testbed.close()
    return states, schedules


def _agree(workload, drive, **options):
    in_place, in_place_schedules = _run(workload, False, drive, **options)
    pushed, pushed_schedules = _run(workload, True, drive, **options)
    assert in_place == pushed
    return in_place_schedules, pushed_schedules


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_the_rule_is_on_in_a_plain_run(workload):
    in_place, pushed = _agree(workload, lambda sim: ())
    # The thread's start plus nothing else: every wait finished in place.
    assert in_place < pushed / 10


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("fraction", (0.0, 0.1, 0.37, 0.5, 0.99))
def test_a_horizon_stops_both_runs_alike(workload, fraction):
    end = _run(workload, True, lambda sim: ())[0][-1][1]
    _agree(workload, lambda sim: [sim.run(until_ns=fraction * end)])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_an_event_budget_counts_in_place_events_exactly(workload):
    for budget in range(1, 30):

        def drive(sim):
            reason = sim.run(max_events=budget)
            assert reason == "max-events"
            assert sim.events_dispatched == budget
            return [reason, sim.run(max_events=budget)]

        _agree(workload, drive)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_nothing_finishes_in_place_after_a_stop_request(workload):
    ops = WORKLOADS[workload]

    def body(ctx):
        for count, op in enumerate(ops(ctx)):
            if count == 10:
                ctx.os.sim.request_stop()
            yield op

    def drive(sim):
        return [sim.run()]

    _agree(workload, drive, body=body)
    states, _ = _run(workload, False, drive, body=body)
    assert states[0][0] == "stopped"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_run_until_condition_finishes_nothing_in_place(workload):
    ops = WORKLOADS[workload]
    done = []

    def body(ctx):
        for op in ops(ctx):
            yield op
            done.append(ctx.now_ns)

    def drive(sim):
        done.clear()
        sim.run_until_condition(lambda: len(done) >= 7)
        assert len(done) == 7
        return ["condition"]

    _agree(workload, drive, body=body)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_a_schedule_subscriber_turns_the_rule_off(workload):
    in_place, pushed = _agree(workload, lambda sim: (), perturbed=True)
    assert in_place == pushed
