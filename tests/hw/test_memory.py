"""Tests for the memory controller: throttling and fluid flow sharing."""

import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HardwareError
from repro.hw.memory import (
    THROTTLE_REGISTER_MAX,
    MemoryController,
    MemoryFlow,
)
from repro.sim import Interrupt, Simulator


def make_controller(sim=None, peak=10.0, channels=4):
    sim = sim or Simulator()
    return sim, MemoryController(sim, node=0, peak_bw_bytes_per_ns=peak, channels=channels)


def run_flow(sim, flow):
    sim.run_until_condition(lambda: flow.done.fired)
    return sim.now


def test_single_flow_capped_by_its_rate_cap():
    sim, ctrl = make_controller(peak=10.0)
    # 1000 bytes at cap 2 B/ns -> 500 ns even though controller could do 10.
    flow = ctrl.submit(1000.0, rate_cap=2.0)
    assert run_flow(sim, flow) == pytest.approx(500.0)


def test_single_flow_capped_by_controller_bandwidth():
    sim, ctrl = make_controller(peak=10.0)
    flow = ctrl.submit(1000.0, rate_cap=100.0)
    assert run_flow(sim, flow) == pytest.approx(100.0)


def test_throttle_register_scales_bandwidth_linearly():
    sim, ctrl = make_controller(peak=8.0)
    ctrl.program_throttle_register(THROTTLE_REGISTER_MAX, privileged=True)
    assert ctrl.effective_bandwidth == pytest.approx(8.0)
    ctrl.program_throttle_register((THROTTLE_REGISTER_MAX + 1) // 2 - 1, privileged=True)
    assert ctrl.effective_bandwidth == pytest.approx(4.0)
    ctrl.program_throttle_register((THROTTLE_REGISTER_MAX + 1) // 4 - 1, privileged=True)
    assert ctrl.effective_bandwidth == pytest.approx(2.0)


def test_throttle_register_requires_privilege():
    _, ctrl = make_controller()
    with pytest.raises(HardwareError, match="privileged"):
        ctrl.program_throttle_register(100, privileged=False)


def test_throttle_register_range_checked():
    _, ctrl = make_controller()
    with pytest.raises(HardwareError):
        ctrl.program_throttle_register(THROTTLE_REGISTER_MAX + 1, privileged=True)
    with pytest.raises(HardwareError):
        ctrl.program_throttle_register(-1, privileged=True)


def test_two_equal_flows_share_bandwidth_fairly():
    sim, ctrl = make_controller(peak=10.0)
    a = ctrl.submit(1000.0, rate_cap=100.0, label="a")
    b = ctrl.submit(1000.0, rate_cap=100.0, label="b")
    sim.run_until_condition(lambda: a.done.fired and b.done.fired)
    # Both uncapped: 5 B/ns each -> 200 ns.
    assert sim.now == pytest.approx(200.0)


def test_capped_flow_leaves_bandwidth_to_others():
    sim, ctrl = make_controller(peak=10.0)
    slow = ctrl.submit(100.0, rate_cap=1.0, label="latency-bound")
    fast = ctrl.submit(1800.0, rate_cap=100.0, label="streaming")
    sim.run_until_condition(lambda: slow.done.fired)
    assert sim.now == pytest.approx(100.0)  # slow ran at its 1 B/ns cap
    sim.run_until_condition(lambda: fast.done.fired)
    # Fast flow got 9 B/ns while slow was active (900 B in 100 ns), then
    # 10 B/ns for the remaining 900 B.
    assert sim.now == pytest.approx(190.0)


def test_flow_completion_after_membership_change_is_exact():
    sim, ctrl = make_controller(peak=10.0)
    a = ctrl.submit(500.0, rate_cap=100.0, label="a")  # alone: 50 ns
    fired_at = {}
    a.done._add_waiter  # silence lint; we observe via condition below
    sim.run(until_ns=10.0)  # a has moved 100 bytes
    b = ctrl.submit(400.0, rate_cap=100.0, label="b")
    sim.run_until_condition(lambda: a.done.fired)
    # After t=10: both at 5 B/ns. a needs 400/5 = 80 more ns.
    assert sim.now == pytest.approx(90.0)
    sim.run_until_condition(lambda: b.done.fired)
    # b: 400 bytes; 80ns at 5 => done at same instant as a... b finished 400 at t=90 too.
    assert sim.now == pytest.approx(90.0)
    assert fired_at == {}


def test_withdraw_returns_remaining_bytes():
    sim, ctrl = make_controller(peak=10.0)
    flow = ctrl.submit(1000.0, rate_cap=10.0)
    sim.run(until_ns=30.0)
    remaining = ctrl.withdraw(flow)
    assert remaining == pytest.approx(700.0)
    assert flow.withdrawn
    assert not flow.done.fired
    sim.run()
    assert not flow.done.fired  # withdrawn flows never complete


def test_finished_flows_are_freed_without_the_cyclic_gc(no_cyclic_gc):
    # A flow refers to its completion callback and event while in
    # service; completing or withdrawing it must drop them, so neither
    # flow outlives the wait on it.
    sim, ctrl = make_controller(peak=10.0)
    completed = ctrl.submit(100.0, rate_cap=10.0)
    withdrawn = ctrl.submit(1000.0, rate_cap=10.0)
    refs = [weakref.ref(completed), weakref.ref(withdrawn)]

    def wait_for(flow):
        try:
            yield flow.done
        except Interrupt:
            ctrl.withdraw(flow)

    sim.spawn(wait_for(completed))
    waiter = sim.spawn(wait_for(withdrawn))
    del completed, withdrawn
    sim.run(until_ns=30.0)  # the first flow completes at 20 ns
    waiter.interrupt()
    sim.run()
    assert waiter.done and ctrl.active_flow_count == 0
    assert [ref() for ref in refs] == [None, None]


def test_withdraw_unknown_flow_rejected():
    sim, ctrl = make_controller()
    flow = ctrl.submit(10.0, rate_cap=1.0)
    sim.run()
    with pytest.raises(HardwareError):
        ctrl.withdraw(flow)


def test_zero_byte_flow_completes_immediately():
    sim, ctrl = make_controller()
    flow = ctrl.submit(0.0, rate_cap=1.0)
    assert flow.done.fired
    assert ctrl.active_flow_count == 0


def test_total_bytes_served_accounting():
    sim, ctrl = make_controller(peak=10.0)
    flow = ctrl.submit(1000.0, rate_cap=100.0)
    run_flow(sim, flow)
    assert ctrl.total_bytes_served == pytest.approx(1000.0)


def test_utilization_reporting():
    sim, ctrl = make_controller(peak=10.0)
    assert ctrl.utilization == 0.0
    ctrl.submit(10_000.0, rate_cap=2.0)
    assert ctrl.utilization == pytest.approx(0.2)
    ctrl.submit(10_000.0, rate_cap=100.0)
    assert ctrl.utilization == pytest.approx(1.0)


def test_invalid_flow_parameters_rejected():
    sim = Simulator()
    with pytest.raises(HardwareError):
        MemoryFlow(sim, total_bytes=-1.0, rate_cap=1.0)
    with pytest.raises(HardwareError):
        MemoryFlow(sim, total_bytes=10.0, rate_cap=0.0)


@pytest.mark.parametrize("total_bytes, rate_cap, named", [
    (math.nan, 1.0, "nan"),
    (math.inf, 1.0, "inf"),
    (1000.0, math.nan, "nan"),
    (1000.0, math.inf, "inf"),
])
def test_non_finite_flow_rejected_before_it_reaches_the_controller(
    total_bytes, rate_cap, named
):
    sim, ctrl = make_controller(peak=10.0)
    with pytest.raises(HardwareError, match=named):
        ctrl.submit(total_bytes, rate_cap)
    assert ctrl.active_flow_count == 0
    # A later flow is served as if the bad one had never been offered.
    flow = ctrl.submit(1000.0, rate_cap=2.0)
    assert run_flow(sim, flow) == pytest.approx(500.0)
    assert ctrl.total_bytes_served == pytest.approx(1000.0)


def test_invalid_controller_parameters_rejected():
    sim = Simulator()
    with pytest.raises(HardwareError):
        MemoryController(sim, 0, peak_bw_bytes_per_ns=0.0, channels=4)
    with pytest.raises(HardwareError):
        MemoryController(sim, 0, peak_bw_bytes_per_ns=1.0, channels=0)


# ----------------------------------------------------------------------
# Single-flow fast path
# ----------------------------------------------------------------------
registers = st.integers(min_value=0, max_value=THROTTLE_REGISTER_MAX)
positive = st.floats(
    min_value=1e-3, max_value=1e9, allow_nan=False, allow_infinity=False
)


def water_filled_rate(ctrl, flow):
    """The rate the general two-stage fill assigns *flow* when alone."""
    kind_limits = MemoryController._water_fill(
        [flow], {flow.flow_id: flow.rate_cap}, ctrl._kind_bandwidths[flow.kind]
    )
    return MemoryController._water_fill(
        [flow], kind_limits, ctrl.effective_bandwidth
    )[flow.flow_id]


@settings(max_examples=300, deadline=None)
@given(
    peak=positive,
    total_bytes=positive,
    rate_cap=positive,
    kind=st.sampled_from(("read", "write")),
    throttle=registers,
    rw=st.none() | st.tuples(registers, registers),
    start_ns=st.floats(min_value=0.0, max_value=1e6),
)
def test_property_single_flow_matches_the_water_fill_bit_for_bit(
    peak, total_bytes, rate_cap, kind, throttle, rw, start_ns
):
    sim = Simulator()
    ctrl = MemoryController(
        sim, node=0, peak_bw_bytes_per_ns=peak, channels=4,
        rw_throttle_supported=rw is not None,
    )
    ctrl.program_throttle_register(throttle, privileged=True)
    if rw is not None:
        ctrl.program_rw_throttle_registers(*rw, privileged=True)
    sim.run(until_ns=start_ns)
    flow = ctrl.submit(total_bytes, rate_cap=rate_cap, kind=kind)
    rate = water_filled_rate(ctrl, flow)
    assert flow.assigned_rate == rate
    assert run_flow(sim, flow) == start_ns + total_bytes / rate


@settings(max_examples=300, deadline=None)
@given(
    peak=positive,
    total_bytes=positive,
    rate_cap=positive,
    kind=st.sampled_from(("read", "write")),
    throttle=registers,
    rw=st.none() | st.tuples(registers, registers),
    start_ns=st.floats(min_value=0.0, max_value=1e6),
)
def test_property_a_flow_served_in_place_matches_the_submitted_one_bit_for_bit(
    peak, total_bytes, rate_cap, kind, throttle, rw, start_ns
):
    # The same lone flow, once served in place and once submitted, must
    # end at the same time with the same bytes served, bit for bit: the
    # in-place credit repeats _advance_all's step and _complete's snap.
    ends = []
    for in_place in (True, False):
        sim = Simulator()
        ctrl = MemoryController(
            sim, node=0, peak_bw_bytes_per_ns=peak, channels=4,
            rw_throttle_supported=rw is not None,
        )
        ctrl.program_throttle_register(throttle, privileged=True)
        if rw is not None:
            ctrl.program_rw_throttle_registers(*rw, privileged=True)
        sim.run(until_ns=start_ns)
        served = []

        def start():
            if in_place:
                served.append(ctrl.serve_alone(total_bytes, rate_cap, kind))
            else:
                ctrl.submit(total_bytes, rate_cap=rate_cap, kind=kind)

        sim.schedule(0.0, start)
        sim.run()
        # An empty heap and no subscriber: the rule holds.
        assert served == ([True] if in_place else [])
        ends.append((sim.now, ctrl.total_bytes_served, ctrl.active_flow_count))
    assert ends[0] == ends[1]


# ----------------------------------------------------------------------
# Cached capacities: stored at each register write, read per flow event
# ----------------------------------------------------------------------
def register_capacities(peak, throttle, read, write):
    """The combined and per-kind capacities the registers define."""
    fraction = (throttle + 1) / (THROTTLE_REGISTER_MAX + 1)
    effective = max(peak * fraction, 1e-6)
    kinds = {}
    for kind, register in (("read", read), ("write", write)):
        fraction = (register + 1) / (THROTTLE_REGISTER_MAX + 1)
        kinds[kind] = max(min(peak * fraction, effective), 1e-6)
    return effective, kinds


def assert_capacities(ctrl, peak, throttle, read, write):
    effective, kinds = register_capacities(peak, throttle, read, write)
    assert ctrl.effective_bandwidth == effective
    for kind, capacity in kinds.items():
        assert ctrl._kind_bandwidths[kind] == capacity


@settings(max_examples=200, deadline=None)
@given(
    peak=positive,
    throttles=st.tuples(registers, registers),
    rw=st.tuples(registers, registers),
    caps=st.lists(
        st.tuples(positive, st.sampled_from(("read", "write"))),
        min_size=2, max_size=5,
    ),
)
def test_property_cached_capacities_follow_every_register_write(
    peak, throttles, rw, caps
):
    sim = Simulator()
    ctrl = MemoryController(
        sim, node=0, peak_bw_bytes_per_ns=peak, channels=4,
        rw_throttle_supported=True,
    )
    top = THROTTLE_REGISTER_MAX
    assert_capacities(ctrl, peak, top, top, top)
    ctrl.program_throttle_register(throttles[0], privileged=True)
    assert_capacities(ctrl, peak, throttles[0], top, top)
    ctrl.program_rw_throttle_registers(*rw, privileged=True)
    assert_capacities(ctrl, peak, throttles[0], *rw)
    # The combined register bounds the per-kind capacities too.
    ctrl.program_throttle_register(throttles[1], privileged=True)
    assert_capacities(ctrl, peak, throttles[1], *rw)
    flows = [
        ctrl.submit(1e12, rate_cap=cap, kind=kind) for cap, kind in caps
    ]
    effective, kinds = register_capacities(peak, throttles[1], *rw)
    kind_limits = {}
    for kind in ("read", "write"):
        kind_flows = [flow for flow in flows if flow.kind == kind]
        if kind_flows:
            kind_limits.update(MemoryController._water_fill(
                kind_flows,
                {flow.flow_id: flow.rate_cap for flow in kind_flows},
                kinds[kind],
            ))
    assigned = MemoryController._water_fill(flows, kind_limits, effective)
    assert [flow.assigned_rate for flow in flows] == [
        assigned[flow.flow_id] for flow in flows
    ]
