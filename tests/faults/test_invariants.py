"""InvariantMonitor checks, and graceful degradation under faults.

The headline demonstration (the tentpole's acceptance criterion): a run
with delayed monitor signals grows its maximum epoch size — the monitor
notices late, so epochs run long — but delay conservation (injected ==
Eq. 2 target minus amortised overhead) still holds at every close.
"""

import pytest

from repro.errors import InvariantViolation
from repro.faults.invariants import InvariantMonitor
from repro.faults.plan import FaultPlan
from repro.hw import IVY_BRIDGE
from repro.quartz import QuartzConfig, calibrate_arch
from repro.quartz.epoch import EpochCloseInfo
from repro.quartz.stats import EpochTrigger
from repro.sim import Simulator
from repro.validation.configs import run_conf1
from repro.workloads.memlat import MemLatConfig, memlat_body


def factory(out):
    return memlat_body(MemLatConfig(iterations=80_000), out)


QUARTZ_CONFIG = QuartzConfig(nvm_read_latency_ns=500.0, max_epoch_ns=100_000.0)


def close_info(**overrides):
    """A consistent sync-close info; overrides poke holes in it."""
    base = dict(
        time_ns=1000.0,
        tid=1,
        thread_name="t",
        trigger=EpochTrigger.SYNC,
        epoch_length_ns=500.0,
        delay_computed_ns=100.0,
        injected_ns=80.0,
        amortized_ns=20.0,
        overhead_added_ns=15.0,
        pool_before_ns=5.0,
        pool_after_ns=0.0,
        cs_wall_ns=300.0,
        out_wall_ns=100.0,
        split_delay_ns=80.0,
        cs_share_ns=60.0,
        out_share_ns=20.0,
    )
    base.update(overrides)
    return EpochCloseInfo(**base)


# ----------------------------------------------------------------------
# Simulator-level invariants
# ----------------------------------------------------------------------

def test_clean_sim_run_passes_dispatch_checks():
    sim = Simulator(seed=0)
    monitor = InvariantMonitor()
    monitor.attach_sim(sim)
    for delay in (50.0, 10.0, 10.0, 0.0):
        sim.schedule(delay, lambda: None)
    sim.run()
    assert monitor.sim_checks == 4
    assert monitor.violations == []


def test_clock_monotonicity_violation_is_structured():
    monitor = InvariantMonitor()

    class FakeEvent:
        time = 100.0
        seq = 0

    class Earlier:
        time = 50.0
        seq = 1

    monitor._on_dispatch(FakeEvent())
    with pytest.raises(InvariantViolation) as excinfo:
        monitor._on_dispatch(Earlier())
    assert excinfo.value.invariant == "clock-monotonicity"
    assert excinfo.value.context["time_ns"] == 50.0
    assert "clock-monotonicity" in str(excinfo.value)


def test_fifo_tie_break_violation():
    monitor = InvariantMonitor(raise_on_violation=False)

    class Event:
        def __init__(self, time, seq):
            self.time = time
            self.seq = seq

    monitor._on_dispatch(Event(100.0, 5))
    monitor._on_dispatch(Event(100.0, 3))
    assert [v.invariant for v in monitor.violations] == ["fifo-tie-break"]


# ----------------------------------------------------------------------
# Epoch-close invariants
# ----------------------------------------------------------------------

def test_consistent_close_passes_all_checks():
    monitor = InvariantMonitor()
    monitor._on_close(close_info())
    assert monitor.epoch_checks == 1
    assert monitor.violations == []
    assert monitor.max_epoch_length_ns == 500.0


@pytest.mark.parametrize(
    "overrides, invariant",
    [
        ({"injected_ns": 90.0}, "delay-conservation"),
        ({"pool_after_ns": 3.0}, "pool-conservation"),
        (
            {"amortized_ns": 120.0, "injected_ns": -20.0, "pool_after_ns": -100.0},
            "pool-non-negative",
        ),
        ({"cs_share_ns": 70.0}, "split-conservation"),
        ({"cs_share_ns": 20.0, "out_share_ns": 60.0}, "split-proportionality"),
    ],
)
def test_each_accounting_invariant_fires(overrides, invariant):
    monitor = InvariantMonitor(raise_on_violation=False)
    monitor._on_close(close_info(**overrides))
    assert invariant in {v.invariant for v in monitor.violations}


def test_negative_share_is_a_past_schedule():
    monitor = InvariantMonitor(raise_on_violation=False)
    monitor._on_close(
        close_info(cs_share_ns=100.0, out_share_ns=-20.0)
    )
    assert "no-past-schedule" in {v.invariant for v in monitor.violations}


def test_monitor_close_has_no_split_to_check():
    monitor = InvariantMonitor()
    monitor._on_close(close_info(
        trigger=EpochTrigger.MONITOR,
        split_delay_ns=None, cs_share_ns=None, out_share_ns=None,
    ))
    assert monitor.violations == []


def test_report_shape():
    monitor = InvariantMonitor()
    monitor._on_close(close_info())
    report = monitor.report()
    assert report == {
        "sim_checks": 0,
        "epoch_checks": 1,
        "violations": 0,
        "max_epoch_length_ns": 500.0,
    }


# ----------------------------------------------------------------------
# Full-stack: clean runs hold every invariant
# ----------------------------------------------------------------------

def test_clean_conf1_run_reports_zero_violations():
    outcome = run_conf1(
        IVY_BRIDGE, factory, QUARTZ_CONFIG, seed=3,
        calibration=calibrate_arch(IVY_BRIDGE), check_invariants=True,
    )
    report = outcome.reports.get("invariants")
    assert report is not None
    assert report["violations"] == 0
    assert report["epoch_checks"] > 0
    assert report["sim_checks"] > 0
    assert "faults" not in outcome.reports  # no plan: clean run


# ----------------------------------------------------------------------
# Graceful degradation: delayed monitor signals
# ----------------------------------------------------------------------

def test_delayed_monitor_signals_grow_epochs_but_conserve_delay():
    calibration = calibrate_arch(IVY_BRIDGE)

    def run(plan):
        return run_conf1(
            IVY_BRIDGE, factory, QUARTZ_CONFIG, seed=3,
            calibration=calibration, fault_plan=plan, check_invariants=True,
        )

    baseline = run(None)
    faulted = run(FaultPlan(
        seed=1, signal_delay_ns=400_000.0, signal_delay_p=1.0,
    ))
    assert faulted.reports["faults"]["injections"]["signal_delayed"] > 0
    # Epochs grow: the monitor's close signal lands well after the
    # max-epoch threshold...
    assert (
        faulted.reports["invariants"]["max_epoch_length_ns"]
        > baseline.reports["invariants"]["max_epoch_length_ns"]
    )
    # ...but every close still conserved delay (a violation would have
    # raised InvariantViolation mid-run).
    assert faulted.reports["invariants"]["violations"] == 0
    assert baseline.reports["invariants"]["violations"] == 0
