"""FaultEngine injector behaviour and determinism."""

import pytest

from repro.faults.engine import DROP_SIGNAL, FaultEngine
from repro.faults.plan import FaultPlan
from repro.hw import IVY_BRIDGE, Machine
from repro.ops import Compute
from repro.os import SimOS, Signal
from repro.quartz.calibration import calibrate_arch
from repro.sim import Simulator

SIGTEST = 40


def make_os(seed=1):
    sim = Simulator(seed=seed)
    machine = Machine(sim, IVY_BRIDGE)
    return SimOS(machine)


# ----------------------------------------------------------------------
# Timer jitter / drift
# ----------------------------------------------------------------------

def test_timer_drift_scales_scheduled_delays():
    sim = Simulator(seed=0)
    engine = FaultEngine(FaultPlan(timer_drift_rel=0.5))
    engine.install(sim=sim)
    fired = []
    sim.schedule(1000.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1500.0]
    assert engine.injections["timer_jitter"] == 1


def test_timer_jitter_stays_within_relative_bounds():
    sim = Simulator(seed=0)
    engine = FaultEngine(FaultPlan(timer_jitter_rel=0.1), run_seed=3)
    engine.install(sim=sim)
    perturbed = [engine._intercept_delay(1000.0) for _ in range(200)]
    assert all(900.0 <= value <= 1100.0 for value in perturbed)
    assert len(set(perturbed)) > 1  # actually jitters


def test_zero_delay_continuations_stay_immediate():
    engine = FaultEngine(FaultPlan(timer_jitter_rel=0.2, timer_drift_rel=0.1))
    assert engine._intercept_delay(0.0) == 0.0


def test_jitter_sequence_is_deterministic_per_seeds():
    def sequence(plan_seed, run_seed):
        engine = FaultEngine(FaultPlan(seed=plan_seed, timer_jitter_rel=0.1),
                             run_seed=run_seed)
        return [engine._intercept_delay(1000.0) for _ in range(50)]

    assert sequence(7, 1) == sequence(7, 1)
    assert sequence(7, 1) != sequence(7, 2)
    assert sequence(7, 1) != sequence(8, 1)


def test_uninstall_restores_clean_scheduling():
    sim = Simulator(seed=0)
    engine = FaultEngine(FaultPlan(timer_drift_rel=1.0))
    engine.install(sim=sim)
    engine.uninstall()
    fired = []
    sim.schedule(1000.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1000.0]


# ----------------------------------------------------------------------
# Signal delay / drop
# ----------------------------------------------------------------------

def _delivery_probe(os):
    log = []

    def handler(thread, signal):
        log.append(os.sim.now)
        return
        yield  # pragma: no cover - generator marker

    os.signal_handlers[SIGTEST] = handler

    def body(ctx):
        yield Compute(2_200_000.0)

    thread = os.create_thread(body)
    return thread, log


def test_delayed_signal_arrives_late():
    os = make_os()
    engine = FaultEngine(
        FaultPlan(signal_delay_ns=500_000.0, signal_delay_p=1.0)
    )
    engine.install(machine=os.machine, os=os)
    thread, log = _delivery_probe(os)
    os.sim.schedule(100_000.0, lambda: os.post_signal(thread, Signal(SIGTEST)))
    os.run_to_completion()
    assert log == [600_000.0]
    assert engine.injections["signal_delayed"] == 1


def test_dropped_signal_never_delivers():
    os = make_os()
    engine = FaultEngine(FaultPlan(signal_drop_p=1.0))
    engine.install(machine=os.machine, os=os)
    thread, log = _delivery_probe(os)
    os.sim.schedule(100_000.0, lambda: os.post_signal(thread, Signal(SIGTEST)))
    os.run_to_completion()
    assert log == []
    assert engine.injections["signal_dropped"] == 1


def test_signal_interceptor_verdicts():
    engine = FaultEngine(FaultPlan(signal_drop_p=1.0))
    assert engine._intercept_signal(None, None) == DROP_SIGNAL
    engine = FaultEngine(
        FaultPlan(signal_delay_ns=123.0, signal_delay_p=1.0)
    )
    assert engine._intercept_signal(None, None) == 123.0
    engine = FaultEngine(FaultPlan())
    assert engine._intercept_signal(None, None) is None


# ----------------------------------------------------------------------
# Monitor misses
# ----------------------------------------------------------------------

def test_monitor_miss_probability_extremes():
    always = FaultEngine(FaultPlan(monitor_miss_p=1.0))
    assert all(always.monitor_skips_wakeup() for _ in range(10))
    assert always.injections["monitor_missed"] == 10
    never = FaultEngine(FaultPlan(monitor_miss_p=0.0))
    assert not any(never.monitor_skips_wakeup() for _ in range(10))
    assert "monitor_missed" not in never.injections


# ----------------------------------------------------------------------
# Counter faults
# ----------------------------------------------------------------------

def test_counter_wrap_reduces_modulo_register_width():
    engine = FaultEngine(FaultPlan(counter_wrap_bits=8))
    assert engine._intercept_counter_read(0, "e", 300.0) == 300.0 % 256
    assert engine.injections["counter_wrapped"] == 1
    # Values inside the register width pass through unchanged.
    assert engine._intercept_counter_read(0, "e", 200.0) == 200.0
    assert engine.injections["counter_wrapped"] == 1


def test_counter_stale_returns_previous_observation():
    engine = FaultEngine(FaultPlan(counter_stale_p=1.0))
    assert engine._intercept_counter_read(0, "e", 100.0) == 100.0
    assert engine._intercept_counter_read(0, "e", 150.0) == 100.0
    assert engine.injections["counter_stale"] == 1
    # Other (core, event) keys have their own staleness state.
    assert engine._intercept_counter_read(1, "e", 400.0) == 400.0


def test_counter_faults_install_on_every_pmc():
    os = make_os()
    engine = FaultEngine(FaultPlan(counter_stale_p=0.5))
    engine.install(machine=os.machine, os=os)
    # One pmc_read subscription covers the register file of every core.
    assert os.sim.hooks.pmc_read == (engine._intercept_counter_read,)
    engine.uninstall()
    assert os.sim.hooks.pmc_read == ()
    engine.uninstall()  # idempotent


# ----------------------------------------------------------------------
# Calibration perturbation
# ----------------------------------------------------------------------

def test_perturb_calibration_bounds_and_determinism():
    calibration = calibrate_arch(IVY_BRIDGE)
    plan = FaultPlan(seed=3, calib_perturb_rel=0.05)
    perturbed = FaultEngine(plan, run_seed=1).perturb_calibration(calibration)
    again = FaultEngine(plan, run_seed=1).perturb_calibration(calibration)
    assert perturbed == again
    assert perturbed != calibration
    assert perturbed.dram_local_ns == pytest.approx(
        calibration.dram_local_ns, rel=0.06
    )
    assert perturbed.dram_local_ns < perturbed.dram_remote_ns
    assert len(perturbed.bandwidth_table) == len(calibration.bandwidth_table)


def test_perturb_calibration_noop_without_the_fault():
    calibration = calibrate_arch(IVY_BRIDGE)
    engine = FaultEngine(FaultPlan(signal_drop_p=0.5))
    assert engine.perturb_calibration(calibration) is calibration


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def test_report_carries_plan_and_injections():
    plan = FaultPlan(seed=2, signal_drop_p=1.0)
    engine = FaultEngine(plan)
    engine._intercept_signal(None, None)
    report = engine.report()
    assert report["plan"] == plan.to_dict()
    assert report["injections"] == {"signal_dropped": 1}
