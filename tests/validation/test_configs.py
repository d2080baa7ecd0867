"""Tests for the Conf_1/Conf_2 validation runners (Section 4.3)."""

import pytest

from repro.hw import IVY_BRIDGE
from repro.quartz import QuartzConfig, calibrate_arch
from repro.validation.configs import run_conf1, run_conf2, run_native
from repro.workloads.memlat import MemLatConfig, memlat_body


def factory(out):
    return memlat_body(MemLatConfig(iterations=20_000), out)


def test_conf2_is_physically_remote():
    outcome = run_conf2(IVY_BRIDGE, factory, seed=3)
    latency = outcome.workload_result.measured_latency_ns
    assert latency == pytest.approx(IVY_BRIDGE.dram_remote.avg_ns, rel=0.05)
    assert outcome.quartz_stats is None  # no emulator in Conf_2


def test_native_is_local_and_unemulated():
    outcome = run_native(IVY_BRIDGE, factory, seed=3)
    latency = outcome.workload_result.measured_latency_ns
    assert latency == pytest.approx(IVY_BRIDGE.dram_local.avg_ns, rel=0.05)


def test_conf1_emulates_and_reports_stats():
    calibration = calibrate_arch(IVY_BRIDGE)
    config = QuartzConfig(
        nvm_read_latency_ns=500.0, max_epoch_ns=100_000.0
    )

    def bigger_factory(out):
        return memlat_body(MemLatConfig(iterations=80_000), out)

    outcome = run_conf1(
        IVY_BRIDGE, bigger_factory, config, seed=3, calibration=calibration
    )
    latency = outcome.workload_result.measured_latency_ns
    assert latency == pytest.approx(500.0, rel=0.05)
    assert outcome.quartz_stats is not None
    assert outcome.quartz_stats.epochs_total > 0


def test_runs_are_deterministic_per_seed():
    first = run_conf2(IVY_BRIDGE, factory, seed=9)
    second = run_conf2(IVY_BRIDGE, factory, seed=9)
    assert (
        first.workload_result.elapsed_ns == second.workload_result.elapsed_ns
    )


def test_different_seeds_jitter_the_machine():
    latencies = {
        round(run_conf2(IVY_BRIDGE, factory, seed=seed).workload_result
              .measured_latency_ns, 6)
        for seed in range(4)
    }
    # Ivy Bridge remote latency has a real measured range (Table 2).
    assert len(latencies) > 1


def test_each_run_gets_a_fresh_machine():
    # A simulator or machine carried over from the first run would add
    # its dispatched events and warm state to the second run's outcome.
    outcome_a = run_native(IVY_BRIDGE, factory, seed=1)
    outcome_b = run_native(IVY_BRIDGE, factory, seed=1)
    assert outcome_b.events == outcome_a.events > 0
    assert outcome_b.elapsed_ns == outcome_a.elapsed_ns
    assert outcome_b.workload_result == outcome_a.workload_result
