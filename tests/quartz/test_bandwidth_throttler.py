"""Tests for the bandwidth throttler's node targeting and reset."""

import pytest

from repro.errors import QuartzError
from repro.hw import IVY_BRIDGE, Machine
from repro.hw.memory import THROTTLE_REGISTER_MAX
from repro.quartz.bandwidth import BandwidthThrottler
from repro.quartz.calibration import calibrate_arch
from repro.quartz.config import QuartzConfig
from repro.quartz.kernel_module import QuartzKernelModule
from repro.quartz.tiers import MemoryTier, TierLadder
from repro.sim import Simulator


def make_throttler(config, rw=False):
    machine = Machine(Simulator(seed=1), IVY_BRIDGE, rw_throttle_supported=rw)
    module = QuartzKernelModule(machine)
    module.load()
    throttler = BandwidthThrottler(
        module, calibrate_arch(IVY_BRIDGE), config, nvm_node=1
    )
    return machine, throttler


def test_unthrottled_config_touches_nothing():
    machine, throttler = make_throttler(
        QuartzConfig(nvm_read_latency_ns=200.0)
    )
    throttler.apply()
    assert throttler.applied_register is None
    for controller in machine.controllers:
        assert controller.throttle_register == THROTTLE_REGISTER_MAX


def test_pm_mode_throttles_every_node():
    machine, throttler = make_throttler(
        QuartzConfig(nvm_read_latency_ns=200.0, nvm_bandwidth_gbps=8.0)
    )
    throttler.apply()
    assert throttler.applied_register is not None
    for controller in machine.controllers:
        assert controller.throttle_register < THROTTLE_REGISTER_MAX


def test_two_memory_mode_throttles_only_the_nvm_node():
    machine, throttler = make_throttler(
        QuartzConfig(
            nvm_bandwidth_gbps=8.0,
            ladder=TierLadder((
                MemoryTier("dram", 87.0, 87.0),
                MemoryTier("nvm", 250.0, 250.0),
            )),
        )
    )
    throttler.apply()
    assert machine.controller(0).throttle_register == THROTTLE_REGISTER_MAX
    assert machine.controller(1).throttle_register < THROTTLE_REGISTER_MAX


def test_reset_restores_full_bandwidth():
    machine, throttler = make_throttler(
        QuartzConfig(nvm_read_latency_ns=200.0, nvm_bandwidth_gbps=5.0)
    )
    throttler.apply()
    throttler.reset()
    assert throttler.applied_register is None
    for controller in machine.controllers:
        assert controller.throttle_register == THROTTLE_REGISTER_MAX


def test_unattainable_bandwidth_rejected():
    machine, throttler = make_throttler(
        QuartzConfig(nvm_read_latency_ns=200.0, nvm_bandwidth_gbps=500.0)
    )
    with pytest.raises(QuartzError, match="exceeds attainable"):
        throttler.apply()


def test_register_tracks_target_roughly_linearly():
    def register_for(target):
        machine, throttler = make_throttler(
            QuartzConfig(nvm_read_latency_ns=200.0, nvm_bandwidth_gbps=target)
        )
        throttler.apply()
        return throttler.applied_register

    low, high = register_for(5.0), register_for(30.0)
    assert low < high
    assert high / low == pytest.approx(30.0 / 5.0, rel=0.25)


def test_asymmetric_targets_program_rw_registers():
    machine, throttler = make_throttler(
        QuartzConfig(
            nvm_read_latency_ns=200.0,
            nvm_read_bandwidth_gbps=20.0,
            nvm_write_bandwidth_gbps=5.0,
        ),
        rw=True,
    )
    throttler.apply()
    for controller in machine.controllers:
        read_register, write_register = controller.rw_throttle_registers
        assert read_register > write_register
