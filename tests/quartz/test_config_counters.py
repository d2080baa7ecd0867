"""Tests for Quartz configuration and counter backends."""

import math

import pytest

from repro.errors import QuartzError
from repro.hw import IVY_BRIDGE
from repro.hw.pmc import PmcFile
from repro.quartz.config import QuartzConfig, WriteModel
from repro.quartz.counters import PAPI_BACKEND, RDPMC_BACKEND, backend_by_name
from repro.sim import Simulator
from repro.units import MILLISECOND


def test_default_config_is_valid():
    config = QuartzConfig()
    assert config.ladder is None
    assert config.write_model is WriteModel.PFLUSH
    assert config.max_epoch_ns == 10 * MILLISECOND


def test_monitor_interval_defaults_to_tenth_of_max_epoch():
    config = QuartzConfig(max_epoch_ns=10 * MILLISECOND)
    assert config.effective_monitor_interval_ns == MILLISECOND
    explicit = QuartzConfig(monitor_interval_ns=0.5 * MILLISECOND)
    assert explicit.effective_monitor_interval_ns == 0.5 * MILLISECOND


@pytest.mark.parametrize(
    "kwargs",
    [
        {"nvm_read_latency_ns": 0.0},
        {"nvm_read_latency_ns": -5.0},
        {"nvm_bandwidth_gbps": 0.0},
        {"nvm_write_latency_ns": -1.0},
        {"max_epoch_ns": 0.0},
        {"min_epoch_ns": -1.0},
        {"min_epoch_ns": 20 * MILLISECOND},  # exceeds max
        {"monitor_interval_ns": 0.0},
        {"counter_backend": "perf"},
        {"nvm_read_latency_ns": math.nan},
        {"nvm_read_latency_ns": math.inf},
        {"nvm_write_latency_ns": math.nan},
        {"nvm_write_latency_ns": math.inf},
        {"nvm_bandwidth_gbps": math.nan},
        {"nvm_bandwidth_gbps": math.inf},
        {"nvm_read_bandwidth_gbps": math.nan, "nvm_write_bandwidth_gbps": 1.0},
        {"max_epoch_ns": math.nan},
        {"max_epoch_ns": math.inf},
        {"min_epoch_ns": math.nan},
        {"monitor_interval_ns": math.nan},
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(QuartzError):
        QuartzConfig(**kwargs)


def test_backend_lookup():
    assert backend_by_name("rdpmc") is RDPMC_BACKEND
    assert backend_by_name("papi") is PAPI_BACKEND
    with pytest.raises(QuartzError):
        backend_by_name("likwid")


def _read_cost(backend):
    sim = Simulator(seed=1)
    pmc = PmcFile(sim, IVY_BRIDGE, core_id=0)
    pmc.program(IVY_BRIDGE.counter_events.all_events(), privileged=True)
    _, cost = backend.read_all(pmc, IVY_BRIDGE.counter_events)
    return cost


def test_rdpmc_read_cost_about_2000_cycles():
    """Section 3.2: counter reading is roughly half the ~4000-cycle epoch."""
    assert 1500 <= _read_cost(RDPMC_BACKEND) <= 2500


def test_papi_read_cost_about_30000_cycles_8x_epoch_processing():
    """Section 3.2: PAPI costs ~30,000 cycles — about 8x the full
    ~4000-cycle rdpmc-based epoch processing."""
    from repro.quartz.config import EPOCH_BASE_COST_CYCLES

    papi = _read_cost(PAPI_BACKEND)
    rdpmc_epoch = _read_cost(RDPMC_BACKEND) + EPOCH_BASE_COST_CYCLES
    assert 25_000 <= papi <= 35_000
    assert 3500 <= rdpmc_epoch <= 4500
    assert 6 <= papi / rdpmc_epoch <= 10


def test_backends_read_identical_values():
    sim = Simulator(seed=1)
    pmc = PmcFile(sim, IVY_BRIDGE, core_id=0)
    events = IVY_BRIDGE.counter_events
    pmc.program(events.all_events(), privileged=True)
    pmc.increment(events.l2_stalls, 1_000_000.0)
    values_rdpmc, _ = RDPMC_BACKEND.read_all(pmc, events)
    pmc2 = PmcFile(Simulator(seed=1), IVY_BRIDGE, core_id=0)
    pmc2.program(events.all_events(), privileged=True)
    pmc2.increment(events.l2_stalls, 1_000_000.0)
    values_papi, _ = PAPI_BACKEND.read_all(pmc2, events)
    assert values_rdpmc == values_papi
