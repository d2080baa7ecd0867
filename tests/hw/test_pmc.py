"""Tests for the performance-counter model."""

import random
import zlib
from dataclasses import replace

import pytest

from repro.errors import HardwareError
from repro.hw import HASWELL, IVY_BRIDGE, SANDY_BRIDGE, Machine
from repro.hw.pmc import _BIAS_TABLE, PmcFile
from repro.sim import Simulator


EVENTS = IVY_BRIDGE.counter_events


def make_pmc(arch=IVY_BRIDGE, seed=1, core=0):
    sim = Simulator(seed=seed)
    pmc = PmcFile(sim, arch, core_id=core)
    pmc.program(arch.counter_events.all_events(), privileged=True)
    return pmc


def test_increment_and_true_value():
    pmc = make_pmc()
    pmc.increment(EVENTS.l3_hit, 100.0)
    pmc.increment(EVENTS.l3_hit, 50.0)
    assert pmc.true_value(EVENTS.l3_hit) == 150.0


def test_counters_cannot_decrease():
    pmc = make_pmc()
    with pytest.raises(HardwareError):
        pmc.increment(EVENTS.l3_hit, -1.0)


def test_unknown_event_rejected():
    pmc = make_pmc()
    with pytest.raises(HardwareError, match="does not exist"):
        pmc.increment("BOGUS_EVENT", 1.0)
    with pytest.raises(HardwareError, match="does not exist"):
        pmc.read("BOGUS_EVENT")


def test_sandy_bridge_event_namespace_differs():
    pmc = make_pmc(arch=SANDY_BRIDGE)
    pmc.increment("MEM_LOAD_UOPS_MISC_RETIRED:LLC_MISS", 5.0)
    with pytest.raises(HardwareError):
        pmc.increment("MEM_LOAD_UOPS_LLC_MISS_RETIRED:LOCAL_DRAM", 1.0)


def test_programming_requires_privilege():
    sim = Simulator()
    pmc = PmcFile(sim, IVY_BRIDGE, core_id=0)
    with pytest.raises(HardwareError, match="ring 0"):
        pmc.program(EVENTS.all_events(), privileged=False)


def test_reading_unprogrammed_event_rejected():
    sim = Simulator()
    pmc = PmcFile(sim, IVY_BRIDGE, core_id=0)
    pmc.program((EVENTS.l2_stalls,), privileged=True)
    with pytest.raises(HardwareError, match="not programmed"):
        pmc.read(EVENTS.l3_hit)


def test_reads_are_monotonic():
    pmc = make_pmc(arch=SANDY_BRIDGE)  # noisiest family
    event = SANDY_BRIDGE.counter_events.l2_stalls
    previous = 0.0
    for step in range(200):
        pmc.increment(event, 10.0)
        value = pmc.read(event)
        assert value >= previous
        previous = value


def test_read_tracks_true_value_within_fidelity():
    pmc = make_pmc(arch=IVY_BRIDGE)
    event = IVY_BRIDGE.counter_events.l3_hit
    pmc.increment(event, 1_000_000.0)
    observed = pmc.read(event)
    assert observed == pytest.approx(1_000_000.0, rel=0.05)


def test_bias_is_systematic_within_a_run():
    """Two large deltas on the same counter see the same scale factor."""
    pmc = make_pmc(arch=HASWELL, seed=3)
    event = HASWELL.counter_events.l2_stalls
    pmc.increment(event, 1_000_000.0)
    first = pmc.read(event)
    pmc.increment(event, 1_000_000.0)
    second = pmc.read(event) - first
    # Same bias, small white noise: deltas agree to ~3 sigma of read noise.
    assert second == pytest.approx(first, rel=0.06)


def test_bias_is_a_fixed_hardware_property_across_runs():
    """The same testbed miscounts identically on every run (the paper's
    per-family error bands persist across its 20 trials)."""
    event = IVY_BRIDGE.counter_events.l2_stalls
    biases = set()
    for seed in range(5):
        pmc = make_pmc(seed=seed)
        biases.add(pmc._bias[event])
    assert len(biases) == 1


def test_read_noise_differs_across_seeds():
    event = IVY_BRIDGE.counter_events.l2_stalls
    readings = set()
    for seed in range(5):
        pmc = make_pmc(seed=seed)
        pmc.increment(event, 1_000_000.0)
        readings.add(round(pmc.read(event), 3))
    assert len(readings) > 1


def test_bias_differs_across_cores():
    sim = Simulator(seed=9)
    event = IVY_BRIDGE.counter_events.l2_stalls
    values = set()
    for core in range(4):
        pmc = PmcFile(sim, IVY_BRIDGE, core_id=core)
        pmc.program((event,), privileged=True)
        pmc.increment(event, 1_000_000.0)
        values.add(round(pmc.read(event), 3))
    assert len(values) > 1


def test_sandy_bridge_noisier_than_ivy_bridge():
    """Footnote 6: Sandy Bridge counters are less reliable."""
    def spread(arch):
        event = arch.counter_events.l2_stalls
        deviations = []
        for seed in range(30):
            pmc = make_pmc(arch=arch, seed=seed)
            pmc.increment(event, 1_000_000.0)
            deviations.append(abs(pmc.read(event) - 1_000_000.0) / 1_000_000.0)
        return sum(deviations) / len(deviations)

    assert spread(SANDY_BRIDGE) > 2 * spread(IVY_BRIDGE)


# ----------------------------------------------------------------------
# Per-family constants: the bias table and the lazy read-noise stream
# ----------------------------------------------------------------------
def _direct_bias(arch, core, event):
    """The bias recomputed from its identities, bypassing the table."""
    seed = zlib.crc32(f"pmc/{arch.name}/core{core}/{event}".encode("utf-8"))
    return 1.0 + random.Random(seed).gauss(0.0, arch.counter_fidelity.bias_sigma)


@pytest.mark.parametrize("arch", [SANDY_BRIDGE, IVY_BRIDGE, HASWELL],
                         ids=lambda arch: arch.name)
def test_bias_table_equals_a_direct_recomputation(arch):
    machine = Machine(Simulator(seed=4), arch)
    sigma = arch.counter_fidelity.bias_sigma
    for pmc in machine.pmcs:
        for event in arch.counter_events.all_events():
            expected = _direct_bias(arch, pmc.core_id, event)
            assert pmc._bias[event] == expected
            assert _BIAS_TABLE[(arch.name, pmc.core_id, event, sigma)] == expected


def test_replaced_bias_sigma_never_aliases_the_original():
    event = IVY_BRIDGE.counter_events.l2_stalls
    original = make_pmc(arch=IVY_BRIDGE)
    wider = replace(
        IVY_BRIDGE,
        counter_fidelity=replace(IVY_BRIDGE.counter_fidelity, bias_sigma=0.3),
    )
    assert wider.name == IVY_BRIDGE.name
    replaced = make_pmc(arch=wider)
    assert replaced._bias[event] != original._bias[event]
    assert replaced._bias[event] == _direct_bias(wider, 0, event)


def test_machines_of_an_arch_share_each_cores_layout_read_only():
    first = Machine(Simulator(seed=0), IVY_BRIDGE).pmc(3)
    second = Machine(Simulator(seed=1), IVY_BRIDGE).pmc(3)
    assert second._valid_events is first._valid_events
    assert second._bias is first._bias
    assert second._true is not first._true
    event = IVY_BRIDGE.counter_events.l3_hit
    with pytest.raises(TypeError):
        second._bias[event] = 1.0
    with pytest.raises(AttributeError):
        second._valid_events.add("BOGUS_EVENT")
    second.increment(event, 5.0)
    assert first.true_value(event) == 0.0


def test_second_machine_of_an_arch_seeds_no_random(monkeypatch):
    Machine(Simulator(seed=0), IVY_BRIDGE)
    constructed = []

    class CountingRandom(random.Random):
        def __init__(self, *args):
            constructed.append(args)
            super().__init__(*args)

    monkeypatch.setattr(random, "Random", CountingRandom)
    Machine(Simulator(seed=1), IVY_BRIDGE)
    assert constructed == []


def _reported(order, rounds=5):
    sim = Simulator(seed=7)
    event = SANDY_BRIDGE.counter_events.l2_stalls
    pmcs = {}
    for core in (1, 3):
        pmcs[core] = PmcFile(sim, SANDY_BRIDGE, core_id=core)
        pmcs[core].program((event,), privileged=True)
    readings = {core: [] for core in pmcs}
    for step in range(rounds):
        for core in order:
            pmcs[core].increment(event, 1_000.0 * (step + core))
            readings[core].append(pmcs[core].read(event))
    return readings


def test_read_order_across_cores_does_not_change_any_core_sequence():
    assert _reported((3, 1)) == _reported((1, 3))


def test_a_core_never_read_never_creates_its_noise_stream():
    sim = Simulator(seed=2)
    machine = Machine(sim, IVY_BRIDGE)
    event = IVY_BRIDGE.counter_events.l3_hit
    for pmc in machine.pmcs[:3]:
        pmc.program((event,), privileged=True)
    machine.pmc(0).increment(event, 100.0)
    machine.pmc(1).increment(event, 100.0)
    machine.pmc(0).read(event)
    machine.pmc(2).read(event)  # a zero delta draws no noise
    created = {name for name in sim.random._streams if name.startswith("pmc-")}
    assert created == {"pmc-read-core0"}
