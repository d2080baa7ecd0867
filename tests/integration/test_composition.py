"""Composition matrix: every pair of run attachments composes.

The attachments are the ones :func:`repro.validation.configs.run_testbed`
can put on one Conf_1 run: fault injection plus invariant checking, multi-tier
emulation, crash checking, an epoch-trace sink, and the KV service.  All
of them observe the run through the simulator's one ordered hook
registry, so each pair must either run with every subscriber seeing its
events, or be rejected with a named error before the first event fires.

Explore mode is deliberately not in the matrix: the explorer builds its
own simulators (no Quartz, no latency jitter) and ignores fault plans by
design, so there is no shared run for it to compose with.
"""

import itertools

import pytest

from repro.errors import WorkloadError
from repro.faults.plan import FaultPlan
from repro.hw import IVY_BRIDGE
from repro.pmem.crash import CrashPlan
from repro.quartz.calibration import calibrate_arch
from repro.quartz.config import QuartzConfig, WriteModel
from repro.quartz.tiers import MemoryTier, TierAccountant, TierLadder
from repro.quartz.trace import JsonlTraceWriter
from repro.service.cache import CacheConfig
from repro.service.kvservice import ServiceConfig
from repro.service.traces import TraceConfig
from repro.units import MIB, MICROSECOND
from repro.validation.configs import drive_body, drive_crash_check, run_testbed
from repro.validation.experiments.crash import DEFAULT_CRASH_PLAN, default_pm_config
from repro.validation.runner import WORKLOADS
from repro.workloads.kvstore import KvStoreConfig
from repro.workloads.memlat import MemLatConfig

ATTACHMENTS = ("faults+invariants", "multi-tier", "crash", "trace", "service")

FAULTS = FaultPlan(
    seed=5,
    timer_jitter_rel=0.05,
    signal_delay_ns=20 * MICROSECOND,
    signal_delay_p=0.5,
    monitor_miss_p=0.2,
    counter_stale_p=0.2,
)
CRASH_PLAN = CrashPlan(
    on_epoch_close=True, on_commit=True, random_interval_ns=50 * MICROSECOND,
    seed=7, max_points=64,
)
KVSTORE = KvStoreConfig(
    puts_per_thread=8, gets_per_thread=0, threads=2, batch_ops=4, seed=3
)
SERVICE = ServiceConfig(
    trace=TraceConfig(tenants=2, ops_per_tenant=60, keys_per_tenant=1_000, seed=9),
    cache=CacheConfig(capacity=64),
    clients_per_tenant=1,
)
MEMLAT = MemLatConfig(array_bytes=256 * MIB, iterations=20_000, persistent=True)


def _quartz_config(multi_tier: bool) -> QuartzConfig:
    """PCOMMIT write emulation (crash checking needs posted flushes),
    either as one virtual NVM or as an explicit DRAM + NVM tier list."""
    if not multi_tier:
        return QuartzConfig(
            nvm_read_latency_ns=400.0,
            nvm_write_latency_ns=500.0,
            write_model=WriteModel.PCOMMIT,
        )
    dram_ns = calibrate_arch(IVY_BRIDGE).dram_local_ns
    return QuartzConfig(
        ladder=TierLadder((
            MemoryTier("dram", dram_ns, dram_ns),
            MemoryTier("nvm", 400.0, 500.0),
        )),
        write_model=WriteModel.PCOMMIT,
    )


def _run(pair, tmp_path):
    """Run one pair; returns the outcome and the trace sink (if any)."""
    faulted = "faults+invariants" in pair
    config = _quartz_config("multi-tier" in pair)
    sink = JsonlTraceWriter(tmp_path / "trace.jsonl") if "trace" in pair else None
    if "crash" in pair:
        drive = drive_crash_check("kvstore", KVSTORE, 3, CRASH_PLAN)
    elif "service" in pair:
        drive = drive_body(WORKLOADS["kvservice"](SERVICE, {}), report="service")
    else:
        drive = drive_body(WORKLOADS["memlat"](MEMLAT, {}))
    try:
        outcome = run_testbed(
            IVY_BRIDGE,
            drive,
            seed=3,
            quartz_config=config,
            trace_sink=sink,
            fault_plan=FAULTS if faulted else None,
            check_invariants=faulted,
        )
    finally:
        if sink is not None:
            sink.close()
    return outcome, sink


def _tier_accesses(outcome) -> float:
    """References the multi-tier accountant counted to emulated tiers."""
    (accountant,) = [
        subscriber
        for subscriber in outcome.machine.sim.hooks.op
        if isinstance(subscriber, TierAccountant)
    ]
    return sum(
        reads + writes
        for tid in outcome.quartz_stats.per_thread
        for reads, writes in accountant.snapshot(tid)[1:]
    )


RUNNABLE = [
    pair
    for pair in itertools.combinations(ATTACHMENTS, 2)
    if set(pair) != {"crash", "service"}
]


@pytest.mark.parametrize("pair", RUNNABLE, ids="x".join)
def test_pair_runs_and_every_subscriber_sees_events(pair, tmp_path):
    outcome, sink = _run(pair, tmp_path)
    assert outcome.quartz_stats.epochs_total > 0
    if "faults+invariants" in pair:
        assert sum(outcome.reports["faults"]["injections"].values()) > 0
        assert outcome.reports["invariants"]["sim_checks"] > 0
        assert outcome.reports["invariants"]["epoch_checks"] > 0
        assert outcome.reports["invariants"]["violations"] == 0
    if "multi-tier" in pair:
        assert _tier_accesses(outcome) > 0
    if "crash" in pair:
        assert outcome.reports["crash"]["points"] > 0
        assert outcome.reports["crash"]["violation_total"] == 0
    if "trace" in pair:
        assert sink.records_written > 0
    if "service" in pair:
        assert outcome.reports["service"]["overall"]["ops"] > 0


def test_crash_check_of_the_service_is_rejected_before_the_first_event():
    # The KV service has no recoverable implementation (no recovery
    # routine or durable-image invariants), so the crash checker refuses
    # it by name while building the workload, before any thread exists.
    with pytest.raises(WorkloadError, match="no recoverable implementation") as error:
        run_testbed(
            IVY_BRIDGE,
            drive_crash_check("kvservice", SERVICE, 0, CRASH_PLAN),
            quartz_config=_quartz_config(False),
        )
    assert error.traceback[-1].name == "build_recoverable"


def test_multi_tier_crash_check_at_the_default_plan():
    # Tier accounting and persistence shadowing both subscribe to ``op``
    # on one run, at the crash-check experiment's own plan and seed.
    outcome = run_testbed(
        IVY_BRIDGE,
        drive_crash_check(
            "kvstore", default_pm_config("kvstore"), 411, DEFAULT_CRASH_PLAN
        ),
        seed=411,
        quartz_config=_quartz_config(True),
    )
    assert outcome.reports["crash"]["points"] > 0
    assert outcome.reports["crash"]["violation_total"] == 0
    assert _tier_accesses(outcome) > 0
