"""The KV service end-to-end: histograms, runner integration, faults."""

import json

import pytest

from repro.errors import WorkloadError
from repro.faults import FaultPlan, active_faults
from repro.hw import IVY_BRIDGE
from repro.quartz.config import QuartzConfig
from repro.service import CacheConfig, LatencyHistogram, ServiceConfig, TraceConfig
from repro.service.kvservice import HISTOGRAM_BOUNDS, REPORTED_PERCENTILES
from repro.units import MILLISECOND
from repro.validation.runner import RunSpec, reset_run_stats, run_specs

SMALL_TRACE = TraceConfig(
    tenants=2, ops_per_tenant=150, keys_per_tenant=2_000, mix="ycsb-a", seed=5
)
SMALL_SERVICE = ServiceConfig(
    trace=SMALL_TRACE, cache=CacheConfig(capacity=128), clients_per_tenant=2
)


def _spec(config: ServiceConfig = SMALL_SERVICE, seed: int = 9) -> RunSpec:
    return RunSpec(
        workload="kvservice",
        config=config,
        arch_name=IVY_BRIDGE.name,
        mode="service",
        seed=seed,
        quartz=QuartzConfig(
            nvm_read_latency_ns=400.0,
            nvm_write_latency_ns=800.0,
            max_epoch_ns=1.0 * MILLISECOND,
        ),
    )


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------


def test_histogram_bounds_are_increasing_integers():
    assert all(isinstance(bound, int) for bound in HISTOGRAM_BOUNDS)
    assert list(HISTOGRAM_BOUNDS) == sorted(set(HISTOGRAM_BOUNDS))
    assert HISTOGRAM_BOUNDS[0] == 16
    assert HISTOGRAM_BOUNDS[-1] >= 1e8


def test_histogram_percentiles_are_bucket_bounds():
    histogram = LatencyHistogram()
    for latency in (10.0, 100.0, 1_000.0, 10_000.0):
        histogram.record(latency)
    assert histogram.count == 4
    for _name, fraction in REPORTED_PERCENTILES:
        value = histogram.percentile(fraction)
        assert value in [float(bound) for bound in HISTOGRAM_BOUNDS]
    # Percentiles never decrease in the fraction.
    ladder = [histogram.percentile(f) for f in (0.1, 0.5, 0.9, 0.999)]
    assert ladder == sorted(ladder)


def test_histogram_saturates_and_merges():
    histogram = LatencyHistogram()
    histogram.record(9e99)  # beyond the last bound: clamps, never raises
    assert histogram.percentile(0.5) == float(HISTOGRAM_BOUNDS[-1])
    other = LatencyHistogram()
    other.record(20.0)
    other.record(20.0)
    histogram.merge(other)
    assert histogram.count == 3
    assert histogram.percentile(0.5) == pytest.approx(20.0, abs=5.0)
    payload = histogram.to_dict()
    assert payload["count"] == 3
    assert sum(payload["buckets"].values()) == 3  # sparse: only non-empty


def test_histogram_empty_percentile_is_none():
    assert LatencyHistogram().percentile(0.99) is None


def test_service_config_validation():
    with pytest.raises(WorkloadError):
        ServiceConfig(clients_per_tenant=0)
    with pytest.raises(WorkloadError):
        ServiceConfig(compute_cycles_per_op=-1.0)
    with pytest.raises(WorkloadError):
        ServiceConfig(compute_cycles_per_level=-1.0)


# ----------------------------------------------------------------------
# End-to-end through the runner
# ----------------------------------------------------------------------


def test_service_run_reports_per_tenant_tails():
    reset_run_stats()
    [run] = run_specs([_spec()], jobs=1)
    report = run.reports["service"]
    assert set(report) == {"duration_ns", "tenants", "overall", "cache"}
    assert sorted(report["tenants"]) == ["t0", "t1"]
    for summary in report["tenants"].values():
        assert summary["ops"] == SMALL_TRACE.ops_per_tenant
        assert summary["throughput_ops_s"] > 0
        tail = [summary[name] for name, _ in REPORTED_PERCENTILES]
        assert all(value is not None for value in tail)
        assert tail == sorted(tail)
    overall = report["overall"]
    assert overall["ops"] == SMALL_TRACE.tenants * SMALL_TRACE.ops_per_tenant
    totals = report["cache"]["totals"]
    assert totals["hits"] + totals["misses"] == totals["lookups"]
    assert report["cache"]["resident"] <= SMALL_SERVICE.cache.capacity


def test_service_report_is_byte_identical_across_worker_counts():
    reset_run_stats()
    specs = [_spec(seed=seed) for seed in (1, 2, 3)]
    sequential = run_specs(specs, jobs=1)
    parallel = run_specs(specs, jobs=3)
    for seq, par in zip(sequential, parallel):
        assert json.dumps(seq.reports["service"], sort_keys=True) == json.dumps(
            par.reports["service"], sort_keys=True
        )


def test_service_accounting_holds_under_faults():
    # kvservice_main_body calls verify_accounting() on every completed
    # run, so a clean exit *is* the invariant check; arming
    # check_invariants additionally turns any breakage into a hard
    # InvariantViolation rather than a logged warning.
    plan = FaultPlan(
        seed=11,
        timer_jitter_rel=0.01,
        signal_delay_ns=20_000.0,
        signal_delay_p=0.25,
        monitor_miss_p=0.1,
        counter_stale_p=0.05,
    )
    reset_run_stats()
    with active_faults(plan, check_invariants=True):
        [run] = run_specs([_spec()], jobs=1)
    assert run.reports["invariants"]["violations"] == 0
    totals = run.reports["service"]["cache"]["totals"]
    assert totals["hits"] + totals["misses"] == totals["lookups"]


def test_reads_verify_against_authoritative_store():
    # Every cache hit and every PM read is checked against the
    # authoritative version map inside the run; verified_reads counts
    # the PM-side checks, so a nonzero value proves coherence was
    # actually exercised.
    reset_run_stats()
    [run] = run_specs([_spec()], jobs=1)
    verified = sum(
        summary["verified_reads"]
        for summary in run.reports["service"]["tenants"].values()
    )
    assert verified > 0


def test_higher_nvm_latency_slows_the_service():
    reset_run_stats()
    fast_spec = _spec()
    slow_spec = RunSpec(
        workload="kvservice",
        config=SMALL_SERVICE,
        arch_name=IVY_BRIDGE.name,
        mode="service",
        seed=9,
        quartz=QuartzConfig(
            nvm_read_latency_ns=1_600.0,
            nvm_write_latency_ns=3_200.0,
            max_epoch_ns=1.0 * MILLISECOND,
        ),
    )
    fast_run, slow_run = run_specs([fast_spec, slow_spec], jobs=1)
    assert (
        slow_run.reports["service"]["overall"]["p99_ns"]
        > fast_run.reports["service"]["overall"]["p99_ns"]
    )
    assert (
        slow_run.reports["service"]["overall"]["throughput_ops_s"]
        < fast_run.reports["service"]["overall"]["throughput_ops_s"]
    )
