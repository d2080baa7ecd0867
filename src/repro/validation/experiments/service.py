"""KV-service experiments: tail latency vs NVM latency, cache policies.

Two registry drivers over the :mod:`repro.service` subsystem:

* ``service-latency`` (:func:`run_service_latency`) — the same
  multi-tenant trace replayed under a ladder of emulated NVM
  read/write latencies; rows report per-tenant (and overall) p50-p999
  tails, throughput, and cache hit rate.  The service-shaped analogue
  of Figure 16: how much of a latency increase the DRAM cache tier
  absorbs before the tails surface it.
* ``cache-policy`` (:func:`run_cache_policy`) — eviction x admission
  policy cells at one fixed NVM latency; rows compare hit rate,
  evictions, PM writebacks, p99, and throughput across policies.

Both fan out through :func:`~repro.validation.runner.run_specs`
(``jobs``-parallel, byte-identical results for any job count).  Their
defaults are the EXPERIMENTS.md scales; their CI-sized presets are the
``FAST_KWARGS`` entries (``quartz-repro run service-latency --fast``),
so the export round-trip and fault-sweep registry tests cover them
automatically.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.hw.arch import IVY_BRIDGE
from repro.quartz.config import QuartzConfig
from repro.service.cache import CacheConfig
from repro.service.kvservice import ServiceConfig
from repro.service.traces import TraceConfig
from repro.validation.reporting import ExperimentResult
from repro.validation.runner import RunSpec, run_specs

#: Seed base for the service experiments (distinct from figures/sweeps).
SERVICE_SEED = 1200

#: Default DRAM-cache capacity (entries) per service experiment.
_CACHE_CAPACITY = {"service-latency": 2_048, "cache-policy": 1_024}

#: Default NVM (read, write) latency ladder, ns.
DEFAULT_LATENCY_PAIRS = ((300.0, 600.0), (500.0, 1000.0), (800.0, 1600.0))


def _default_trace(seed: int = SERVICE_SEED) -> TraceConfig:
    return TraceConfig(
        tenants=2,
        ops_per_tenant=1_500,
        keys_per_tenant=50_000,
        mix="ycsb-a",
        seed=seed,
    )


def _service_spec(config: ServiceConfig, quartz: QuartzConfig,
                  arch_name: str, seed: int) -> RunSpec:
    return RunSpec(
        workload="kvservice",
        config=config,
        arch_name=arch_name,
        mode="service",
        seed=seed,
        quartz=quartz,
    )


def _tenant_rows(report: dict) -> list[tuple[str, dict]]:
    """(label, summary) per tenant plus the merged ``all`` row.

    Tenant summaries carry their own cache section; the ``all`` row
    borrows the cache totals, which is the only hit-rate defined across
    tenants.
    """
    rows = [
        (tenant, dict(summary, hit_pct=summary["cache"]["hit_pct"]))
        for tenant, summary in sorted(report["tenants"].items())
    ]
    overall = dict(report["overall"])
    overall["hit_pct"] = report["cache"]["totals"]["hit_pct"]
    rows.append(("all", overall))
    return rows


def _us(value: Optional[float]) -> float:
    return (value or 0.0) / 1e3


def run_service_latency(
    latency_pairs: Sequence[tuple] = DEFAULT_LATENCY_PAIRS,
    trace: Optional[TraceConfig] = None,
    cache: Optional[CacheConfig] = None,
    clients_per_tenant: int = 2,
    arch=IVY_BRIDGE,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Service tails under an NVM read/write latency ladder."""
    trace = trace or _default_trace()
    cache = cache or CacheConfig(capacity=_CACHE_CAPACITY["service-latency"])
    result = ExperimentResult(
        experiment_id="service-latency",
        title="KV service tail latency vs emulated NVM latency",
        columns=[
            "arch", "read_ns", "write_ns", "tenant", "ops", "hit_pct",
            "throughput_kops", "p50_us", "p95_us", "p99_us", "p999_us",
        ],
    )
    config = ServiceConfig(
        trace=trace, cache=cache, clients_per_tenant=clients_per_tenant
    )
    specs = [
        _service_spec(
            config,
            QuartzConfig(
                nvm_read_latency_ns=read_ns, nvm_write_latency_ns=write_ns
            ),
            arch.name,
            SERVICE_SEED,
        )
        for read_ns, write_ns in latency_pairs
    ]
    for spec, run in zip(specs, run_specs(specs, jobs=jobs)):
        report = run.reports["service"]
        for tenant, summary in _tenant_rows(report):
            result.add_row(
                arch=spec.arch_name,
                read_ns=spec.quartz.nvm_read_latency_ns,
                write_ns=spec.quartz.nvm_write_latency_ns,
                tenant=tenant,
                ops=summary["ops"],
                hit_pct=summary["hit_pct"],
                throughput_kops=summary["throughput_ops_s"] / 1e3,
                p50_us=_us(summary["p50_ns"]),
                p95_us=_us(summary["p95_ns"]),
                p99_us=_us(summary["p99_ns"]),
                p999_us=_us(summary["p999_ns"]),
            )
    result.note(
        f"{trace.tenants} tenant(s) x {clients_per_tenant} client(s), "
        f"{trace.ops_per_tenant} op(s)/tenant, {trace.mix}, "
        f"zipf theta={trace.zipf_theta}, cache {cache.capacity} entries "
        f"({cache.eviction}/{cache.admission})"
    )
    result.note(
        "write-back DRAM cache: update hits dirty the cached copy; PM "
        "writes happen on misses, dirty evictions, and the final drain"
    )
    return result


def run_cache_policy(
    evictions: Sequence[str] = ("lru", "lfu", "segmented"),
    admissions: Sequence[str] = ("always", "probabilistic"),
    trace: Optional[TraceConfig] = None,
    capacity: int = _CACHE_CAPACITY["cache-policy"],
    read_ns: float = 500.0,
    write_ns: float = 1_000.0,
    clients_per_tenant: int = 2,
    arch=IVY_BRIDGE,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Eviction x admission policy comparison at one NVM latency."""
    trace = trace or _default_trace()
    quartz = QuartzConfig(
        nvm_read_latency_ns=read_ns, nvm_write_latency_ns=write_ns
    )
    result = ExperimentResult(
        experiment_id="cache-policy",
        title="DRAM cache eviction/admission policies under the KV service",
        columns=[
            "arch", "eviction", "admission", "ops", "hit_pct", "evictions",
            "writebacks", "throughput_kops", "p99_us",
        ],
    )
    cells = [
        (eviction, admission)
        for eviction in evictions
        for admission in admissions
    ]
    specs = [
        _service_spec(
            ServiceConfig(
                trace=trace,
                cache=CacheConfig(
                    capacity=capacity, eviction=eviction, admission=admission
                ),
                clients_per_tenant=clients_per_tenant,
            ),
            quartz,
            arch.name,
            SERVICE_SEED,
        )
        for eviction, admission in cells
    ]
    for (eviction, admission), run in zip(cells, run_specs(specs, jobs=jobs)):
        report = run.reports["service"]
        totals = report["cache"]["totals"]
        overall = report["overall"]
        result.add_row(
            arch=arch.name,
            eviction=eviction,
            admission=admission,
            ops=overall["ops"],
            hit_pct=totals["hit_pct"],
            evictions=totals["evictions"],
            writebacks=totals["writebacks"],
            throughput_kops=overall["throughput_ops_s"] / 1e3,
            p99_us=_us(overall["p99_ns"]),
        )
    result.note(
        f"fixed NVM latency {read_ns:g}/{write_ns:g} ns, cache "
        f"{capacity} entries, {trace.mix} over "
        f"{trace.tenants * trace.keys_per_tenant} keys"
    )
    return result


def service_scenario(
    experiment_id: str, kwargs: dict, preset: Optional[str] = None
) -> dict:
    """The manifest ``service`` section of one service-experiment run.

    Describes the offered load and cache tier the driver ran with its
    keyword arguments *kwargs* (``preset``: ``"fast"`` when they started
    from the fast preset, else None) — the digest-covered context that
    makes two service exports comparable.
    """
    trace = kwargs.get("trace") or _default_trace()
    cache = kwargs.get("cache") or CacheConfig(
        capacity=kwargs.get("capacity", _CACHE_CAPACITY[experiment_id])
    )
    return {
        "preset": preset,
        "experiment": experiment_id,
        "trace": trace.to_dict(),
        "cache": cache.to_dict(),
        "clients_per_tenant": kwargs.get("clients_per_tenant", 2),
    }
