"""Minimum-scale presets for every experiment driver.

One entry per ``REGISTRY`` id, each a zero-argument builder returning
the keyword arguments that make the driver run in seconds rather than
minutes (the same scales the fast test-suite variants use).  This is
the one preset table of the registry (the sweep grids' ``scale``
argument aside).  Consumers: ``quartz-repro run <id> --fast``
(the CLI flags overlay the preset), the golden digest and JSON-export
round-trip tests, and the ``registry`` workload of the end-to-end
benchmark (``benchmarks/e2e``).

These presets trade statistical quality for speed — they exercise every
driver's full plumbing (grids, runner, reporting, export) but are not
the scales EXPERIMENTS.md quotes.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ValidationError
from repro.explore import LitmusConfig
from repro.hw.arch import IVY_BRIDGE
from repro.service.cache import CacheConfig
from repro.service.traces import TraceConfig
from repro.units import MIB
from repro.validation.experiments import REGISTRY
from repro.validation.experiments.service import SERVICE_SEED
from repro.validation.reporting import ExperimentResult
from repro.workloads.graph500 import Graph500Config
from repro.workloads.graphs import synthetic_power_law, synthetic_scale_free
from repro.workloads.kvstore import KvStoreConfig
from repro.workloads.pagerank import PageRankConfig
from repro.workloads.stream import StreamConfig


def _small_graph_kwargs() -> dict:
    workload = PageRankConfig(
        vertex_count=3_000, edges_per_vertex=5, max_iterations=5,
        tolerance=1e-15,
    )
    graph = synthetic_scale_free(3_000, 5, seed=1)
    return {"workload": workload, "graph": graph}


def _graph500_kwargs() -> dict:
    workload = Graph500Config(vertex_count=3_000, edges_per_vertex=5, roots=1)
    graph = synthetic_scale_free(3_000, 5, seed=1)
    return {"workload": workload, "graph": graph}


def _figure16_kwargs() -> dict:
    # Inflated record/value sizes keep working sets beyond the LLC even
    # at this reduced scale.
    return {
        "pagerank": PageRankConfig(
            vertex_count=100_000, edges_per_vertex=4, max_iterations=2,
            tolerance=1e-15, bytes_per_vertex=256,
        ),
        "kv": KvStoreConfig(
            puts_per_thread=5_000, gets_per_thread=5_000, value_bytes=8192
        ),
    }


def _parallel_pagerank_kwargs() -> dict:
    base = PageRankConfig(
        vertex_count=100_000, edges_per_vertex=4, max_iterations=3,
        tolerance=1e-15, bytes_per_vertex=256,
    )
    graph = synthetic_power_law(100_000, 4, seed=2)
    return {"thread_counts": (1, 4), "base": base, "graph": graph}


def _service_trace() -> TraceConfig:
    return TraceConfig(
        tenants=2, ops_per_tenant=300, keys_per_tenant=5_000, seed=SERVICE_SEED
    )


#: Experiment id -> zero-argument kwargs builder.
FAST_KWARGS: dict[str, Callable[[], dict]] = {
    "table2": lambda: {
        "archs": (IVY_BRIDGE,), "trials": 2, "iterations": 10_000
    },
    "figure8": lambda: {
        "register_points": 4,
        "stream_config": StreamConfig(
            threads=1, array_bytes=32 * MIB, compute_cycles_per_element=2.5
        ),
    },
    "figure11": lambda: {
        "archs": (IVY_BRIDGE,), "chain_counts": (1, 4),
        "iterations": 120_000, "trials": 1,
    },
    "figure12": lambda: {
        "archs": (IVY_BRIDGE,), "target_latencies_ns": (300.0,),
        "iterations": 120_000, "trials": 2,
    },
    "figure13": lambda: {
        "archs": (IVY_BRIDGE,), "thread_counts": (2,),
        "min_epochs_ms": (0.01, 10.0), "sections": 100,
        "with_compute": False,
    },
    "figure14": lambda: {
        "archs": (IVY_BRIDGE,), "target_latencies_ns": (400.0,),
        "configurations": {"small": (30_000, 30_000)},
        "patterns": {"p": (300, 150)},
    },
    "figure15": lambda: {
        "thread_counts": (1, 2), "puts_per_thread": 3_000,
        "gets_per_thread": 3_000,
    },
    "figure16-latency": lambda: {
        "target_latencies_ns": (500.0,), **_figure16_kwargs()
    },
    "figure16-bandwidth": lambda: {
        "bandwidths_gbps": (1.0, 20.0), **_figure16_kwargs()
    },
    "pagerank-validation": _small_graph_kwargs,
    "graph500-validation": _graph500_kwargs,
    "overhead-study": lambda: {"iterations": 120_000},
    "epoch-size-study": lambda: {
        "max_epochs_ms": (1.0, 100.0), "iterations": 200_000, "trials": 1
    },
    "pcommit-ablation": lambda: {"independent_writes": 8, "barriers": 50},
    "dvfs-ablation": lambda: {"iterations": 150_000},
    "model-ablation": lambda: {"chain_counts": (1, 4), "iterations": 100_000},
    "parallel-pagerank": _parallel_pagerank_kwargs,
    "asymmetric-bandwidth": lambda: {
        "write_bandwidths_gbps": (2.0,), "stream_bytes": 32 * MIB
    },
    "loaded-latency-study": lambda: {
        "alphas": (0.0, 0.5), "iterations": 60_000
    },
    "technology-comparison": lambda: {
        "kv": KvStoreConfig(
            puts_per_thread=8_000, gets_per_thread=8_000, value_bytes=4096
        )
    },
    "kv-write-models": lambda: {
        "kv": KvStoreConfig(
            puts_per_thread=5_000, gets_per_thread=1, flush_writes=True
        )
    },
    "crash-check": lambda: {
        "workload": "kvstore",
        "shards": 2,
        "config": KvStoreConfig(
            puts_per_thread=8, gets_per_thread=0, threads=2, batch_ops=4,
            seed=3,
        ),
    },
    "explore-check": lambda: {
        "workload": "mutex-log",
        "shards": 2,
        "config": LitmusConfig(threads=2, entries_per_thread=1, seed=0),
    },
    "tier-sweep": lambda: {
        "tier_sets": {"3-tier": ((250.0, 350.0), (400.0, 600.0), (700.0, 1100.0))},
        "elements_per_tier": 30_000,
        "dram_elements": 30_000,
    },
    "migration-policy": lambda: {
        "elements_per_tier": 10_000,
        "promote_threshold_accesses": 4_000,
    },
    "sweep-latency-grid": lambda: {"scale": "smoke"},
    "sweep-tier-grid": lambda: {"scale": "smoke"},
    "sweep-migration-grid": lambda: {"scale": "smoke"},
    "sweep-service-grid": lambda: {"scale": "smoke"},
    "service-latency": lambda: {
        "latency_pairs": ((300.0, 600.0), (700.0, 1400.0)),
        "trace": _service_trace(),
        "cache": CacheConfig(capacity=256),
        "clients_per_tenant": 2,
    },
    "cache-policy": lambda: {
        "evictions": ("lru", "segmented"),
        "admissions": ("always", "probabilistic"),
        "trace": _service_trace(),
        "capacity": 256,
    },
}


def run_fast(experiment_id: str, jobs: Optional[int] = None) -> ExperimentResult:
    """Run one experiment at its minimum scale on ``jobs`` workers."""
    if experiment_id not in REGISTRY:
        raise ValidationError(f"unknown experiment id: {experiment_id!r}")
    if experiment_id not in FAST_KWARGS:
        raise ValidationError(f"no fast preset for {experiment_id!r}")
    return REGISTRY[experiment_id](**FAST_KWARGS[experiment_id](), jobs=jobs)
