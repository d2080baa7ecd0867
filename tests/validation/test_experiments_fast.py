"""Fast-variant runs of every experiment driver.

These are integration tests of the drivers themselves (wiring, row
schemas, note generation) at minimum scale; the full-scale shape
assertions live in ``benchmarks/``.
"""

import inspect

import pytest

from repro.hw import HASWELL, IVY_BRIDGE
from repro.validation import export
from repro.validation.experiments import (
    REGISTRY,
    run_dvfs_ablation,
    run_epoch_size_study,
    run_figure8,
    run_figure11,
    run_figure12,
    run_figure13,
    run_figure14,
    run_figure15,
    run_figure16_bandwidth,
    run_figure16_latency,
    run_graph500_validation,
    run_model_ablation,
    run_overhead_study,
    run_pagerank_validation,
    run_pcommit_ablation,
    run_table2,
)
from repro.validation.experiments.fast import run_fast
from repro.workloads.graph500 import Graph500Config
from repro.workloads.graphs import synthetic_scale_free
from repro.workloads.kvstore import KvStoreConfig
from repro.workloads.pagerank import PageRankConfig


def test_registry_covers_every_paper_artefact():
    expected = {
        # The paper's tables and figures.
        "table2", "figure8", "figure11", "figure12", "figure13", "figure14",
        "figure15", "figure16-latency", "figure16-bandwidth",
        "pagerank-validation", "graph500-validation", "overhead-study",
        "epoch-size-study", "pcommit-ablation", "dvfs-ablation",
        "model-ablation",
        # Section 7 / Section 6 extensions.
        "parallel-pagerank", "asymmetric-bandwidth", "loaded-latency-study",
        "technology-comparison", "kv-write-models",
        # Crash-consistency checking (repro.pmem).
        "crash-check",
        # Systematic interleaving + crash-point exploration (repro.explore).
        "explore-check",
        # The N-tier hybrid-memory generalization.
        "tier-sweep", "migration-policy",
        # The trace-driven multi-tenant KV service (repro.service).
        "service-latency", "cache-policy",
        # Streaming sweep grids (repro.validation.sweep presets).
        "sweep-latency-grid", "sweep-tier-grid", "sweep-migration-grid",
        "sweep-service-grid",
    }
    assert set(REGISTRY) == expected


def test_table2_fast():
    result = run_table2(archs=[IVY_BRIDGE], trials=2, iterations=10_000)
    assert len(result.rows) == 1
    assert result.rows[0]["avg_local"] < result.rows[0]["avg_remote"]


def test_figure8_fast():
    from repro.workloads.stream import StreamConfig
    from repro.units import MIB

    result = run_figure8(
        register_points=4,
        stream_config=StreamConfig(
            threads=1, array_bytes=32 * MIB, compute_cycles_per_element=2.5
        ),
    )
    bandwidths = result.column("bandwidth_gbps")
    assert bandwidths == sorted(bandwidths)


def test_figure11_fast():
    result = run_figure11(
        archs=[HASWELL], chain_counts=(1, 4), iterations=120_000, trials=1
    )
    assert len(result.rows) == 2
    for row in result.rows:
        assert row["error_pct"] < 8.0


def test_figure12_fast():
    result = run_figure12(
        archs=[IVY_BRIDGE], target_latencies_ns=(300.0,),
        iterations=120_000, trials=2,
    )
    row = result.rows[0]
    assert row["measured_ns"] == pytest.approx(300.0, rel=0.05)


def test_figure13_fast():
    result = run_figure13(
        archs=[IVY_BRIDGE], thread_counts=(2,), min_epochs_ms=(0.01, 10.0),
        sections=100, with_compute=False,
    )
    errors = {row["min_epoch_ms"]: row["error_pct"] for row in result.rows}
    assert errors[0.01] < errors[10.0]


def test_figure14_fast():
    result = run_figure14(
        archs=[IVY_BRIDGE],
        target_latencies_ns=(400.0,),
        configurations={"small": (30_000, 30_000)},
        patterns={"p": (300, 150)},
    )
    # Tiny scale inflates the epoch-tail error; the full-scale band is
    # asserted in benchmarks/test_figure14_multilat.py.
    assert result.rows[0]["avg_error_pct"] < 8.0


def test_figure14_skips_targets_below_remote_latency():
    result = run_figure14(
        archs=[IVY_BRIDGE],
        target_latencies_ns=(150.0,),  # below remote DRAM: unemulatable
        configurations={"small": (10_000, 10_000)},
        patterns={"p": (200, 100)},
    )
    assert result.rows == []


def test_figure15_fast():
    result = run_figure15(
        thread_counts=(1, 2), puts_per_thread=3_000, gets_per_thread=3_000
    )
    assert [row["threads"] for row in result.rows] == [1, 2]


def test_pagerank_validation_fast():
    graph = synthetic_scale_free(3_000, 5, seed=1)
    workload = PageRankConfig(
        vertex_count=3_000, edges_per_vertex=5, max_iterations=5,
        tolerance=1e-15,
    )
    result = run_pagerank_validation(workload=workload, graph=graph)
    assert result.rows[0]["iterations"] == 5


def test_graph500_validation_fast():
    graph = synthetic_scale_free(3_000, 5, seed=1)
    workload = Graph500Config(vertex_count=3_000, edges_per_vertex=5, roots=1)
    result = run_graph500_validation(workload=workload, graph=graph)
    assert result.rows[0]["traversed_edges"] > 0


def test_figure16_fast():
    # Inflated per-record sizes keep the working sets beyond the LLC at
    # this reduced scale (the full scale runs in benchmarks/).
    pagerank = PageRankConfig(
        vertex_count=200_000, edges_per_vertex=4, max_iterations=2,
        tolerance=1e-15, bytes_per_vertex=256,
    )
    kv = KvStoreConfig(
        puts_per_thread=5_000, gets_per_thread=5_000, value_bytes=8192
    )
    latency = run_figure16_latency(
        target_latencies_ns=(500.0,), pagerank=pagerank, kv=kv
    )
    assert latency.rows[0]["pagerank_ct_rel"] > 1.1
    assert latency.rows[0]["kv_gets_rel"] < 0.95
    bandwidth = run_figure16_bandwidth(
        bandwidths_gbps=(1.0, 20.0), pagerank=pagerank, kv=kv
    )
    by_bw = {row["nvm_bandwidth_gbps"]: row for row in bandwidth.rows}
    assert by_bw[1.0]["pagerank_ct_rel"] > by_bw[20.0]["pagerank_ct_rel"]


def test_figure16_latency_skips_targets_at_or_below_local_dram():
    # Haswell's local DRAM is 119.36 ns: a 100 ns target cannot be
    # emulated, so it is a skipped-cell note, never a row of ratios 1.0.
    latency = run_figure16_latency(
        arch=HASWELL,
        target_latencies_ns=(100.0, 500.0),
        pagerank=PageRankConfig(
            vertex_count=2_000, edges_per_vertex=4, max_iterations=1
        ),
        kv=KvStoreConfig(puts_per_thread=500, gets_per_thread=500),
        jobs=1,
    )
    assert latency.column("nvm_latency_ns") == [500.0]
    skipped = [note for note in latency.notes if note.startswith("skipped cell")]
    assert len(skipped) == 1 and "target 100 ns" in skipped[0]


def test_overhead_study_fast():
    result = run_overhead_study(iterations=120_000)
    quantities = result.column("quantity")
    assert "thread registration (cycles)" in quantities
    assert any("switched-off" in quantity for quantity in quantities)


def test_epoch_size_study_fast():
    result = run_epoch_size_study(
        max_epochs_ms=(1.0, 100.0), iterations=200_000, trials=1
    )
    errors = {row["max_epoch_ms"]: row["error_pct"] for row in result.rows}
    assert errors[100.0] > errors[1.0]


def test_pcommit_ablation_fast():
    result = run_pcommit_ablation(independent_writes=8, barriers=50)
    by_model = {row["write_model"]: row["ns_per_barrier"] for row in result.rows}
    assert by_model["pflush"] > 2 * by_model["pcommit"]


def test_dvfs_ablation_fast():
    result = run_dvfs_ablation(iterations=150_000)
    by_state = {row["dvfs"]: row["error_pct"] for row in result.rows}
    assert by_state["enabled"] > by_state["disabled"]


def test_every_driver_takes_jobs():
    for experiment_id, driver in REGISTRY.items():
        assert "jobs" in inspect.signature(driver).parameters, experiment_id


@pytest.mark.parametrize(
    "experiment_id",
    [
        "pcommit-ablation", "dvfs-ablation", "asymmetric-bandwidth",
        "loaded-latency-study",
    ],
)
def test_ablation_testbed_is_job_count_invariant(experiment_id):
    # Two specs on two workers: the process pool path and the specs'
    # picklability, against the in-process digest.
    digests = [
        export.experiment_digest(
            {"experiment": run_fast(experiment_id, jobs=jobs).to_dict()}
        )
        for jobs in (1, 2)
    ]
    assert digests[0] == digests[1]


def test_model_ablation_fast():
    result = run_model_ablation(chain_counts=(1, 4), iterations=100_000)
    simple4 = [
        row for row in result.rows
        if row["model"] == "simple" and row["chains"] == 4
    ][0]
    assert simple4["error_pct"] > 100.0
