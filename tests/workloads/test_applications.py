"""Tests for the application workloads: KV store, PageRank, Graph500."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.hw import IVY_BRIDGE, Machine
from repro.os import SimOS
from repro.sim import Simulator
from repro.workloads.graph500 import Graph500Config, graph500_body, validate_bfs_tree
from repro.workloads.graphs import synthetic_scale_free
from repro.workloads.kvstore import KvRecordLayout, KvStoreConfig, kvstore_main_body
from repro.workloads.pagerank import PageRankConfig, pagerank_body


def run_workload(body, seed=1):
    sim = Simulator(seed=seed)
    os = SimOS(Machine(sim, IVY_BRIDGE))
    os.create_thread(body, name="main")
    os.run_to_completion()
    return os


# ----------------------------------------------------------------------
# KV store
# ----------------------------------------------------------------------
def test_kvstore_functional_and_timed():
    out = {}
    config = KvStoreConfig(puts_per_thread=2000, gets_per_thread=2000, threads=1)
    run_workload(kvstore_main_body(config, out))
    result = out["result"]
    assert result.total_puts == 2000
    assert result.total_gets == 2000
    assert result.verified_gets == 2000  # every lookup returned the stored value
    assert result.final_sizes == [2000]
    assert result.put_phase_ns > 0 and result.get_phase_ns > 0
    assert result.puts_per_second > 0 and result.gets_per_second > 0


def test_kvstore_multithreaded_partitions_disjoint():
    out = {}
    config = KvStoreConfig(puts_per_thread=1000, gets_per_thread=500, threads=4)
    run_workload(kvstore_main_body(config, out))
    result = out["result"]
    assert result.total_puts == 4000
    assert result.final_sizes == [1000] * 4
    assert result.verified_gets == 4 * 500


def test_kvstore_threads_increase_aggregate_throughput():
    def throughput(threads):
        out = {}
        config = KvStoreConfig(
            puts_per_thread=1500, gets_per_thread=1500, threads=threads
        )
        run_workload(kvstore_main_body(config, out))
        return out["result"].gets_per_second

    assert throughput(4) > 2.0 * throughput(1)


def test_kvstore_config_validation():
    with pytest.raises(WorkloadError):
        KvStoreConfig(threads=0)
    with pytest.raises(WorkloadError):
        KvStoreConfig(puts_per_thread=0)
    with pytest.raises(WorkloadError):
        KvStoreConfig(batch_ops=0)


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("node_order", 2, "node order"),
        ("node_order", 3, "node order"),
        ("value_bytes", 0, "value size"),
        ("node_bytes", 8, "cache line"),
        ("compute_cycles_per_level", -1.0, "per level"),
        ("compute_cycles_per_level", float("nan"), "per level"),
        ("compute_cycles_per_level", float("inf"), "per level"),
    ],
)
def test_kvstore_config_rejects_what_would_fail_mid_run(field, value, match):
    # Each of these used to be accepted and fail inside a put worker.
    with pytest.raises(WorkloadError, match=match):
        KvStoreConfig(**{field: value})


@pytest.mark.parametrize("order", [2, 3])
def test_kv_layout_rejects_orders_whose_analytic_tree_never_narrows(order):
    # A half-full node of order 2 or 3 holds one key, so level_footprints
    # would add root levels forever.
    with pytest.raises(WorkloadError, match="node order"):
        KvRecordLayout(node_order=order)


def test_kv_layout_footprints_narrow_to_one_root_at_the_smallest_order():
    footprints = KvRecordLayout(node_order=4, node_bytes=64).level_footprints(
        1_000
    )
    # 1000 records, two per half-full node: 500, 250, ..., 1 nodes.
    assert footprints[0] == 64
    assert footprints[-1] == 500 * 64
    assert len(footprints) == 10


# ----------------------------------------------------------------------
# PageRank
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_graph():
    return synthetic_scale_free(2000, 6, seed=3)


def test_pagerank_converges(small_graph):
    out = {}
    config = PageRankConfig(tolerance=1e-8, max_iterations=200)
    run_workload(pagerank_body(config, out, graph=small_graph))
    result = out["result"]
    assert result.converged
    assert 20 < result.iterations < 200
    assert result.ranks.sum() == pytest.approx(1.0, abs=1e-6)
    assert result.elapsed_ns > 0


def test_pagerank_ranks_favor_hubs(small_graph):
    out = {}
    run_workload(pagerank_body(PageRankConfig(), out, graph=small_graph))
    result = out["result"]
    degrees = small_graph.out_degrees()
    # The top-ranked vertex should be among the highest-degree ones.
    assert degrees[result.top_vertex] >= np.percentile(degrees, 99)


def test_pagerank_deterministic(small_graph):
    results = []
    for _ in range(2):
        out = {}
        run_workload(pagerank_body(PageRankConfig(), out, graph=small_graph))
        results.append(out["result"])
    assert np.allclose(results[0].ranks, results[1].ranks)
    assert results[0].elapsed_ns == results[1].elapsed_ns


def test_pagerank_config_validation():
    with pytest.raises(WorkloadError):
        PageRankConfig(damping=1.0)
    with pytest.raises(WorkloadError):
        PageRankConfig(tolerance=0.0)
    with pytest.raises(WorkloadError):
        PageRankConfig(max_iterations=0)


def test_pagerank_rejects_an_empty_vertex_record():
    with pytest.raises(WorkloadError, match="vertex record"):
        PageRankConfig(bytes_per_vertex=0)


def test_pagerank_rejects_negative_compute_per_edge():
    with pytest.raises(WorkloadError, match="cannot be negative"):
        PageRankConfig(compute_cycles_per_edge=-1.0)


@pytest.mark.parametrize(
    "field, value, match",
    [
        # NaN never compares >= tolerance, so it used to run 0 iterations.
        ("tolerance", float("nan"), "tolerance"),
        ("tolerance", float("inf"), "tolerance"),
        ("compute_cycles_per_edge", float("nan"), "must be finite"),
        ("compute_cycles_per_edge", float("inf"), "must be finite"),
        ("vertex_count", 1, "two vertices"),
        ("edges_per_vertex", 0, "one edge"),
    ],
)
def test_pagerank_config_rejects_what_would_run_wrong(field, value, match):
    with pytest.raises(WorkloadError, match=match):
        PageRankConfig(**{field: value})


# ----------------------------------------------------------------------
# Graph500 BFS
# ----------------------------------------------------------------------
def test_bfs_visits_whole_graph(small_graph):
    out = {}
    config = Graph500Config(roots=2)
    run_workload(graph500_body(config, out, graph=small_graph))
    result = out["result"]
    # The synthetic graph is connected: everything is reached.
    assert (result.parents >= 0).all()
    assert result.traversed_edges > small_graph.edge_count
    assert result.teps > 0


def test_bfs_parent_tree_validates(small_graph):
    out = {}
    config = Graph500Config(roots=1, seed=5)
    run_workload(graph500_body(config, out, graph=small_graph))
    result = out["result"]
    root = int(np.flatnonzero(result.parents == np.arange(len(result.parents)))[0])
    assert validate_bfs_tree(small_graph, root, result.parents)


def test_bfs_detects_corrupted_tree(small_graph):
    out = {}
    run_workload(graph500_body(Graph500Config(roots=1, seed=5), out, graph=small_graph))
    result = out["result"]
    root = int(np.flatnonzero(result.parents == np.arange(len(result.parents)))[0])
    corrupted = result.parents.copy()
    victim = (root + 1) % len(corrupted)
    corrupted[victim] = victim - 1 if victim > 0 else victim + 2
    # Either invalid parent edge or untouched validity — flip until broken.
    if validate_bfs_tree(small_graph, root, corrupted):
        corrupted[victim] = victim  # claim to be a second root
    assert not validate_bfs_tree(small_graph, root, corrupted)


def test_graph500_config_validation():
    with pytest.raises(WorkloadError):
        Graph500Config(roots=0)


def test_graph500_rejects_negative_compute_per_edge():
    with pytest.raises(WorkloadError, match="cannot be negative"):
        Graph500Config(compute_cycles_per_edge=-0.5)
