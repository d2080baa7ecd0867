"""Tests for the barrier-synchronised parallel PageRank extension."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.hw import IVY_BRIDGE, Machine
from repro.os import SimOS
from repro.sim import Simulator
from repro.workloads.graphs import synthetic_scale_free
from repro.workloads.pagerank import PageRankConfig, pagerank_body
from repro.workloads.pagerank_parallel import (
    ParallelPageRankConfig,
    _partition_by_edges,
    parallel_pagerank_body,
)


@pytest.fixture(scope="module")
def graph():
    return synthetic_scale_free(2_000, 5, seed=3)


def run(body, seed=1):
    os = SimOS(Machine(Simulator(seed=seed), IVY_BRIDGE))
    os.create_thread(body, name="main")
    os.run_to_completion()
    return os


BASE = PageRankConfig(max_iterations=20, tolerance=1e-10)


def test_partition_covers_all_vertices(graph):
    for parts in (1, 2, 4, 7):
        ranges = _partition_by_edges(graph, parts)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == graph.vertex_count
        for (_, end), (start, _) in zip(ranges, ranges[1:]):
            assert end == start


def test_partition_balances_edges(graph):
    ranges = _partition_by_edges(graph, 4)
    edge_counts = [
        int(graph.row_ptr[high] - graph.row_ptr[low]) for low, high in ranges
    ]
    assert max(edge_counts) < 2.0 * graph.edge_count / 4


def test_parallel_matches_sequential_ranks(graph):
    sequential_out = {}
    run(pagerank_body(BASE, sequential_out, graph=graph))
    parallel_out = {}
    config = ParallelPageRankConfig(base=BASE, threads=4)
    run(parallel_pagerank_body(config, parallel_out, graph=graph))
    assert np.allclose(
        sequential_out["result"].ranks, parallel_out["result"].ranks
    )
    assert (
        sequential_out["result"].iterations
        == parallel_out["result"].iterations
    )


def test_threads_speed_up_completion(graph):
    def elapsed(threads):
        out = {}
        config = ParallelPageRankConfig(base=BASE, threads=threads)
        run(parallel_pagerank_body(config, out, graph=graph))
        return out["result"].elapsed_ns

    one = elapsed(1)
    four = elapsed(4)
    assert one / four > 2.0  # real parallel speedup


def test_single_thread_parallel_equals_sequential_time_roughly(graph):
    sequential_out = {}
    run(pagerank_body(BASE, sequential_out, graph=graph))
    parallel_out = {}
    run(parallel_pagerank_body(
        ParallelPageRankConfig(base=BASE, threads=1), parallel_out, graph=graph
    ))
    ratio = (
        parallel_out["result"].elapsed_ns
        / sequential_out["result"].elapsed_ns
    )
    assert 0.8 < ratio < 1.3


def test_config_validation():
    with pytest.raises(WorkloadError):
        ParallelPageRankConfig(threads=0)


def _per_arc_ranks(graph, config, iterations, pull):
    """Power iteration dividing every arc's rank by its sender's degree.

    The serial body pushes along each row's arcs into the column vertex;
    the parallel body pulls into each row vertex from its columns.  The
    two sum a vertex's in-arcs in different orders, so each body has its
    own reference.
    """
    n = graph.vertex_count
    out_degree = np.maximum(graph.out_degrees(), 1)
    rows = np.repeat(np.arange(n), np.diff(graph.row_ptr))
    cols = graph.col.astype(np.int64)
    senders, receivers = (cols, rows) if pull else (rows, cols)
    ranks = np.full(n, 1.0 / n)
    teleport = (1.0 - config.damping) / n
    for _ in range(iterations):
        contributions = ranks[senders] / out_degree[senders]
        ranks = teleport + config.damping * np.bincount(
            receivers, weights=contributions, minlength=n
        )
    return ranks


def test_gathered_contributions_match_the_per_arc_iteration_bit_for_bit():
    fast_graph = synthetic_scale_free(3_000, 5, seed=1)
    config = PageRankConfig(
        vertex_count=3_000, edges_per_vertex=5, max_iterations=12,
        tolerance=1e-15,
    )
    out = {}
    run(pagerank_body(config, out, graph=fast_graph))
    assert out["result"].iterations == 12
    assert out["result"].ranks.tobytes() == _per_arc_ranks(
        fast_graph, config, 12, pull=False
    ).tobytes()
    pulled = _per_arc_ranks(fast_graph, config, 12, pull=True).tobytes()
    for threads in (1, 4):
        out = {}
        run(parallel_pagerank_body(
            ParallelPageRankConfig(base=config, threads=threads), out,
            graph=fast_graph,
        ))
        assert out["result"].iterations == 12
        assert out["result"].ranks.tobytes() == pulled
