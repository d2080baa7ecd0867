"""Barrier-synchronised parallel PageRank — a Section 7 extension.

The paper's PageRank is single-threaded; its future work asks for
emulation support of "other parallel programming constructs such as
OpenMP primitives".  This workload exercises exactly that: a
bulk-synchronous-parallel PageRank where worker threads own
edge-balanced vertex ranges, gather/scatter their share of each
iteration's traffic, and meet at a :class:`~repro.os.sync.Barrier`
(Quartz interposes on the barrier to inject accumulated delay before
arrival, so per-iteration skew propagates correctly).

The numerics remain exact: each worker computes its own destination
range with the sequential implementation's contribution formula, so the
ranks are bit-identical for every thread count and match the sequential
ones to rounding (a vertex sums its in-arcs in its CSR row's order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import WorkloadError
from repro.hw.topology import PageSize
from repro.ops import BarrierWait, JoinThread, MemBatch, PatternKind, SpawnThread
from repro.os.sync import Barrier
from repro.units import MIB
from repro.workloads.graphs import CsrGraph
from repro.workloads.pagerank import PageRankConfig, PageRankResult, default_graph


@dataclass(frozen=True)
class ParallelPageRankConfig:
    """Parallel-run parameters wrapping a base PageRank config."""

    base: PageRankConfig = PageRankConfig()
    threads: int = 4

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise WorkloadError(f"need at least one thread: {self.threads}")


def _partition_by_edges(graph: CsrGraph, parts: int) -> list[tuple[int, int]]:
    """Split vertices into ranges with roughly equal in-edge counts."""
    targets = [
        round(index * graph.edge_count / parts) for index in range(parts + 1)
    ]
    boundaries = np.searchsorted(graph.row_ptr, targets, side="left")
    boundaries[0], boundaries[-1] = 0, graph.vertex_count
    return [
        (int(boundaries[index]), int(boundaries[index + 1]))
        for index in range(parts)
    ]


class _SharedState:
    """Cross-thread iteration state (plain Python, DES-atomic)."""

    def __init__(self, graph: CsrGraph, config: PageRankConfig):
        self.graph = graph
        self.config = config
        self.out_degree = np.maximum(graph.out_degrees(), 1)
        self.src = np.repeat(
            np.arange(graph.vertex_count), np.diff(graph.row_ptr)
        )
        self.dst = graph.col.astype(np.int64)
        self.ranks = np.full(graph.vertex_count, 1.0 / graph.vertex_count)
        # What each vertex sends along every out-arc this iteration.
        self.contrib = self.ranks / self.out_degree
        self.next_ranks = np.zeros(graph.vertex_count)
        self.residual = np.inf
        self.iterations = 0
        self.done = False


def _worker_body(ctx, shared: _SharedState, regions, vertex_range, barrier):
    config = shared.config
    graph = shared.graph
    low, high = vertex_range
    edge_low = int(graph.row_ptr[low])
    edge_high = int(graph.row_ptr[high])
    my_edges = edge_high - edge_low
    my_vertices = high - low
    teleport = (1.0 - config.damping) / graph.vertex_count
    row_region, edge_region, rank_region, next_region = regions
    hot = int(my_edges * config.hot_access_fraction)
    cold = my_edges - hot
    while not shared.done:
        # -- this worker's share of the iteration's memory traffic ------
        if my_vertices:
            yield MemBatch(
                row_region, my_vertices, PatternKind.SEQUENTIAL,
                stride_bytes=8, label="ppr-rowptr",
            )
        if my_edges:
            yield MemBatch(
                edge_region, my_edges, PatternKind.SEQUENTIAL, stride_bytes=4,
                compute_cycles_per_access=config.compute_cycles_per_edge,
                label="ppr-edges",
            )
            if hot:
                yield MemBatch(
                    rank_region, hot, PatternKind.RANDOM,
                    footprint_bytes=min(
                        4 * MIB,
                        graph.vertex_count * config.bytes_per_vertex,
                    ),
                    parallelism=config.gather_parallelism,
                    label="ppr-gather-hot",
                )
            if cold:
                yield MemBatch(
                    rank_region, cold, PatternKind.RANDOM,
                    footprint_bytes=graph.vertex_count * config.bytes_per_vertex,
                    parallelism=config.gather_parallelism,
                    label="ppr-gather-cold",
                )
        if my_vertices:
            yield MemBatch(
                next_region, my_vertices, PatternKind.SEQUENTIAL,
                stride_bytes=config.bytes_per_vertex, is_store=True,
                label="ppr-scatter",
            )
        # -- this worker's share of the numerics --------------------------
        # The graph is symmetric, so CSR rows double as in-edge lists:
        # row vertices of [low, high) are the *destinations* this worker
        # owns and the column entries are the contributing sources.
        sources = shared.dst[edge_low:edge_high]
        destinations = shared.src[edge_low:edge_high]
        contributions = shared.contrib[sources]
        partial = np.bincount(
            destinations - low, weights=contributions, minlength=my_vertices
        )[:my_vertices]
        shared.next_ranks[low:high] = teleport + config.damping * partial
        yield BarrierWait(barrier)  # all partials written
        if low == 0:  # one designated thread advances the iteration
            shared.residual = float(
                np.abs(shared.next_ranks - shared.ranks).sum()
            )
            shared.ranks, shared.next_ranks = (
                shared.next_ranks.copy(), shared.next_ranks,
            )
            shared.contrib = shared.ranks / shared.out_degree
            shared.iterations += 1
            shared.done = (
                shared.iterations >= config.max_iterations
                or shared.residual < config.tolerance
            )
        yield BarrierWait(barrier)  # iteration state published


def parallel_pagerank_body(
    config: ParallelPageRankConfig, out: dict, graph: Optional[CsrGraph] = None
):
    """Main-thread body factory; result lands in ``out['result']``."""

    def body(ctx):
        nonlocal graph
        if graph is None:
            graph = default_graph(config.base)
        base = config.base
        n, m = graph.vertex_count, graph.edge_count
        alloc = ctx.pmalloc if base.persistent else ctx.malloc
        regions = (
            alloc(max(64, (n + 1) * 8), label="ppr-rowptr"),
            alloc(max(64, m * 4), label="ppr-edges"),
            alloc(max(64, n * base.bytes_per_vertex),
                  page_size=PageSize.HUGE_2M, label="ppr-ranks"),
            alloc(max(64, n * base.bytes_per_vertex),
                  page_size=PageSize.HUGE_2M, label="ppr-next"),
        )
        shared = _SharedState(graph, base)
        barrier = Barrier(ctx.os, parties=config.threads, name="ppr")
        ranges = _partition_by_edges(graph, config.threads)
        start = ctx.now_ns
        workers = []
        for index, vertex_range in enumerate(ranges):
            workers.append(
                (
                    yield SpawnThread(
                        _worker_body,
                        name=f"ppr{index}",
                        args=(shared, regions, vertex_range, barrier),
                    )
                )
            )
        for worker in workers:
            yield JoinThread(worker)
        out["result"] = PageRankResult(
            config=base,
            iterations=shared.iterations,
            residual=shared.residual,
            elapsed_ns=ctx.now_ns - start,
            ranks=shared.ranks,
        )
        return out["result"]

    return body
