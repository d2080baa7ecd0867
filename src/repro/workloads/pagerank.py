"""PageRank — the single-threaded Big Data application of Section 4.7.

The paper uses Gleich et al.'s linear-system PageRank on a 4.8M/69M web
graph (converging after 64 iterations).  We run real power iteration
(damped, L1 convergence test) over a synthetic scale-free graph, computing
genuine ranks with numpy while charging the memory system for the traffic
each iteration generates:

* a sequential pass over the CSR row pointers and edge array;
* ``edge_count`` random reads of the rank vector — the latency-sensitive
  part (the rank vector is much larger than the LLC for realistic sizes);
* a sequential store pass writing the next rank vector.

Under Quartz the arrays live in persistent memory (``pmalloc``), so the
emulator's injected delays stretch exactly the phases a slower NVM would.

The ranks are a pure function of the graph and three config values, and
a validation pair runs them twice on one graph, so they are computed
once per process for each (graph, ``damping``, ``tolerance``,
``max_iterations``) and the body re-yields every iteration's traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import WorkloadError
from repro.hw.topology import PageSize
from repro.ops import MemBatch, PatternKind
from repro.units import MIB
from repro.workloads.graphs import (
    CsrGraph,
    synthetic_power_law,
    synthetic_scale_free,
)
from repro.workloads.memo import Memo, typed


def default_graph(config: "PageRankConfig") -> CsrGraph:
    """The graph a config implies: exact preferential attachment for
    small instances, the vectorised configuration model at scale."""
    if config.vertex_count >= 50_000:
        return synthetic_power_law(
            config.vertex_count, config.edges_per_vertex, seed=config.seed
        )
    return synthetic_scale_free(
        config.vertex_count, config.edges_per_vertex, seed=config.seed
    )


@dataclass(frozen=True)
class PageRankConfig:
    """Parameters of one PageRank run."""

    vertex_count: int = 600_000
    edges_per_vertex: int = 6
    damping: float = 0.85
    tolerance: float = 1e-7
    max_iterations: int = 100
    seed: int = 0
    #: Allocate graph + rank vectors with pmalloc (NVM under Quartz).
    persistent: bool = True
    #: CPU work per edge (rank scaling, compare-and-add, branch).
    compute_cycles_per_edge: float = 16.0
    #: Bytes per vertex record in the rank structure (rank + out-degree +
    #: metadata padded to a cache line, the common struct-of-vertex
    #: layout).  Makes the gather footprint vertex_count * 64 B.
    bytes_per_vertex: int = 64
    #: Fraction of rank-gather accesses landing on the hot (hub) vertices
    #: that stay LLC-resident — power-law graphs concentrate accesses on
    #: high-degree hubs.
    hot_access_fraction: float = 0.45
    #: Independent rank loads in flight (OOO window over edge lists).
    gather_parallelism: int = 10

    def __post_init__(self) -> None:
        if self.vertex_count < 2:
            raise WorkloadError(f"need at least two vertices: {self.vertex_count}")
        if self.edges_per_vertex < 1:
            raise WorkloadError(
                f"need at least one edge per vertex: {self.edges_per_vertex}"
            )
        if not 0.0 < self.damping < 1.0:
            raise WorkloadError(f"damping must be in (0,1): {self.damping}")
        if not 0.0 < self.tolerance < math.inf:
            raise WorkloadError(
                f"tolerance must be finite and positive: {self.tolerance}"
            )
        if self.max_iterations < 1:
            raise WorkloadError(f"need at least one iteration: {self.max_iterations}")
        if not 0.0 <= self.hot_access_fraction < 1.0:
            raise WorkloadError(
                f"hot fraction must be in [0,1): {self.hot_access_fraction}"
            )
        if self.gather_parallelism < 1:
            raise WorkloadError(
                f"gather parallelism must be >= 1: {self.gather_parallelism}"
            )
        if self.bytes_per_vertex < 1:
            raise WorkloadError(
                f"vertex record must have a size: {self.bytes_per_vertex}"
            )
        if not 0.0 <= self.compute_cycles_per_edge < math.inf:
            raise WorkloadError(
                "compute cycles per edge must be finite and cannot be negative: "
                f"{self.compute_cycles_per_edge}"
            )


@dataclass
class PageRankResult:
    """Output of one PageRank run."""

    config: PageRankConfig
    iterations: int
    residual: float
    elapsed_ns: float
    ranks: np.ndarray

    @property
    def converged(self) -> bool:
        """True if the L1 residual dropped below tolerance."""
        return self.residual < self.config.tolerance

    @property
    def top_vertex(self) -> int:
        """Highest-ranked vertex (sanity hook: hubs should win)."""
        return int(np.argmax(self.ranks))


#: Rank results the memo keeps.  A validation pair reads one entry
#: twice; each entry also holds its graph, so the bound also caps the
#: graphs kept alive past the graph memo's own bound.
RANK_MEMO_LIMIT = 4

_RANKS = Memo(RANK_MEMO_LIMIT)


def _power_iteration(
    graph: CsrGraph, damping: float, tolerance: float, max_iterations: int
) -> tuple:
    """``(iterations, residual, ranks)`` of damped power iteration."""
    n = graph.vertex_count
    # Contributions pushed along arcs.
    out_degree = np.maximum(graph.out_degrees(), 1)
    src = np.repeat(np.arange(n), np.diff(graph.row_ptr))
    dst = graph.col.astype(np.int64)
    ranks = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    iterations = 0
    residual = np.inf
    while iterations < max_iterations and residual >= tolerance:
        contributions = (ranks / out_degree)[src]
        next_ranks = teleport + damping * np.bincount(
            dst, weights=contributions, minlength=n
        )
        residual = float(np.abs(next_ranks - ranks).sum())
        ranks = next_ranks
        iterations += 1
    return iterations, residual, ranks


def _ranks(graph: CsrGraph, config: PageRankConfig) -> tuple:
    """:func:`_power_iteration` on *graph*, once per process for a
    read-only graph (every graph the graph memo hands out).

    The key is the graph's identity; the entry keeps the graph alive so
    its ``id`` cannot be reused.  A writable graph may change between
    runs, so it is computed on every call.
    """
    args = (config.damping, config.tolerance, config.max_iterations)
    if graph.row_ptr.flags.writeable or graph.col.flags.writeable:
        return _power_iteration(graph, *args)

    def build():
        iterations, residual, ranks = _power_iteration(graph, *args)
        ranks.flags.writeable = False
        return graph, iterations, residual, ranks

    return _RANKS.get((id(graph), *typed(*args)), build)[1:]


def pagerank_body(
    config: PageRankConfig, out: dict, graph: Optional[CsrGraph] = None
):
    """Workload body factory; result lands in ``out['result']``."""

    def body(ctx):
        nonlocal graph
        if graph is None:
            graph = default_graph(config)
        n = graph.vertex_count
        m = graph.edge_count
        alloc = ctx.pmalloc if config.persistent else ctx.malloc
        # Layout: CSR row pointers, edge array, two vertex-record vectors.
        row_region = alloc(max(64, (n + 1) * 8), label="pr-rowptr")
        edge_region = alloc(max(64, m * 4), label="pr-edges")
        rank_region = alloc(
            max(64, n * config.bytes_per_vertex),
            page_size=PageSize.HUGE_2M,
            label="pr-ranks",
        )
        next_region = alloc(
            max(64, n * config.bytes_per_vertex),
            page_size=PageSize.HUGE_2M,
            label="pr-next",
        )
        hot_accesses = int(m * config.hot_access_fraction)
        cold_accesses = m - hot_accesses
        # The memory traffic of one iteration.
        traffic = [
            MemBatch(
                row_region, n, PatternKind.SEQUENTIAL, stride_bytes=8,
                label="pr-rowptr-scan",
            ),
            MemBatch(
                edge_region, m, PatternKind.SEQUENTIAL, stride_bytes=4,
                compute_cycles_per_access=config.compute_cycles_per_edge,
                label="pr-edge-scan",
            ),
        ]
        if hot_accesses:
            # Hub ranks: concentrated accesses that stay LLC-resident.
            traffic.append(MemBatch(
                rank_region, hot_accesses, PatternKind.RANDOM,
                footprint_bytes=min(4 * MIB, n * config.bytes_per_vertex),
                parallelism=config.gather_parallelism,
                label="pr-gather-hot",
            ))
        if cold_accesses:
            traffic.append(MemBatch(
                rank_region, cold_accesses, PatternKind.RANDOM,
                footprint_bytes=n * config.bytes_per_vertex,
                parallelism=config.gather_parallelism,
                label="pr-gather-cold",
            ))
        traffic.append(MemBatch(
            next_region, n, PatternKind.SEQUENTIAL,
            stride_bytes=config.bytes_per_vertex,
            is_store=True, label="pr-scatter",
        ))
        iterations, residual, ranks = _ranks(graph, config)
        start = ctx.now_ns
        for _ in range(iterations):
            for op in traffic:
                yield op
        out["result"] = PageRankResult(
            config=config,
            iterations=iterations,
            residual=residual,
            elapsed_ns=ctx.now_ns - start,
            ranks=ranks,
        )
        return out["result"]

    return body
