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
"""

from __future__ import annotations

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
        if not 0.0 < self.damping < 1.0:
            raise WorkloadError(f"damping must be in (0,1): {self.damping}")
        if self.tolerance <= 0:
            raise WorkloadError(f"tolerance must be positive: {self.tolerance}")
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
        if self.compute_cycles_per_edge < 0:
            raise WorkloadError(
                "compute cycles per edge cannot be negative: "
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

        # Real numerics: contributions pushed along arcs.
        out_degree = np.maximum(graph.out_degrees(), 1)
        src = np.repeat(np.arange(n), np.diff(graph.row_ptr))
        dst = graph.col.astype(np.int64)
        ranks = np.full(n, 1.0 / n)
        teleport = (1.0 - config.damping) / n
        start = ctx.now_ns
        iterations = 0
        residual = np.inf
        while iterations < config.max_iterations and residual >= config.tolerance:
            # -- memory traffic of one iteration ------------------------
            yield MemBatch(
                row_region, n, PatternKind.SEQUENTIAL, stride_bytes=8,
                label="pr-rowptr-scan",
            )
            yield MemBatch(
                edge_region, m, PatternKind.SEQUENTIAL, stride_bytes=4,
                compute_cycles_per_access=config.compute_cycles_per_edge,
                label="pr-edge-scan",
            )
            if hot_accesses:
                # Hub ranks: concentrated accesses that stay LLC-resident.
                yield MemBatch(
                    rank_region, hot_accesses, PatternKind.RANDOM,
                    footprint_bytes=min(4 * MIB, n * config.bytes_per_vertex),
                    parallelism=config.gather_parallelism,
                    label="pr-gather-hot",
                )
            if cold_accesses:
                yield MemBatch(
                    rank_region, cold_accesses, PatternKind.RANDOM,
                    footprint_bytes=n * config.bytes_per_vertex,
                    parallelism=config.gather_parallelism,
                    label="pr-gather-cold",
                )
            yield MemBatch(
                next_region, n, PatternKind.SEQUENTIAL,
                stride_bytes=config.bytes_per_vertex,
                is_store=True, label="pr-scatter",
            )
            # -- the actual numerics ------------------------------------
            contributions = (ranks / out_degree)[src]
            next_ranks = teleport + config.damping * np.bincount(
                dst, weights=contributions, minlength=n
            )
            residual = float(np.abs(next_ranks - ranks).sum())
            ranks = next_ranks
            iterations += 1
        out["result"] = PageRankResult(
            config=config,
            iterations=iterations,
            residual=residual,
            elapsed_ns=ctx.now_ns - start,
            ranks=ranks,
        )
        return out["result"]

    return body
