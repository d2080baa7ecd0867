"""Graph500-style BFS — the extended-validation workload of Section 7.

The paper's conclusion reports <12% error for the Graph500 reference
implementation on HP's hardware latency emulator.  We implement the
Graph500 kernel-2 shape: level-synchronous BFS from sampled roots,
building a real parent tree (validated like the benchmark's own checker)
while charging the memory system per level:

* a sequential scan of the frontier;
* one random access into the visited/parent structure per inspected edge
  (the latency-bound part — the structure must exceed the LLC for the
  benchmark to be meaningful, as at real Graph500 scales);
* a sequential read of the adjacency of the frontier.

The traversal itself is vectorised with numpy so multi-million-vertex
graphs run in seconds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import WorkloadError
from repro.hw.topology import PageSize
from repro.ops import Commit, MemBatch, PatternKind
from repro.units import CACHE_LINE_BYTES, MIB
from repro.workloads.graphs import (
    CsrGraph,
    synthetic_power_law,
    synthetic_scale_free,
)


@dataclass(frozen=True)
class Graph500Config:
    """Parameters of one BFS (Graph500 kernel-2 style) run."""

    vertex_count: int = 2_000_000
    edges_per_vertex: int = 4
    roots: int = 1
    seed: int = 0
    persistent: bool = True
    compute_cycles_per_edge: float = 8.0
    #: Bytes of per-vertex BFS state (parent pointer + visited flag +
    #: level, as in reference implementations).
    bytes_per_vertex: int = 16
    #: Independent visited-probe loads in flight.
    probe_parallelism: int = 8

    def __post_init__(self) -> None:
        if self.roots < 1:
            raise WorkloadError(f"need at least one root: {self.roots}")
        if self.bytes_per_vertex < 1:
            raise WorkloadError(
                f"vertex state must have a size: {self.bytes_per_vertex}"
            )
        if self.compute_cycles_per_edge < 0:
            raise WorkloadError(
                "compute cycles per edge cannot be negative: "
                f"{self.compute_cycles_per_edge}"
            )


@dataclass
class Graph500Result:
    """Output of one BFS run."""

    config: Graph500Config
    traversed_edges: int
    elapsed_ns: float
    #: Parent array of the last BFS (for validation).
    parents: np.ndarray

    @property
    def teps(self) -> float:
        """Traversed edges per second (the Graph500 metric)."""
        if self.elapsed_ns <= 0:
            return 0.0
        return self.traversed_edges / self.elapsed_ns * 1e9


def default_graph(config: Graph500Config) -> CsrGraph:
    """The graph a config implies (exact generator for small instances)."""
    if config.vertex_count >= 50_000:
        return synthetic_power_law(
            config.vertex_count, config.edges_per_vertex, seed=config.seed
        )
    return synthetic_scale_free(
        config.vertex_count, config.edges_per_vertex, seed=config.seed
    )


def validate_bfs_tree(graph: CsrGraph, root: int, parents: np.ndarray) -> bool:
    """Graph500-style check: every reached vertex's parent edge exists
    and the root is its own parent."""
    if parents[root] != root:
        return False
    for vertex in range(graph.vertex_count):
        parent = parents[vertex]
        if parent < 0 or vertex == root:
            continue
        if vertex not in graph.neighbors(parent):
            return False
    return True


def _expand_frontier(
    graph: CsrGraph, frontier: np.ndarray, parents: np.ndarray
) -> tuple[np.ndarray, int]:
    """Vectorised level expansion: returns (next frontier, edges inspected)."""
    starts = graph.row_ptr[frontier]
    counts = graph.row_ptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), 0
    # Index every edge of the frontier: starts repeated, plus a running
    # within-vertex offset.
    bases = np.repeat(starts, counts)
    resets = np.repeat(np.cumsum(counts) - counts, counts)
    offsets = np.arange(total, dtype=np.int64) - resets
    neighbors = graph.col[bases + offsets].astype(np.int64)
    sources = np.repeat(frontier, counts)
    unvisited = parents[neighbors] < 0
    neighbors = neighbors[unvisited]
    sources = sources[unvisited]
    if neighbors.size == 0:
        return np.empty(0, dtype=np.int64), total
    fresh, first_index = np.unique(neighbors, return_index=True)
    parents[fresh] = sources[first_index]
    return fresh, total


def graph500_body(
    config: Graph500Config, out: dict, graph: Optional[CsrGraph] = None
):
    """Workload body factory; result lands in ``out['result']``."""

    def body(ctx):
        nonlocal graph
        if graph is None:
            graph = default_graph(config)
        n = graph.vertex_count
        alloc = ctx.pmalloc if config.persistent else ctx.malloc
        edge_region = alloc(max(64, graph.edge_count * 4), label="bfs-edges")
        visited_region = alloc(
            max(64, n * config.bytes_per_vertex),
            page_size=PageSize.HUGE_2M,
            label="bfs-visited",
        )
        frontier_region = alloc(max(64, n * 8), label="bfs-frontier")

        rng = random.Random(config.seed)
        roots = [rng.randrange(n) for _ in range(config.roots)]
        total_traversed = 0
        parents = np.full(n, -1, dtype=np.int64)
        start = ctx.now_ns
        for root in roots:
            parents = np.full(n, -1, dtype=np.int64)
            parents[root] = root
            frontier = np.array([root], dtype=np.int64)
            while frontier.size:
                # -- memory traffic of this level ----------------------
                yield MemBatch(
                    frontier_region,
                    int(frontier.size),
                    PatternKind.SEQUENTIAL,
                    stride_bytes=8,
                    label="bfs-frontier-scan",
                )
                level_edges = int(
                    (graph.row_ptr[frontier + 1] - graph.row_ptr[frontier]).sum()
                )
                if level_edges:
                    yield MemBatch(
                        edge_region,
                        level_edges,
                        PatternKind.SEQUENTIAL,
                        stride_bytes=4,
                        compute_cycles_per_access=config.compute_cycles_per_edge,
                        label="bfs-adjacency",
                    )
                    yield MemBatch(
                        visited_region,
                        level_edges,
                        PatternKind.RANDOM,
                        footprint_bytes=n * config.bytes_per_vertex,
                        parallelism=config.probe_parallelism,
                        label="bfs-visited-probe",
                    )
                # -- the actual traversal (vectorised) ------------------
                frontier, inspected = _expand_frontier(graph, frontier, parents)
                total_traversed += inspected
        out["result"] = Graph500Result(
            config=config,
            traversed_edges=total_traversed,
            elapsed_ns=ctx.now_ns - start,
            parents=parents,
        )
        return out["result"]

    return body


# ----------------------------------------------------------------------
# Crash-checkable variant (repro.pmem)
# ----------------------------------------------------------------------

PMBFS_LABEL = "pmbfs"


def _bfs_arena_bytes(vertex_count: int) -> int:
    return max(MIB, (vertex_count + 1) * CACHE_LINE_BYTES)


def _bfs_parent_levels(
    graph: CsrGraph, root: int
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic replay of the BFS the recoverable body runs.

    Shared by recovery so it can recompute, from the graph alone, exactly
    which ``(vertex, parent, level)`` records the persisted header claims
    durable.  Must stay in lockstep with the body's use of
    :func:`_expand_frontier`.
    """
    parents = np.full(graph.vertex_count, -1, dtype=np.int64)
    levels = np.full(graph.vertex_count, -1, dtype=np.int64)
    parents[root] = root
    levels[root] = 0
    frontier = np.array([root], dtype=np.int64)
    level = 0
    while frontier.size:
        frontier, _ = _expand_frontier(graph, frontier, parents)
        level += 1
        levels[frontier] = level
    return parents, levels


def _contiguous_runs(vertices: list):
    """Yield ``(start, length)`` for maximal runs of consecutive ints.

    Input must be sorted ascending (``_expand_frontier`` returns the
    frontier via ``np.unique``, so level output already is).
    """
    start = prev = None
    for vertex in vertices:
        if start is None:
            start = prev = vertex
        elif vertex == prev + 1:
            prev = vertex
        else:
            yield start, prev - start + 1
            start = prev = vertex
    if start is not None:
        yield start, prev - start + 1


def recoverable_graph500_body(
    config: Graph500Config,
    out: dict,
    domain,
    mutant: Optional[str] = None,
    graph: Optional[CsrGraph] = None,
):
    """Crash-checkable BFS: a durable, header-indexed parent tree.

    Line 0 holds ``("levels", L, root)`` — the claim that every vertex of
    BFS level <= L has a durable ``("parent", v, parent, level)`` record
    at line ``1 + v``.  Correct protocol per level: persist the fresh
    parent records, then the header.  ``missing-flush`` never flushes
    parent records; ``misordered-barrier`` persists them only after the
    header already claimed them.
    """

    def body(ctx):
        nonlocal graph
        if graph is None:
            graph = default_graph(config)
        n = graph.vertex_count
        arena = ctx.pmalloc(
            _bfs_arena_bytes(n), page_size=PageSize.HUGE_2M, label=PMBFS_LABEL
        )
        # Mirrors graph500_body's root sampling (first root).
        root = random.Random(config.seed).randrange(n)
        parents = np.full(n, -1, dtype=np.int64)
        parents[root] = root

        def flush_level(vertices):
            for run_start, run_length in _contiguous_runs(vertices):
                yield from ctx.pflush(
                    arena, lines=run_length, line=1 + run_start
                )
            yield Commit()

        frontier = np.array([root], dtype=np.int64)
        fresh = [root]
        domain.record(arena, 1 + root, ("parent", root, root, 0))
        level = 0
        traversed = 0
        while True:
            # Persist this level's parent records...
            yield MemBatch(
                arena,
                accesses=len(fresh),
                pattern=PatternKind.RANDOM,
                footprint_bytes=max(
                    CACHE_LINE_BYTES, n * config.bytes_per_vertex
                ),
                is_store=True,
                label="pmbfs-parent-write",
            )
            if mutant is None:
                yield from flush_level(fresh)
            # ...then the header that makes them reachable.
            domain.record(arena, 0, ("levels", level, root))
            yield MemBatch(
                arena,
                accesses=1,
                pattern=PatternKind.RANDOM,
                footprint_bytes=CACHE_LINE_BYTES,
                is_store=True,
                label="pmbfs-header-write",
            )
            yield from ctx.pflush(arena, lines=1, line=0)
            yield Commit()
            if mutant == "misordered-barrier":
                yield from flush_level(fresh)
            next_frontier, inspected = _expand_frontier(
                graph, frontier, parents
            )
            traversed += inspected
            if inspected:
                yield MemBatch(
                    arena,
                    accesses=inspected,
                    pattern=PatternKind.RANDOM,
                    footprint_bytes=max(
                        CACHE_LINE_BYTES, n * config.bytes_per_vertex
                    ),
                    parallelism=config.probe_parallelism,
                    label="pmbfs-visited-probe",
                )
            if next_frontier.size == 0:
                break
            level += 1
            fresh = [int(vertex) for vertex in next_frontier]
            for vertex in fresh:
                domain.record(
                    arena,
                    1 + vertex,
                    ("parent", vertex, int(parents[vertex]), level),
                )
            frontier = next_frontier
        out["result"] = {
            "root": root,
            "levels": level,
            "reached": int((parents >= 0).sum()),
            "traversed_edges": traversed,
            "mutant": mutant,
        }
        return out["result"]

    return body


class RecoverableGraph500:
    """Crash-checkable BFS (see :mod:`repro.pmem.checker`)."""

    workload_id = "graph500"

    def __init__(self, config: Graph500Config, mutant: Optional[str] = None):
        self.config = config
        self.mutant = mutant
        self._graph: Optional[CsrGraph] = None
        self._replay_cache: dict = {}

    def invariants(self) -> tuple:
        return ("reached-prefix-durable", "parent-edge-exists")

    def body_factory(self, domain, out: dict):
        return recoverable_graph500_body(
            self.config, out, domain, self.mutant
        )

    def _replay(self, root: int):
        if self._graph is None:
            self._graph = default_graph(self.config)
        if root not in self._replay_cache:
            self._replay_cache[root] = _bfs_parent_levels(self._graph, root)
        return self._graph, self._replay_cache

    def recover(self, image) -> list:
        """Restart-time check: the durable tree matches the header claim."""
        issues: list = []
        lines = image.lines(PMBFS_LABEL)
        header = lines.get(0)
        if header is None:
            return issues  # nothing committed: trivially consistent
        _, claimed_level, root = header
        graph, cache = self._replay(root)
        parents, levels = cache[root]
        for vertex in range(graph.vertex_count):
            level = int(levels[vertex])
            if level < 0 or level > claimed_level:
                continue
            expected = ("parent", vertex, int(parents[vertex]), level)
            got = lines.get(1 + vertex)
            if got != expected:
                issues.append(
                    {
                        "invariant": "reached-prefix-durable",
                        "detail": (
                            f"header claims level {claimed_level} but "
                            f"vertex {vertex} (level {level}) holds "
                            f"{got!r}, expected {expected!r}"
                        ),
                    }
                )
        # Graph500-style structural validation of whatever *is* durable.
        for line, payload in lines.items():
            if line == 0:
                continue
            _, vertex, parent, level = payload
            if vertex == parent:
                continue
            if vertex not in graph.neighbors(parent):
                issues.append(
                    {
                        "invariant": "parent-edge-exists",
                        "detail": (
                            f"durable record claims parent {parent} for "
                            f"vertex {vertex} but the graph has no such "
                            f"edge"
                        ),
                    }
                )
        return issues
