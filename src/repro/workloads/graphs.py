"""Synthetic scale-free graphs — the substrate for PageRank and BFS.

The paper's PageRank runs on a 4.8M-vertex / 69M-edge web crawl we do not
have; per the substitution rule we generate preferential-attachment
(Barabási–Albert style) graphs, which preserve the property that matters
for the memory model: a heavy-tailed degree distribution driving random
accesses over a rank/visited vector much larger than the LLC.  Sizes are
scaled down (documented in EXPERIMENTS.md) but configurable.

Both generators are pure functions of their arguments, and experiments
ask for the same graph many times (drivers sharing a preset, workload
bodies that build their default graph on every run, crash recovery
replaying the graph its body ran on), so the public entry points go
through a content-addressed, per-process :class:`~repro.workloads.memo.Memo`:
the key is the generator plus every argument and its type, arguments are
validated on every call, at most :data:`MEMO_LIMIT` graphs are kept
(least recently used first out), and a cached graph's arrays are
read-only so no caller can alter a graph another caller shares.  Only
pure host-side functional work is memoized, keyed on everything it
reads; a run's simulated costs never are.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.memo import Memo, typed


@dataclass(frozen=True)
class CsrGraph:
    """A directed graph in compressed-sparse-row form.

    Undirected source graphs are stored with both edge directions, so
    ``edge_count`` counts directed arcs.
    """

    vertex_count: int
    row_ptr: np.ndarray  # int64, len = vertex_count + 1
    col: np.ndarray  # int32, len = edge_count

    def __post_init__(self) -> None:
        if len(self.row_ptr) != self.vertex_count + 1:
            raise WorkloadError("row_ptr length must be vertex_count + 1")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != len(self.col):
            raise WorkloadError("row_ptr must span the column array")

    @property
    def edge_count(self) -> int:
        """Number of directed arcs."""
        return int(len(self.col))

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex."""
        return np.diff(self.row_ptr)

    def neighbors(self, vertex: int) -> np.ndarray:
        """Successors of one vertex."""
        return self.col[self.row_ptr[vertex] : self.row_ptr[vertex + 1]]


#: Graphs the memo keeps.  An experiment needs one or two distinct
#: graphs; a bound this small keeps a sweep over many seeds from holding
#: every graph it ever built.
MEMO_LIMIT = 4

_MEMO = Memo(MEMO_LIMIT)


def _memoized(build: Callable[..., CsrGraph], *args) -> CsrGraph:
    """``build(*args)``, built once per process for equal arguments.

    Argument types are part of the key, so ``True`` never aliases ``1``
    and a value a fresh build would reject never hits a cached graph.
    """
    return _MEMO.get((build, *typed(*args)), lambda: _read_only(build(*args)))


def _read_only(graph: CsrGraph) -> CsrGraph:
    graph.row_ptr.flags.writeable = False
    graph.col.flags.writeable = False
    return graph


def _csr(vertex_count: int, src: np.ndarray, dst: np.ndarray) -> CsrGraph:
    """CSR form of the arcs ``src[i] -> dst[i]``, each row in arc order."""
    order = np.argsort(src, kind="stable")
    row_ptr = np.zeros(vertex_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=vertex_count), out=row_ptr[1:])
    return CsrGraph(
        vertex_count=vertex_count,
        row_ptr=row_ptr,
        col=dst.astype(np.int32)[order],
    )


def synthetic_scale_free(
    vertex_count: int, edges_per_vertex: int, seed: int = 0
) -> CsrGraph:
    """Preferential-attachment graph, symmetrised into CSR form.

    Each new vertex attaches to ``edges_per_vertex`` existing vertices
    sampled proportionally to degree (by drawing from the running
    endpoint list), yielding the heavy-tailed degree distribution of web
    and social graphs.  The endpoint list must stay below 2**32 entries.
    """
    if vertex_count < 2:
        raise WorkloadError(f"need at least two vertices: {vertex_count}")
    if edges_per_vertex < 1:
        raise WorkloadError(f"need at least one edge per vertex: {edges_per_vertex}")
    if edges_per_vertex >= vertex_count:
        raise WorkloadError("edges_per_vertex must be below vertex_count")
    if 2 * edges_per_vertex * (vertex_count - 1) + 1 >= _ONE_WORD_LIMIT:
        raise WorkloadError(
            "endpoint pool would reach 2**32 entries, past the one-word draws "
            f"the builder reads: 2 * {edges_per_vertex} * ({vertex_count} - 1) + 1"
        )
    return _memoized(_build_scale_free, vertex_count, edges_per_vertex, seed)


def _build_scale_free(
    vertex_count: int, edges_per_vertex: int, seed: int
) -> CsrGraph:
    # The pool is [0, v, t, v, t, ...]: after the seed vertex, the arcs
    # v -> t of the attachment order, interleaved.
    pool = np.array(_attachment_pool(vertex_count, edges_per_vertex, seed))
    sources, targets = pool[1::2], pool[2::2]
    # Symmetrise: store both arc directions.
    src = np.concatenate([sources, targets])
    dst = np.concatenate([targets, sources])
    return _csr(vertex_count, src, dst)


#: MT19937 words the scale-free builder pulls from the generator at a
#: time.  Held as a Python list a word costs about 40 bytes, so a chunk
#: this size adds about 1.3 MB to a build however large its pool grows.
WORD_CHUNK = 1 << 15

#: Pool length at which ``randrange`` needs more than one 32-bit word.
_ONE_WORD_LIMIT = 1 << 32


def _mt19937(seed) -> np.random.MT19937:
    """A numpy MT19937 in the state ``random.Random(seed)`` starts in."""
    state = random.Random(seed).getstate()[1]
    generator = np.random.MT19937(0)
    generator.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(state[:-1], dtype=np.uint32), "pos": state[-1]},
    }
    return generator


def _attachment_pool(
    vertex_count: int, edges_per_vertex: int, seed: int
) -> list[int]:
    """The endpoint pool, drawn as ``random.Random(seed).randrange`` would.

    Each new vertex draws ``endpoint_pool[rng.randrange(len(endpoint_pool))]``
    until it has ``min(edges_per_vertex, vertex)`` distinct targets.
    CPython's ``randrange(n)`` rejection-samples ``getrandbits(k)`` with
    ``k = n.bit_length()``, and for ``k <= 32`` that is the top ``k`` bits
    of one MT19937 word.  So the words are read in bulk from a numpy
    MT19937 in the same state, shifted to the pool length's bit length in
    numpy, and rejected inline: every draw, and so the pool, is the one
    the stdlib loop would make.
    """
    generator = _mt19937(seed)
    # Every draw lands in this list twice, making sampling degree-biased.
    endpoint_pool: list[int] = [0]
    append = endpoint_pool.append
    pool_size = 1
    # randrange(pool_size) reads `bits` bits while pool_size < band_end.
    bits, band_end = 1, 2
    raw = generator.random_raw(WORD_CHUNK)
    words = iter((raw >> (32 - bits)).tolist())
    for vertex in range(1, vertex_count):
        if pool_size >= band_end:
            bits = pool_size.bit_length()
            band_end = 1 << bits
            # Re-shift the words this chunk has left to the new width.
            raw = raw[len(raw) - operator.length_hint(words):]
            words = iter((raw >> (32 - bits)).tolist())
        attach_count = min(edges_per_vertex, vertex)
        chosen: set[int] = set()
        add = chosen.add
        need = attach_count
        while need:
            for word in words:
                if word < pool_size:
                    add(endpoint_pool[word])
                    need -= 1
                    if not need:
                        break
            else:  # chunk used up mid-vertex: draw the next one
                raw = generator.random_raw(WORD_CHUNK)
                words = iter((raw >> (32 - bits)).tolist())
                continue
            # A target drawn twice counts once.
            need = attach_count - len(chosen)
        # The set's iteration order fixes the pool layout.
        for target in chosen:
            append(vertex)
            append(target)
        pool_size += 2 * attach_count
    return endpoint_pool


def synthetic_power_law(
    vertex_count: int,
    avg_degree: int,
    exponent: float = 2.1,
    seed: int = 0,
) -> CsrGraph:
    """Large power-law graph via the configuration model (vectorised).

    Used for experiment-scale graphs (hundreds of thousands of vertices)
    where :func:`synthetic_scale_free`, which still visits every draw in
    Python, would be too slow.  Degrees are Zipf-distributed with the
    given exponent (clipped), stubs are shuffled and paired; self-loops
    are dropped.
    """
    if vertex_count < 2:
        raise WorkloadError(f"need at least two vertices: {vertex_count}")
    if avg_degree < 1:
        raise WorkloadError(f"need at least one edge per vertex: {avg_degree}")
    if exponent <= 1.0:
        raise WorkloadError(f"exponent must exceed 1: {exponent}")
    return _memoized(_build_power_law, vertex_count, avg_degree, exponent, seed)


def _build_power_law(
    vertex_count: int, avg_degree: int, exponent: float, seed: int
) -> CsrGraph:
    rng = np.random.default_rng(seed)
    degrees = rng.zipf(exponent, size=vertex_count).astype(np.int64)
    degrees = np.clip(degrees, 1, max(2, vertex_count // 10))
    # Scale to the requested average degree.
    degrees = np.maximum(
        1, (degrees * (avg_degree * vertex_count / degrees.sum())).astype(np.int64)
    )
    if degrees.sum() % 2 == 1:
        degrees[0] += 1
    stubs = np.repeat(np.arange(vertex_count, dtype=np.int64), degrees)
    rng.shuffle(stubs)
    half = len(stubs) // 2
    endpoint_a, endpoint_b = stubs[:half], stubs[half : 2 * half]
    keep = endpoint_a != endpoint_b
    endpoint_a, endpoint_b = endpoint_a[keep], endpoint_b[keep]
    src = np.concatenate([endpoint_a, endpoint_b])
    dst = np.concatenate([endpoint_b, endpoint_a])
    return _csr(vertex_count, src, dst)
