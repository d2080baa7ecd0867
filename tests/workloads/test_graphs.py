"""Tests for the synthetic graph substrate."""

import hashlib
import itertools
import pickle
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads import graphs
from repro.workloads.graphs import synthetic_power_law, synthetic_scale_free


def test_basic_shape():
    graph = synthetic_scale_free(1000, 5, seed=1)
    assert graph.vertex_count == 1000
    # Each vertex past the first adds up to 5 undirected edges, stored in
    # both directions.
    assert graph.edge_count <= 2 * 5 * 999
    assert graph.edge_count >= 2 * 999  # at least one edge per new vertex


def test_csr_consistency():
    graph = synthetic_scale_free(500, 4, seed=2)
    degrees = graph.out_degrees()
    assert degrees.sum() == graph.edge_count
    assert (graph.col >= 0).all() and (graph.col < 500).all()


def test_symmetry():
    graph = synthetic_scale_free(200, 3, seed=3)
    arcs = set()
    for vertex in range(200):
        for neighbor in graph.neighbors(vertex):
            arcs.add((vertex, int(neighbor)))
    assert all((b, a) in arcs for a, b in arcs)


def test_deterministic_per_seed():
    a = synthetic_scale_free(300, 4, seed=9)
    b = synthetic_scale_free(300, 4, seed=9)
    c = synthetic_scale_free(300, 4, seed=10)
    assert np.array_equal(a.col, b.col)
    assert not np.array_equal(a.col, c.col)


def test_heavy_tail():
    """Preferential attachment must produce hub vertices."""
    graph = synthetic_scale_free(3000, 5, seed=4)
    degrees = graph.out_degrees()
    assert degrees.max() > 8 * np.median(degrees)


def test_connected():
    """Every vertex attaches to an existing one: one component."""
    graph = synthetic_scale_free(400, 2, seed=5)
    seen = {0}
    frontier = [0]
    while frontier:
        vertex = frontier.pop()
        for neighbor in graph.neighbors(vertex):
            neighbor = int(neighbor)
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    assert len(seen) == 400


def test_parameter_validation():
    with pytest.raises(WorkloadError):
        synthetic_scale_free(1, 1)
    with pytest.raises(WorkloadError):
        synthetic_scale_free(10, 0)
    with pytest.raises(WorkloadError):
        synthetic_scale_free(10, 10)


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 200), st.integers(1, 6), st.integers(0, 100))
def test_property_valid_csr(n, m, seed):
    if m >= n:
        m = n - 1
    graph = synthetic_scale_free(n, m, seed=seed)
    assert graph.row_ptr[0] == 0
    assert graph.row_ptr[-1] == graph.edge_count
    assert (np.diff(graph.row_ptr) >= 0).all()
    # No self loops.
    for vertex in range(n):
        assert vertex not in set(int(x) for x in graph.neighbors(vertex))


# ----------------------------------------------------------------------
# The input memo
# ----------------------------------------------------------------------
def _same_arrays(a, b):
    return (
        a.vertex_count == b.vertex_count
        and a.row_ptr.dtype == b.row_ptr.dtype
        and a.col.dtype == b.col.dtype
        and np.array_equal(a.row_ptr, b.row_ptr)
        and np.array_equal(a.col, b.col)
    )


def test_equal_arguments_return_the_same_graph():
    assert synthetic_scale_free(250, 3, seed=4) is synthetic_scale_free(250, 3, 4)
    assert synthetic_power_law(5_000, 3, seed=1) is synthetic_power_law(
        5_000, 3, 2.1, 1
    )


@pytest.mark.parametrize("array", ["col", "row_ptr"])
def test_cached_arrays_are_read_only(array):
    graph = synthetic_scale_free(250, 3, seed=4)
    with pytest.raises(ValueError):
        getattr(graph, array)[0] = 7
    with pytest.raises(ValueError):
        getattr(graph, array)[:] += 1


def test_distinct_arguments_never_collide():
    seen = {}
    for n, e, seed in itertools.product((60, 61), (2, 3), (0, 1)):
        graph = synthetic_scale_free(n, e, seed=seed)
        assert _same_arrays(graph, graphs._build_scale_free(n, e, seed))
        seen[(n, e, seed)] = graph
    assert len({id(graph) for graph in seen.values()}) == len(seen)


def test_argument_types_are_part_of_the_key():
    by_int = synthetic_scale_free(60, 2, seed=1)
    assert synthetic_scale_free(60, 2, seed=True) is not by_int
    assert synthetic_scale_free(60, 2, seed=1) is by_int


def test_memo_stays_within_its_bound_and_evicts_least_recently_used():
    kept = synthetic_scale_free(40, 2, seed=0)
    first = {}
    for seed in range(1, graphs.MEMO_LIMIT + 5):
        assert synthetic_scale_free(40, 2, seed=0) is kept  # recently used
        first[seed] = synthetic_scale_free(40, 2, seed=seed)
        assert len(graphs._MEMO) <= graphs.MEMO_LIMIT
    assert synthetic_scale_free(40, 2, seed=1) is not first[1]


def test_invalid_arguments_are_rejected_on_every_call():
    for _ in range(2):
        with pytest.raises(WorkloadError):
            synthetic_scale_free(10, 10)
        with pytest.raises(WorkloadError):
            synthetic_power_law(100, 2, exponent=1.0)


@pytest.mark.parametrize(
    "public, build, args",
    [
        (synthetic_scale_free, graphs._build_scale_free, (800, 4, 6)),
        (synthetic_power_law, graphs._build_power_law, (6_000, 4, 2.1, 6)),
    ],
    ids=["scale-free", "power-law"],
)
def test_memo_hit_equals_a_fresh_private_build(public, build, args):
    first = public(*args)
    hit = public(*args)
    assert hit is first
    fresh = build(*args)
    assert fresh is not hit and fresh.col.flags.writeable
    assert _same_arrays(hit, fresh)


def test_pickle_round_trip_gives_equal_arrays():
    graph = synthetic_power_law(6_000, 4, seed=6)
    clone = pickle.loads(pickle.dumps(graph))
    assert _same_arrays(clone, graph)


# ----------------------------------------------------------------------
# The bulk word stream of the scale-free builder
# ----------------------------------------------------------------------
def _stdlib_attachment_pool(vertex_count, edges_per_vertex, seed):
    """The reference: one ``random.Random.randrange`` call per draw."""
    rng = random.Random(seed)
    endpoint_pool = [0]
    for vertex in range(1, vertex_count):
        attach_count = min(edges_per_vertex, vertex)
        chosen = set()
        while len(chosen) < attach_count:
            chosen.add(endpoint_pool[rng.randrange(len(endpoint_pool))])
        for target in chosen:
            endpoint_pool.append(vertex)
            endpoint_pool.append(target)
    return endpoint_pool


def _stdlib_graph(vertex_count, edges_per_vertex, seed):
    with mock.patch.object(graphs, "_attachment_pool", _stdlib_attachment_pool):
        return graphs._build_scale_free(vertex_count, edges_per_vertex, seed)


@st.composite
def _scale_free_args(draw):
    vertex_count = draw(st.integers(2, 3_000))
    edges_per_vertex = draw(st.integers(1, min(12, vertex_count - 1)))
    seed = draw(
        st.sampled_from([0, -1, 2**32, 2**32 + 1, -(2**40)])
        | st.integers(-(2**70), 2**70)
    )
    return vertex_count, edges_per_vertex, seed


@settings(max_examples=40, deadline=None)
@given(_scale_free_args())
@example((2, 1, 0))
@example((3_000, 12, -7))
@example((2_500, 5, 2**64 + 3))
def test_bulk_words_build_the_stdlib_graph(args):
    built = graphs._build_scale_free(*args)
    reference = _stdlib_graph(*args)
    assert _same_arrays(built, reference)


@pytest.mark.parametrize("chunk", [1, 2, 7, 1_000])
def test_chunk_boundaries_do_not_change_the_pool(monkeypatch, chunk):
    # Small chunks run out mid-vertex and straddle every bit-length band.
    monkeypatch.setattr(graphs, "WORD_CHUNK", chunk)
    for args in ((700, 3, 11), (300, 9, -2)):
        assert graphs._attachment_pool(*args) == _stdlib_attachment_pool(*args)


@pytest.mark.parametrize("seed", [0, 5, -3, 2**32 + 9, 2**100])
def test_raw_words_are_the_stdlib_getrandbits_stream(seed):
    rng = random.Random(seed)
    words = graphs._mt19937(seed).random_raw(2_000)
    assert words.tolist() == [rng.getrandbits(32) for _ in range(2_000)]


def _csr_sha256(graph):
    digest = hashlib.sha256(graph.row_ptr.astype("<i8").tobytes())
    digest.update(graph.col.astype("<i4").tobytes())
    return digest.hexdigest()


# Graphs large enough that the pool reaches bit lengths 19-20, which the
# property above never does; digests of the per-draw stdlib builder.
@pytest.mark.parametrize(
    "args, sha256",
    [
        ((50_000, 6, 0),
         "911f67f926105a15c4aded8eab895552fd46e34fe6d86277854805e48cc8b823"),
        ((50_000, 6, 1),
         "2eb53c6636ceb44134c70812ef347fd0ef33afc8acfbcfd183a37d029ab2d13e"),
        ((50_000, 6, 2),
         "1186cbc98f6cb9a86e3bcda206ea7b5c30d7413fa2338e4a8fc177d006e8df3b"),
        ((100_000, 4, 0),
         "ba1aac5b4e403daf07edad89a8d23519af34e5b693e72e53a1a0383ead51d5d6"),
    ],
    ids=["50k-6-s0", "50k-6-s1", "50k-6-s2", "100k-4-s0"],
)
def test_large_graphs_match_their_pinned_digests(args, sha256):
    assert _csr_sha256(graphs._build_scale_free(*args)) == sha256


def test_word_chunks_bound_the_pool_phase_transient_memory():
    # The pool itself is about 6.9 MB; reading a whole bit-length band of
    # words at once would take the peak past 20 MB.
    tracemalloc.start()
    try:
        pool = graphs._attachment_pool(50_000, 6, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pool) == 2 * 6 * (50_000 - 1) + 1 - 2 * sum(range(6))
    assert peak < 12_000_000


def test_pools_past_one_word_draws_are_rejected(monkeypatch):
    monkeypatch.setattr(graphs, "_memoized", lambda build, *args: args)
    # The largest pool, 2 * edges * (vertices - 1) + 1, must stay below 2**32.
    assert synthetic_scale_free(2**31, 1) == (2**31, 1, 0)
    for vertex_count, edges_per_vertex in ((2**31 + 1, 1), (2**30 + 1, 2)):
        with pytest.raises(WorkloadError, match=r"2\*\*32"):
            synthetic_scale_free(vertex_count, edges_per_vertex)
