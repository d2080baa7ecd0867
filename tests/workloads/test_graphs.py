"""Tests for the synthetic graph substrate."""

import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
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
