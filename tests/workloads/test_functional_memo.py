"""The functional memo: the KV store's put/get phases and PageRank's
rank iterations are computed once per distinct input and replayed.

A miss is the compute path, so every test clears the memos first and
compares a cold run (the oracle) with a warm one.
"""

import dataclasses

import numpy as np
import pytest

from repro.hw import IVY_BRIDGE, Machine
from repro.hw.topology import MemoryRegion
from repro.os import SimOS
from repro.quartz.config import QuartzConfig
from repro.sim import Simulator
from repro.validation import export
from repro.validation.experiments.fast import run_fast
from repro.validation.runner import RunSpec, emulated_runs, run_specs
from repro.workloads import graphs, kvstore, pagerank
from repro.workloads.btree import BPlusTree
from repro.workloads.graphs import synthetic_scale_free
from repro.workloads.kvstore import KvStoreConfig, kvstore_main_body
from repro.workloads.memo import Memo, typed
from repro.workloads.pagerank import PageRankConfig, pagerank_body


@pytest.fixture(autouse=True)
def cold_memos():
    for memo in (graphs._MEMO, kvstore._PHASES, pagerank._RANKS):
        memo.clear()


def _op_record(thread, op, now_ns):
    fields = {
        field.name: getattr(op, field.name) for field in dataclasses.fields(op)
    }
    for name, value in fields.items():
        if isinstance(value, MemoryRegion):
            fields[name] = value.label  # region ids differ per run
        elif not isinstance(value, (int, float, str, type(None))):
            fields[name] = type(value).__name__  # thread args and handles
    return thread.name, type(op).__name__, sorted(fields.items()), now_ns


def run_recorded(body, seed=1, before=None):
    """Run *body* on a fresh machine; every executed op with its clock."""
    sim = Simulator(seed=seed)
    os = SimOS(Machine(sim, IVY_BRIDGE))
    ops = []
    sim.hooks.subscribe(
        "op", lambda thread, op: ops.append(_op_record(thread, op, sim.now))
    )
    if before is not None:
        before(sim)
    os.create_thread(body, name="main")
    os.run_to_completion()
    return sim, ops


def kv_run(config, seed=1, before=None):
    out = {}
    sim, ops = run_recorded(kvstore_main_body(config, out), seed, before)
    return out["result"], ops, sim


def pagerank_run(config, graph):
    out = {}
    _, ops = run_recorded(pagerank_body(config, out, graph=graph))
    return out["result"], ops


@pytest.fixture
def inserts(monkeypatch):
    """A counter of ``BPlusTree.insert`` calls."""
    calls = []
    insert = BPlusTree.insert

    def counted(tree, key, value):
        calls.append(key)
        return insert(tree, key, value)

    monkeypatch.setattr(BPlusTree, "insert", counted)
    return calls


@pytest.fixture
def rank_iterations(monkeypatch):
    """A counter of PageRank iterations (one weighted bincount each)."""
    calls = []
    bincount = np.bincount

    def counted(*args, **kwargs):
        if "weights" in kwargs:
            calls.append(1)
        return bincount(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", counted)
    return calls


KV = KvStoreConfig(
    puts_per_thread=700, gets_per_thread=300, threads=2, batch_ops=64,
    flush_writes=True,
)


# ----------------------------------------------------------------------
# The shared helper
# ----------------------------------------------------------------------
def test_memo_keeps_its_bound_and_evicts_least_recently_used_first():
    memo = Memo(3)
    built = []

    def get(key):
        return memo.get(key, lambda: built.append(key) or [key])

    first = get("a")
    get("b")
    get("c")
    assert get("a") is first  # a hit, and now the most recent
    get("d")  # evicts "b", the least recent
    assert len(memo) == 3
    assert built == ["a", "b", "c", "d"]
    for key in "ad":
        get(key)
    assert built == ["a", "b", "c", "d"]
    get("b")  # a miss that evicts "c"
    get("c")
    assert built == ["a", "b", "c", "d", "b", "c"]
    assert len(memo) == 3
    memo.clear()
    assert len(memo) == 0


def test_typed_keys_keep_equal_values_of_different_types_apart():
    assert typed(1) != typed(True)
    assert typed(1) != typed(1.0)
    assert typed(0.85, 7) == typed(0.85, 7)


# ----------------------------------------------------------------------
# KV store
# ----------------------------------------------------------------------
def test_kv_replay_equals_the_computed_run_op_for_op(inserts):
    cold, cold_ops, cold_sim = kv_run(KV)
    assert len(inserts) == KV.threads * KV.puts_per_thread
    warm, warm_ops, warm_sim = kv_run(KV)
    assert len(inserts) == KV.threads * KV.puts_per_thread  # no new insert
    # flush_writes: every put batch ends in a pflush and a Commit.
    kinds = {kind for _, kind, _, _ in cold_ops}
    assert {"Flush", "Commit"} <= kinds
    assert warm_ops == cold_ops
    assert dataclasses.asdict(warm) == dataclasses.asdict(cold)
    for index in range(KV.threads):
        for phase in ("put", "get"):
            name = f"thread-kv-{phase}{index}-kv-{phase}"
            assert (
                warm_sim.random.stream(name).getstate()
                == cold_sim.random.stream(name).getstate()
            )


def test_a_drawn_stream_or_another_seed_misses(inserts):
    reference, _, _ = kv_run(KV, seed=1)
    per_run = len(inserts)

    def draw(sim):
        sim.random.stream("thread-kv-put0-kv-put").random()

    drawn, _, sim = kv_run(KV, seed=1, before=draw)
    # Thread 0 recomputes; thread 1's stream is untouched and hits.
    assert len(inserts) == per_run + KV.puts_per_thread
    # The stream is left where a real shuffle from its drawn state leaves it.
    oracle = Simulator(seed=1).random.stream("thread-kv-put0-kv-put")
    oracle.random()
    oracle.shuffle(list(range(KV.puts_per_thread)))
    assert sim.random.stream("thread-kv-put0-kv-put").getstate() == oracle.getstate()
    assert drawn.final_sizes == reference.final_sizes

    kv_run(KV, seed=2)
    assert len(inserts) == 2 * per_run + KV.puts_per_thread


def test_memoized_tree_is_unchanged_by_its_get_phase():
    result, _, _ = kv_run(KV)
    puts = [entry for entry in kvstore._PHASES._entries.values()
            if isinstance(entry, kvstore._PutPhase)]
    assert len(puts) == KV.threads
    for put in puts:
        put.tree.check_invariants()
        assert len(put.tree) == KV.puts_per_thread
    assert result.final_sizes == [KV.puts_per_thread] * KV.threads
    assert result.verified_gets == KV.threads * KV.gets_per_thread


def test_every_thread_of_an_eight_thread_pair_hits(inserts, monkeypatch):
    builds = []
    for name in ("_put_phase", "_get_phase"):
        build = getattr(kvstore, name)
        monkeypatch.setattr(
            kvstore, name,
            lambda *args, build=build, name=name: builds.append(name)
            or build(*args),
        )
    config = KvStoreConfig(puts_per_thread=200, gets_per_thread=100, threads=8)
    reference = RunSpec(
        workload="kvstore", config=config, arch_name="sandy-bridge",
        mode="conf2", seed=700,
    )
    physical, emulated = run_specs(
        emulated_runs(reference, QuartzConfig(nvm_read_latency_ns=300.0)),
        jobs=1,
    )
    assert sorted(builds) == ["_get_phase"] * 8 + ["_put_phase"] * 8
    assert len(inserts) == 8 * 200  # the emulated run inserts nothing
    for result in (physical, emulated):
        assert result.workload_result.final_sizes == [200] * 8
        assert result.workload_result.verified_gets == 8 * 100


# ----------------------------------------------------------------------
# PageRank
# ----------------------------------------------------------------------
PAGERANK = PageRankConfig(max_iterations=30, tolerance=1e-9)


def test_pagerank_replay_equals_the_computed_run(rank_iterations):
    graph = synthetic_scale_free(1_500, 4, seed=2)
    cold, cold_ops = pagerank_run(PAGERANK, graph)
    assert len(rank_iterations) == cold.iterations > 0
    warm, warm_ops = pagerank_run(PAGERANK, graph)
    assert len(rank_iterations) == cold.iterations  # no new iteration
    assert warm_ops == cold_ops
    assert len(cold_ops) == 5 * cold.iterations
    assert (warm.iterations, warm.residual, warm.elapsed_ns) == (
        cold.iterations, cold.residual, cold.elapsed_ns,
    )
    assert warm.ranks.tobytes() == cold.ranks.tobytes()


def test_memoized_ranks_are_read_only():
    graph = synthetic_scale_free(800, 3, seed=5)
    result, _ = pagerank_run(PAGERANK, graph)
    with pytest.raises(ValueError):
        result.ranks[0] = 1.0


def test_a_mutated_writable_graph_gets_fresh_ranks(rank_iterations):
    graph = graphs._build_scale_free(800, 3, 5)
    assert graph.col.flags.writeable
    first, _ = pagerank_run(PAGERANK, graph)
    graph.col[:] = graph.col[::-1]  # same row lengths, other targets
    second, _ = pagerank_run(PAGERANK, graph)
    assert len(pagerank._RANKS) == 0
    assert len(rank_iterations) == first.iterations + second.iterations
    assert second.ranks.tobytes() != first.ranks.tobytes()
    oracle = pagerank._power_iteration(
        graph, PAGERANK.damping, PAGERANK.tolerance, PAGERANK.max_iterations
    )
    assert second.ranks.tobytes() == oracle[2].tobytes()


def test_other_config_values_miss(rank_iterations):
    graph = synthetic_scale_free(800, 3, seed=5)
    pagerank_run(PAGERANK, graph)
    runs = len(rank_iterations)
    pagerank_run(dataclasses.replace(PAGERANK, damping=0.8), graph)
    assert len(rank_iterations) > runs
    runs = len(rank_iterations)
    # A config field the iterations do not read still hits.
    pagerank_run(dataclasses.replace(PAGERANK, compute_cycles_per_edge=3.0), graph)
    assert len(rank_iterations) == runs


# ----------------------------------------------------------------------
# Cold against warm, end to end
# ----------------------------------------------------------------------
def _digest(result):
    return export.experiment_digest({"experiment": result.to_dict()})


@pytest.mark.parametrize("experiment_id", ["figure15", "pagerank-validation"])
def test_warm_drivers_match_cold_ones(experiment_id, inserts, rank_iterations):
    cold = run_fast(experiment_id, jobs=1)
    work = (len(inserts), len(rank_iterations))
    assert work != (0, 0)
    warm = run_fast(experiment_id, jobs=1)
    assert (len(inserts), len(rank_iterations)) == work
    assert warm.rows == cold.rows
    assert _digest(warm) == _digest(cold)


def test_warm_workload_results_match_cold_ones():
    graph = synthetic_scale_free(1_000, 4, seed=3)
    specs = [
        RunSpec(workload="kvstore", config=KV, arch_name="sandy-bridge",
                mode="conf2", seed=700),
        RunSpec(workload="pagerank", config=PAGERANK, arch_name="sandy-bridge",
                mode="conf2", seed=710, extras={"graph": graph}),
    ]
    cold = [run.workload_result for run in run_specs(specs, jobs=1)]
    warm = [run.workload_result for run in run_specs(specs, jobs=1)]
    assert warm[0].verified_gets == cold[0].verified_gets
    assert warm[0].final_sizes == cold[0].final_sizes
    assert warm[0].put_phase_ns == cold[0].put_phase_ns
    assert warm[1].ranks.tobytes() == cold[1].ranks.tobytes()
    assert warm[1].elapsed_ns == cold[1].elapsed_ns
