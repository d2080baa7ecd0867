"""The model-checking experiment (``explore-check``).

Exhaustively explores every thread interleaving of one
exploration-sized recoverable workload (see :mod:`repro.explore`), per
mutant mode, crossing each explored schedule with every reachable crash
point: the unmutated protocol must survive the *whole* cross product,
and each seeded bug must be caught — with the minimal failing
interleaving reported as a replayable trace.

The schedule tree is partitioned at its first decision point across
``shards`` runs and fanned out by the parallel runner; shard subtrees
are disjoint and merge to the identical whole, so the table — and the
export digest — are byte-identical for any ``--jobs`` value.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import ValidationError
from repro.explore import ExplorePlan, LitmusConfig, merge_shard_reports
from repro.hw.arch import IVY_BRIDGE, ArchSpec
from repro.validation.experiments.crash import MUTANT_AXIS, checked_config
from repro.validation.reporting import ExperimentResult
from repro.validation.runner import run_mutant_shards
from repro.workloads.graph500 import Graph500Config
from repro.workloads.kvstore import KvStoreConfig

#: The plan the CLI and CI use (also exported into the run manifest).
DEFAULT_EXPLORE_PLAN = ExplorePlan()


def default_explore_config(workload: str):
    """Exploration-sized config of one explorable workload.

    Sizes are chosen so the full interleaving tree stays in the
    hundreds of schedules — exploration re-executes the workload once
    per schedule, so parameters that are modest for a single crash run
    are explosive here.
    """
    if workload in ("mutex-log", "disjoint-locks"):
        return LitmusConfig(threads=2, entries_per_thread=1, seed=0)
    if workload == "kvstore":
        return KvStoreConfig(
            puts_per_thread=1,
            gets_per_thread=0,
            threads=2,
            batch_ops=1,
            seed=3,
        )
    if workload == "graph500":
        return Graph500Config(vertex_count=12, edges_per_vertex=2, seed=2)
    raise ValidationError(f"no explore config for workload {workload!r}")


def run_explore_check(
    arch: ArchSpec = IVY_BRIDGE,
    workload: str = "mutex-log",
    mutants: Optional[Sequence[str]] = None,
    shards: int = 2,
    seed: int = 0,
    explore_plan: Optional[ExplorePlan] = None,
    config=None,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Interleaving x crash-point exploration, per mutant mode.

    ``mutants`` defaults to the whole axis, except for ``disjoint-locks``:
    a litmus test without a persist protocol has no mutant to run.
    """
    plan = explore_plan or DEFAULT_EXPLORE_PLAN
    config = checked_config(
        "explore-check", workload, config, default_explore_config(workload)
    )
    if mutants is None:
        mutants = ("none",) if workload == "disjoint-locks" else MUTANT_AXIS
    grid = run_mutant_shards(
        "explore", plan, mutants, shards, jobs, workload=workload,
        config=config, arch_name=arch.name, seed=seed,
    )

    result = ExperimentResult(
        experiment_id="explore-check",
        title="Model checking: every interleaving x every crash point",
        columns=[
            "workload",
            "mutant",
            "schedules",
            "executions",
            "pruned",
            "deadlocks",
            "images_checked",
            "violations",
            "first_violation",
            "minimal_trace_len",
            "expected",
            "ok",
        ],
    )
    for mutant, reports in zip(mutants, grid):
        merged = merge_shard_reports(reports)
        clean = mutant == "none"
        violations = merged["violation_total"]
        first = (
            merged["violations"][0]["invariant"] if merged["violations"] else ""
        )
        trace = merged["minimal_trace"]
        result.add_row(
            workload=workload,
            mutant=mutant,
            schedules=merged["schedules"],
            executions=merged["executions"],
            pruned=merged["pruned"],
            deadlocks=merged["deadlocks"],
            images_checked=merged["images_checked"],
            violations=violations,
            first_violation=first,
            minimal_trace_len=len(trace["choices"]) if trace else -1,
            expected="0" if clean else ">=1",
            ok=(
                (violations == 0)
                if clean
                else (violations >= 1 and trace is not None)
            )
            and not merged["capped"],
        )
    result.note(
        f"invariants checked: {', '.join(merged['invariants'])}; "
        f"schedule tree partitioned {shards} way(s) at its first decision "
        "point, shard subtrees are disjoint"
    )
    result.note(
        "oracle: the unmutated protocol must survive every (schedule, "
        "crash point) pair; each seeded mutant must be caught with a "
        "replayable minimal failing interleaving"
    )
    return result
