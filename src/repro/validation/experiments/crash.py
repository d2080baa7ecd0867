"""The crash-consistency checking experiment (``crash-check``).

Runs a recoverable workload (see :mod:`repro.pmem`) under Quartz with
the persistence domain and crash injector attached, once per mutant
mode: the unmutated protocol must recover cleanly from **every**
enumerated crash point, and each seeded bug (``missing-flush``,
``misordered-barrier``) must be caught at least once — the subsystem's
regression oracle, wired into CI.

Snapshot storage is sharded across ``shards`` runs and fanned out by the
parallel runner; every shard replays the identical simulation (the
injector perturbs no simulated state), so the merged table — and the
export digest — are byte-identical for any ``--jobs`` value.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import ValidationError
from repro.hw.arch import IVY_BRIDGE, ArchSpec
from repro.pmem.crash import CrashPlan
from repro.quartz.config import QuartzConfig, WriteModel
from repro.units import MICROSECOND
from repro.validation.reporting import ExperimentResult
from repro.validation.runner import run_mutant_shards
from repro.workloads.graph500 import Graph500Config
from repro.workloads.kvstore import KvStoreConfig

#: Mutant axis of the crash and explore experiments ("none" = the
#: correct protocol).
MUTANT_AXIS = ("none", "missing-flush", "misordered-barrier")

#: The plan the CLI and CI use (also exported into the run manifest).
DEFAULT_CRASH_PLAN = CrashPlan(
    on_epoch_close=True,
    on_commit=True,
    random_interval_ns=150 * MICROSECOND,
    seed=7,
    max_points=256,
)


def default_pm_config(workload: str):
    """CI-sized config of one crash-checkable workload."""
    if workload == "kvstore":
        return KvStoreConfig(
            puts_per_thread=24,
            gets_per_thread=0,
            threads=2,
            batch_ops=4,
            seed=3,
        )
    if workload == "graph500":
        return Graph500Config(vertex_count=600, edges_per_vertex=4, seed=2)
    raise ValidationError(f"no crash-check config for workload {workload!r}")


def checked_config(experiment_id: str, workload: str, config, default):
    """*config*, or *default* when it is None; a config of another type
    than *default* does not fit *workload* and is rejected here, not
    mid-run."""
    if config is None:
        return default
    if not isinstance(config, type(default)):
        raise ValidationError(
            f"{experiment_id} workload {workload!r} takes a "
            f"{type(default).__name__}, not a {type(config).__name__}"
        )
    return config


def _merge_shards(reports: Sequence[dict]) -> dict:
    """Fold one mutant's shard reports into a single logical run.

    Every shard enumerates the full crash-point sequence and stores a
    disjoint slice of it, so points must agree exactly and the checked
    counts / violation records are a disjoint union.
    """
    points = {report["points"] for report in reports}
    if len(points) != 1:
        raise ValidationError(
            f"crash shards disagree on the point sequence: {sorted(points)} "
            "(determinism bug)"
        )
    violations = sorted(
        (record for report in reports for record in report["violations"]),
        key=lambda record: record["crash_index"],
    )
    return {
        "points": points.pop(),
        "checked": sum(report["checked"] for report in reports),
        "capped": any(report["capped"] for report in reports),
        "violation_total": sum(
            report["violation_total"] for report in reports
        ),
        "violations": violations,
        "invariants": reports[0]["invariants"],
    }


def run_crash_check(
    arch: ArchSpec = IVY_BRIDGE,
    workload: str = "kvstore",
    mutants: Sequence[str] = MUTANT_AXIS,
    shards: int = 4,
    seed: int = 411,
    crash_plan: Optional[CrashPlan] = None,
    config=None,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Crash-point enumeration + recovery validation, per mutant mode."""
    plan = crash_plan or DEFAULT_CRASH_PLAN
    config = checked_config(
        "crash-check", workload, config, default_pm_config(workload)
    )
    quartz = QuartzConfig(
        nvm_read_latency_ns=400.0,
        nvm_write_latency_ns=500.0,
        write_model=WriteModel.PCOMMIT,
    )
    grid = run_mutant_shards(
        "crash", plan, mutants, shards, jobs, workload=workload,
        config=config, arch_name=arch.name, seed=seed, quartz=quartz,
    )

    result = ExperimentResult(
        experiment_id="crash-check",
        title="Crash-consistency checking: recovery from every crash point",
        columns=[
            "workload",
            "mutant",
            "crash_points",
            "images_checked",
            "violations",
            "first_violation",
            "expected",
            "ok",
        ],
    )
    for mutant, reports in zip(mutants, grid):
        merged = _merge_shards(reports)
        clean = mutant == "none"
        violations = merged["violation_total"]
        first = merged["violations"][0]["invariant"] if merged["violations"] else ""
        result.add_row(
            workload=workload,
            mutant=mutant,
            crash_points=merged["points"],
            images_checked=merged["checked"],
            violations=violations,
            first_violation=first,
            expected="0" if clean else ">=1",
            ok=(violations == 0) if clean else (violations >= 1),
        )
    result.note(
        f"invariants checked: {', '.join(merged['invariants'])}; "
        f"snapshot storage sharded {shards} way(s), every shard replays "
        "the identical simulation"
    )
    result.note(
        "oracle: the unmutated protocol must recover from every crash "
        "point; each seeded mutant must be caught at least once"
    )
    return result
