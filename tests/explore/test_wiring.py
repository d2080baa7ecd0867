"""Wiring: explore mode through the runner, exports, and the CLI gate."""

import json

import pytest

from repro.errors import ValidationError
from repro.explore import DEFAULT_EXPLORE_CRASH_PLAN, ExplorePlan, LitmusConfig
from repro.hw.arch import IVY_BRIDGE
from repro.validation import export
from repro.validation.runner import (
    RunSpec,
    consume_run_stats,
    reset_run_stats,
    run_specs,
)

PLAN = ExplorePlan()
CONFIG = LitmusConfig(threads=2, entries_per_thread=1, seed=0)


def _spec(mutant=None, shard=0, shards=1):
    return RunSpec(
        workload="mutex-log",
        config=CONFIG,
        arch_name=IVY_BRIDGE.name,
        mode="explore",
        extras={
            "explore_plan": PLAN,
            "shard": shard,
            "shards": shards,
            "mutant": mutant,
        },
    )


def test_explore_spec_requires_a_plan():
    with pytest.raises(ValidationError, match="ExplorePlan"):
        RunSpec(
            workload="mutex-log",
            config=CONFIG,
            arch_name=IVY_BRIDGE.name,
            mode="explore",
        )


def test_runner_carries_the_explore_report_and_stats():
    reset_run_stats()
    (result,) = run_specs([_spec(mutant="missing-flush")], jobs=1)
    report = result.reports.get("explore")
    assert report is not None
    assert report["schedules"] >= 1
    assert report["violation_total"] >= 1
    assert report["minimal_trace"] is not None
    stats = consume_run_stats()
    assert stats is not None
    assert "explore:" in stats.summary()
    telemetry = stats.telemetry()
    assert telemetry["explore"]["schedules"] == report["schedules"]
    assert telemetry["explore"]["violations"] == report["violation_total"]


def test_manifest_explore_section_round_trips():
    manifest = export.build_manifest(
        knobs={"command": "explore"}, explore=PLAN.to_dict()
    )
    assert manifest.explore == PLAN.to_dict()
    assert manifest.explore["crash_plan"] == (
        DEFAULT_EXPLORE_CRASH_PLAN.to_dict()
    )
    restored = export.RunManifest.from_dict(manifest.to_dict())
    assert restored.explore == manifest.explore


def test_cli_explore_json_export(capsys, tmp_path):
    from repro.cli import main

    out_path = tmp_path / "explore.json"
    code = main(
        [
            "run",
            "explore-check",
            "--workload",
            "mutex-log",
            "--mutant",
            "missing-flush",
            "--shards",
            "2",
            "--jobs",
            "1",
            "--format",
            "json",
            "-o",
            str(out_path),
        ]
    )
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["manifest"]["knobs"]["command"] == "run"
    assert document["manifest"]["knobs"]["experiment"] == "explore-check"
    assert document["manifest"]["explore"]["max_executions"] > 0
    rows = document["experiment"]["rows"]
    assert [row["ok"] for row in rows] == [True] * len(rows)
    assert rows[0]["mutant"] == "missing-flush"
    assert rows[0]["minimal_trace_len"] >= 1
    assert export.load_experiment_json(out_path)


def test_cli_explore_exits_4_when_an_expectation_fails(capsys, monkeypatch):
    from repro.cli import main
    from repro.validation.experiments import REGISTRY
    from repro.validation.reporting import ExperimentResult

    def broken_check(**kwargs):
        result = ExperimentResult(
            experiment_id="explore-check",
            title="stub",
            columns=[
                "workload", "mutant", "schedules", "executions", "pruned",
                "deadlocks", "images_checked", "violations",
                "first_violation", "minimal_trace_len", "expected", "ok",
            ],
        )
        result.add_row(
            workload="mutex-log", mutant="missing-flush", schedules=38,
            executions=40, pruned=2, deadlocks=0, images_checked=0,
            violations=0, first_violation="", minimal_trace_len=0,
            expected=">=1", ok=False,
        )
        return result

    monkeypatch.setitem(REGISTRY, "explore-check", broken_check)
    code = main([
        "run", "explore-check", "--workload", "mutex-log",
        "--mutant", "missing-flush", "--jobs", "1",
    ])
    assert code == 4
    captured = capsys.readouterr()
    assert "expectation failed" in captured.err
    assert "mutex-log/missing-flush" in captured.err


def test_explore_driver_rejects_a_config_that_does_not_fit_the_workload():
    from repro.validation.experiments.explore import run_explore_check

    with pytest.raises(ValidationError) as error:
        run_explore_check(workload="kvstore", config=CONFIG, jobs=1)
    assert str(error.value) == (
        "explore-check workload 'kvstore' takes a KvStoreConfig, "
        "not a LitmusConfig"
    )
