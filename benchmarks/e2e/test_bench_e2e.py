"""Tests of the end-to-end benchmark itself, at ``--smoke`` size.

Run from the repository root (outside the tier-1 ``testpaths``)::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import bench_e2e
from bench_e2e import END_TO_END, EXACT, PER_LAYER, ROOT, run_workload, verdict
from layers import LAYERS
from workloads import WORKLOADS

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _smoke(name: str, **kwargs) -> dict:
    return run_workload(
        name, smoke=True, pinned=bench_e2e.load_pins(smoke=True)[name], **kwargs
    )


@pytest.fixture(scope="module")
def traced() -> dict:
    return {name: _smoke(name, trace=True) for name in WORKLOADS}


@pytest.fixture(scope="module")
def plain() -> dict:
    return {name: _smoke(name, repeats=1) for name in WORKLOADS}


def test_declared_metrics_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for section, declared in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK[section]}
        assert listed == declared
        assert all(NAME.fullmatch(name) for name in listed)
    assert "setup_s" in END_TO_END


def test_plain_runs_report_every_end_to_end_metric(plain):
    for name, record in plain.items():
        assert record["failed"] == 0, (name, record["messages"])
        assert set(record["metrics"]) == set(END_TO_END)
        for metric, entry in record["metrics"].items():
            assert entry["unit"] == END_TO_END[metric][0]
            assert entry["value"] > 0, (name, metric)


def test_traced_runs_report_every_per_layer_metric(traced):
    for name, record in traced.items():
        assert record["failed"] == 0, (name, record["messages"])
        assert set(record["metrics"]) == set(PER_LAYER)
        values = {metric: entry["value"] for metric, entry in record["metrics"].items()}
        # Charged layer time plus the residual is the whole profile.
        shares = sum(values[f"{layer}.share"] for layer in LAYERS)
        assert shares + values["trace.unattributed_frac"] == pytest.approx(1.0)
        assert values["trace.unattributed_frac"] <= 0.01


def test_call_counts_repeat_exactly_across_traced_runs(traced):
    again = _smoke("registry", trace=True)
    first = traced["registry"]["metrics"]
    for metric in EXACT:
        assert again["metrics"][metric] == first[metric], metric


def test_tampered_digest_table_fails_the_run():
    pins = dict(bench_e2e.load_pins(smoke=True)["kv-service"])
    pins[next(iter(pins))] = "0" * 64
    record = run_workload("kv-service", smoke=True, repeats=1, pinned=pins)
    assert record["failed"] == 1
    assert record["attempted"] == len(pins)
    assert not record["correct"]


@pytest.mark.parametrize("name", ["kv-service", "graphs"])
def test_seed_changes_inputs_but_not_determinism(name):
    record = _smoke(name, seed=1, repeats=2)
    # Seed 1 is checked repeat against repeat, so no failure means the
    # two repeats agreed.
    assert record["failed"] == 0, record["messages"]
    assert record["digests"] != bench_e2e.load_pins(smoke=True)[name]


def test_pinned_registry_digests_agree_with_golden_table():
    golden = json.loads(bench_e2e.GOLDEN.read_text(encoding="utf-8"))
    for size in (False, True):
        pinned = bench_e2e.load_pins(smoke=size)["registry"]
        shared = set(golden) & set(pinned)
        assert shared
        assert {eid: pinned[eid] for eid in shared} == {
            eid: golden[eid] for eid in shared
        }


def test_cli_prints_the_result_line_last():
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench_e2e.py", "run",
         "--workload", "threads", "--seed", "3", "--seconds", "0",
         "--repeats", "1", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    line = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == len(bench_e2e.load_pins(smoke=True)["threads"])


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        bench_e2e.HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench_e2e.py", "run",
         "--workload", "kv-service", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        ([10.0] * 10, [8.0] * 10, "lower", "better"),
        ([10.0] * 10, [12.0] * 10, "lower", "worse"),
        ([10.0] * 10, [10.5] * 10, "lower", "unchanged"),
        ([10.0] * 10, [9.5] * 10, "higher", "unchanged"),
        ([5.0, 15.0] * 5, [6.0, 16.0] * 5, "lower", "unresolved"),
    ],
)
def test_compare_verdicts(parent, change, better, expected):
    assert verdict(parent, change, better, 0.10) == expected
