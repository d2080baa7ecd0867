"""The committed benchmark reference and the performance gate's timing bound.

Nothing here runs the benchmark: the reference file is checked against
the benchmark's spec and pinned digests, and the bound on synthetic
records.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "bench_gate", ROOT / "scripts" / "bench_gate.py"
)
bench_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_gate)


def test_reference_holds_one_seed_0_traced_full_run_per_workload():
    records = bench_gate.load_records(bench_gate.REFERENCE)
    assert [r["workload"] for r in records] == bench_gate.workloads()
    for record in records:
        assert (record["seed"], record["trace"], record["smoke"]) == (0, 1, False)
        assert record["correct"] and record["failed"] == 0


def test_reference_digests_are_the_pinned_full_size_digests():
    pins = json.loads(
        (ROOT / "benchmarks" / "e2e" / "digests.json").read_text(encoding="utf-8")
    )["full"]
    for record in bench_gate.load_records(bench_gate.REFERENCE):
        assert record["digests"] == pins[record["workload"]], record["workload"]


def _record(workload, wall_s, ref_s):
    return {"workload": workload, "wall_s": [wall_s, 9.9], "ref_s": [ref_s, 9.9]}


def test_timing_bound_is_twice_the_reference_in_ref_units():
    reference = [_record("a", 2.0, 0.1), _record("b", 1.0, 0.1)]
    # a: 20 ref -> 40 ref is exactly 2x and passes; b: 10 ref -> 21 ref fails.
    # Only the plain repeat (index 0) counts.
    fresh = [_record("a", 8.0, 0.2), _record("b", 4.2, 0.2)]
    messages = bench_gate.slow_workloads(reference, fresh)
    assert len(messages) == 1 and messages[0].startswith("b: plain repeat 2.10x")


def test_timing_bound_ignores_workloads_the_reference_lacks():
    assert bench_gate.slow_workloads([], [_record("a", 100.0, 0.1)]) == []
