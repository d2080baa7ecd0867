"""The performance gate: exact work counts plus a loose timing bound.

Usage, from any directory (about a minute; Python 3.11, where the
reference was recorded)::

    python scripts/bench_gate.py

It re-runs every workload of ``BENCHMARK.json`` the way the committed
reference ``BENCH_e2e.jsonl`` was made (``benchmarks/e2e/bench_e2e.py
run --workload W --seed 0 --trace 1``, full size) into
``bench-e2e-fresh.jsonl`` in the working directory, then fails (exit 1)
if

- ``bench_e2e.py compare BENCH_e2e.jsonl bench-e2e-fresh.jsonl`` does:
  an exact per-layer count is ``MOVED``, a digest differs or a driver
  call failed; or
- a workload's plain repeat, in reference-loop units
  (``wall_s[0] / ref_s[0]``), takes more than twice the reference's.

Exit 2 means a run could not complete.  A change that alters the work
done regenerates the reference in the same diff: run the gate, then
``cp bench-e2e-fresh.jsonl BENCH_e2e.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmarks" / "e2e" / "bench_e2e.py"
REFERENCE = ROOT / "BENCH_e2e.jsonl"
FRESH = Path("bench-e2e-fresh.jsonl").resolve()
#: Fail when a plain repeat takes more than this many times the
#: reference's, in reference-loop units.
SLOWDOWN_BOUND = 2.0


def workloads() -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [workload["name"] for workload in spec["workloads"]]


def load_records(path: Path) -> list:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def plain_ref(record: dict) -> float:
    """The plain (untraced) repeat's wall time in reference-loop units."""
    return record["wall_s"][0] / record["ref_s"][0]


def slow_workloads(reference: list, fresh: list) -> list:
    """One message per *fresh* record more than :data:`SLOWDOWN_BOUND`
    times slower than the *reference* record of its workload."""
    committed = {record["workload"]: plain_ref(record) for record in reference}
    messages = []
    for record in fresh:
        name = record["workload"]
        if name in committed and plain_ref(record) > SLOWDOWN_BOUND * committed[name]:
            messages.append(
                f"{name}: plain repeat {plain_ref(record) / committed[name]:.2f}x "
                f"the reference's (bound {SLOWDOWN_BOUND:g}x)"
            )
    return messages


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    FRESH.unlink(missing_ok=True)
    for name in workloads():
        print(f"bench_gate: running {name}", flush=True)
        status = subprocess.call(
            [sys.executable, str(BENCH), "run", "--workload", name,
             "--seed", "0", "--trace", "1", "--out", str(FRESH)],
            cwd=ROOT, stdout=subprocess.DEVNULL,
        )
        if status != 0:
            print(f"bench_gate: {name} exited {status}", file=sys.stderr)
            return 2
    status = subprocess.call(
        [sys.executable, str(BENCH), "compare", str(REFERENCE), str(FRESH)],
        cwd=ROOT,
    )
    slow = slow_workloads(load_records(REFERENCE), load_records(FRESH))
    for message in slow:
        print(f"SLOW {message}")
    print(f"bench_gate: {'FAIL' if status or slow else 'OK'}; fresh records in {FRESH}")
    return 1 if status or slow else 0


if __name__ == "__main__":
    sys.exit(main())
