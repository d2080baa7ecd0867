"""End-to-end smoke checks of the ``quartz-repro`` CLI and its exports.

Usage::

    PYTHONPATH=src python scripts/ci_smoke.py <check>

``<check>`` is one of ``export``, ``tier-sweep``, ``crash-check``,
``explore``, ``service`` or ``sweep-resume``.  Each check runs the CLI
in fresh processes, writes its JSON export(s) to the working directory
(``<name>-<python major.minor>.json`` for the ones CI uploads), loads
them back through :mod:`repro.validation.export` and asserts on rows,
manifest and digests.  It prints one ``OK`` line with the content
digest, or exits non-zero naming the first failed expectation.
"""

from __future__ import annotations

import json
import subprocess
import sys

from repro.validation import export

#: Suffix of the export files a check keeps (e.g. ``table2-3.12.json``).
TAG = f"{sys.version_info.major}.{sys.version_info.minor}"


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def cli(*args: str, code: int = 0) -> None:
    """Run ``quartz-repro <args>`` and require exit status *code*."""
    status = subprocess.call([sys.executable, "-m", "repro.cli", *args])
    expect(
        status == code,
        f"quartz-repro {' '.join(args)} exited {status}, expected {code}",
    )


def export_json(*args: str, out: str) -> dict:
    """Run a command with ``--format json --out <out>`` and load it."""
    cli(*args, "--format", "json", "--out", out)
    return export.load_experiment_json(out)


def jobs_invariant(*args: str, name: str) -> dict:
    """Export with ``--jobs 2`` and ``--jobs 1``; require equal digests."""
    parallel = export_json(*args, "--jobs", "2", out=f"{name}-{TAG}.json")
    serial = export_json(*args, "--jobs", "1", out=f"{name}-serial.json")
    expect(
        export.experiment_digest(parallel) == export.experiment_digest(serial),
        f"{name} digest depends on --jobs",
    )
    return parallel


def check_export() -> dict:
    document = export_json(
        "run", "table2", "--arch", "ivy-bridge", "--trials", "1",
        "--jobs", "2", out=f"table2-{TAG}.json",
    )
    manifest = export.manifest_from_document(document)
    expect(bool(document["experiment"]["rows"]), "export has no rows")
    expect(bool(manifest.package_version), "manifest missing package version")
    expect(bool(manifest.archs), "manifest names no testbeds")
    return document


def check_tier_sweep() -> dict:
    document = export_json(
        "run", "tier-sweep", "--tiers", "250/350,400/600,700/1100",
        "--jobs", "2", out=f"tier-sweep-{TAG}.json",
    )
    rows = document["experiment"]["rows"]
    expect(bool(rows), "tier-sweep export has no rows")
    expect(
        all(row["tiers"] >= 4 for row in rows),
        "expected DRAM + 3 emulated tiers per row",
    )
    expect(
        all(row["error_pct"] < 5.0 for row in rows),
        "N-tier emulation error out of band",
    )
    return document


def check_crash_check() -> dict:
    document = export_json(
        "run", "crash-check", "--jobs", "2", out=f"crash-check-{TAG}.json"
    )
    rows = {row["mutant"]: row for row in document["experiment"]["rows"]}
    expect(rows["none"]["violations"] == 0, "correct protocol violated")
    for mutant in ("missing-flush", "misordered-barrier"):
        expect(
            rows[mutant]["violations"] >= 1,
            f"{mutant} mutant escaped the checker",
        )
    expect(bool(document["manifest"]["crash"]), "manifest missing crash plan")
    return document


def check_explore() -> dict:
    # Exhaustively explore the mutex-log litmus: the clean protocol and
    # both mutants over a sharded schedule tree.
    document = jobs_invariant(
        "run", "explore-check", "--shards", "2", name="explore"
    )
    rows = {row["mutant"]: row for row in document["experiment"]["rows"]}
    expect(rows["none"]["violations"] == 0, "clean protocol violated")
    for mutant in ("missing-flush", "misordered-barrier"):
        expect(rows[mutant]["violations"] >= 1, f"{mutant} escaped")
        expect(
            rows[mutant]["minimal_trace_len"] >= 1,
            f"{mutant} caught without a replayable trace",
        )
    expect(all(row["ok"] for row in rows.values()), "an oracle row failed")
    expect(bool(document["manifest"]["explore"]), "manifest missing plan")
    return document


def check_service() -> dict:
    # The multi-tenant KV service at its fast preset: the digest-covered
    # service section, a tail for every tenant.
    document = jobs_invariant("run", "service-latency", "--fast", name="service")
    service = document["manifest"]["service"]
    expect(
        bool(service) and service["preset"] == "fast",
        "manifest missing the service scenario",
    )
    rows = document["experiment"]["rows"]
    tenants = {row["tenant"] for row in rows}
    expect(tenants == {"t0", "t1", "all"}, f"bad tenants: {tenants}")
    expect(
        all(row["p99_us"] >= row["p50_us"] > 0 for row in rows),
        "a tenant reported no tail",
    )
    return document


def check_sweep_resume() -> dict:
    # The resumability contract: crash a sweep at a deterministic point
    # (exit 130), inspect it, resume it, and require the resumed export
    # to match an uninterrupted reference run.  Then the one-driver
    # contract: the journaled sweep and the inline registry run of the
    # same preset export the same experiment.
    # Resuming is the interrupted command run again.
    grid = ("run", "sweep-latency-grid", "--scale", "smoke")
    cli(*grid, "--journal", "sweep-ci", "--jobs", "2",
        "--interrupt-after", "2", code=130)
    cli("status", "--journal", "sweep-ci")
    cli(*grid, "--journal", "sweep-ci", "--jobs", "2",
        "--format", "json", "--out", "sweep-resumed.json")
    cli(*grid, "--journal", "sweep-ci-ref", "--jobs", "1",
        "--format", "json", "--out", "sweep-reference.json")
    with open("sweep-resumed.json", encoding="utf-8") as handle:
        resumed = json.load(handle)
    with open("sweep-reference.json", encoding="utf-8") as handle:
        reference = json.load(handle)
    expect(
        resumed["manifest"]["content_digest"]
        == reference["manifest"]["content_digest"],
        "resumed sweep digest diverged from uninterrupted reference",
    )
    sweep = resumed["telemetry"]["sweep"]
    expect(sweep["specs_skipped"] >= 2, "resume re-executed everything")
    expect(
        sweep["queue_depth"] + sweep["specs_skipped"] == 4,
        f"resume accounted for {sweep} instead of the 4-spec smoke grid",
    )
    journaled = export_json(
        "run", "sweep-latency-grid", "--scale", "small",
        "--journal", "sweep-ci-small", "--jobs", "2",
        out="sweep-journaled.json",
    )
    inline = export_json(
        "run", "sweep-latency-grid", "--jobs", "2", out="sweep-inline.json"
    )
    expect(
        export.experiment_digest(journaled) == export.experiment_digest(inline),
        "journaled sweep and inline registry run exported different experiments",
    )
    return resumed


CHECKS = {
    "export": check_export,
    "tier-sweep": check_tier_sweep,
    "crash-check": check_crash_check,
    "explore": check_explore,
    "service": check_service,
    "sweep-resume": check_sweep_resume,
}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in CHECKS:
        print(
            f"usage: ci_smoke.py {{{','.join(CHECKS)}}}", file=sys.stderr
        )
        return 2
    document = CHECKS[argv[0]]()
    print(f"{argv[0]} OK: {document['manifest']['content_digest']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
