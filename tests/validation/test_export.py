"""Tests for the machine-readable experiment export layer."""

import json

import pytest

from repro.errors import ValidationError
from repro.validation import export
from repro.validation.experiments import REGISTRY
from repro.validation.experiments.fast import FAST_KWARGS, run_fast
from repro.validation.reporting import ExperimentResult
from repro.validation.runner import consume_run_stats, reset_run_stats


def make_result():
    result = ExperimentResult(
        experiment_id="test-exp",
        title="A test experiment",
        columns=["name", "value"],
    )
    result.add_row(name="alpha", value=1.5)
    result.add_row(name="beta", value=-2.0)
    result.note("a note")
    return result


# ----------------------------------------------------------------------
# Document mechanics
# ----------------------------------------------------------------------
def test_document_roundtrip_through_file(tmp_path):
    path = tmp_path / "exp.json"
    written = export.write_experiment_json(path, make_result())
    loaded = export.load_experiment_json(path)
    assert loaded == written
    rebuilt = export.result_from_document(loaded)
    assert rebuilt == make_result()
    manifest = export.manifest_from_document(loaded)
    assert manifest.package_version == written["manifest"]["package_version"]


def test_document_schema_versioned(tmp_path):
    path = tmp_path / "exp.json"
    document = export.write_experiment_json(path, make_result())
    assert document["schema"] == export.EXPORT_SCHEMA
    assert document["schema_version"] == export.EXPORT_SCHEMA_VERSION
    raw = json.loads(path.read_text())
    assert raw["schema_version"] == export.EXPORT_SCHEMA_VERSION


def test_load_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "something-else"}))
    with pytest.raises(ValidationError, match="not a"):
        export.load_experiment_json(path)
    path.write_text(
        json.dumps({"schema": export.EXPORT_SCHEMA, "schema_version": 999})
    )
    with pytest.raises(ValidationError, match="unsupported schema version"):
        export.load_experiment_json(path)


def test_load_detects_tampering(tmp_path):
    path = tmp_path / "exp.json"
    document = export.write_experiment_json(path, make_result())
    document["experiment"]["rows"][0]["value"] = 99.0
    path.write_text(export.dumps_document(document))
    with pytest.raises(ValidationError, match="digest mismatch"):
        export.load_experiment_json(path)


def test_telemetry_excluded_from_digest():
    manifest = export.build_manifest()
    with_telemetry = export.build_document(
        make_result(), manifest, telemetry={"wall_s": 1.23, "jobs": 4}
    )
    without = export.build_document(make_result(), manifest, telemetry=None)
    assert with_telemetry["telemetry"] != without["telemetry"]
    assert (
        with_telemetry["manifest"]["content_digest"]
        == without["manifest"]["content_digest"]
    )
    assert export.canonical_json(with_telemetry) == export.canonical_json(without)


def test_digest_covers_rows_and_manifest():
    manifest = export.build_manifest(knobs={"x": 1})
    document = export.build_document(make_result(), manifest)
    changed_rows = make_result()
    changed_rows.rows[0]["value"] = 9.9
    assert (
        export.build_document(changed_rows, manifest)["manifest"]["content_digest"]
        != document["manifest"]["content_digest"]
    )
    other_manifest = export.build_manifest(knobs={"x": 2})
    assert (
        export.build_document(make_result(), other_manifest)["manifest"][
            "content_digest"
        ]
        != document["manifest"]["content_digest"]
    )


def test_manifest_carries_environment():
    manifest = export.build_manifest()
    assert manifest.package_version
    assert manifest.python_version.count(".") == 2
    # Inside this repository the SHA resolves; the field is best-effort.
    assert manifest.git_sha is None or len(manifest.git_sha) == 40


# ----------------------------------------------------------------------
# Round-trip of every registered experiment (fast presets)
# ----------------------------------------------------------------------
def test_fast_presets_cover_registry():
    assert set(FAST_KWARGS) == set(REGISTRY)


@pytest.mark.parametrize("experiment_id", sorted(REGISTRY))
def test_every_experiment_roundtrips(experiment_id, tmp_path):
    reset_run_stats()
    result = run_fast(experiment_id, jobs=1)
    stats = consume_run_stats()
    path = tmp_path / f"{experiment_id}.json"
    written = export.write_experiment_json(
        path, result, stats=stats, knobs={"experiment": experiment_id}
    )
    loaded = export.load_experiment_json(path)
    assert loaded["schema_version"] == export.EXPORT_SCHEMA_VERSION
    # Rows, notes, and manifest survive the disk round-trip unchanged.
    assert loaded["experiment"] == written["experiment"]
    assert loaded["manifest"] == written["manifest"]
    assert loaded["experiment"]["experiment_id"] == experiment_id
    rebuilt = export.result_from_document(loaded)
    assert rebuilt.columns == result.columns
    assert rebuilt.notes == result.notes
    assert len(rebuilt.rows) == len(result.rows)
    # The manifest names every testbed the grid touched.
    assert stats is not None and stats.arch_names
    assert set(loaded["manifest"]["archs"]) == stats.arch_names


def test_jobs_count_does_not_change_canonical_export(tmp_path):
    """--jobs 1 vs --jobs 4: identical canonical bytes and digest."""
    documents = []
    for jobs in (1, 4):
        reset_run_stats()
        result = run_fast("figure12", jobs=jobs)
        stats = consume_run_stats()
        documents.append(
            export.write_experiment_json(
                tmp_path / f"jobs{jobs}.json",
                result,
                stats=stats,
                knobs={"experiment": "figure12"},
            )
        )
    one, four = documents
    assert export.canonical_json(one) == export.canonical_json(four)
    assert (
        one["manifest"]["content_digest"] == four["manifest"]["content_digest"]
    )
    # Only telemetry (wall time, jobs, cache counters) may differ.
    assert one["experiment"] == four["experiment"]
    assert one["manifest"] == four["manifest"]
