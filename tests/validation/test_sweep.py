"""Tests for the streaming, checkpointed sweep engine.

The load-bearing properties, in order:

* **Digest stability** — an interrupted-then-resumed sweep exports the
  same bytes (content digest) as an uninterrupted one, and only the
  unfinished specs are re-executed on resume.
* **Streaming** — a large grid is merged through a bounded out-of-order
  buffer; the full result list is never resident.
* **Integrity** — checkpointed records are digest-verified before
  reuse; a tampered shard record is silently re-executed, never
  trusted.
"""

import json

import pytest

from repro.errors import RunInterrupted, ValidationError
from repro.hw import IVY_BRIDGE
from repro.quartz.config import QuartzConfig
from repro.units import MILLISECOND
from repro.validation import export
from repro.validation.experiments.sweeps import (
    SWEEP_PRESETS,
    run_latency_grid,
    sweep_status,
)
from repro.validation.runner import (
    RunSpec,
    consume_run_stats,
    reset_run_stats,
    run_specs,
)
from repro.validation.sweep import (
    SweepJournal,
    canonical_spec,
    grid_digest,
    run_sweep,
    spec_fingerprint,
)
from repro.workloads.memlat import MemLatConfig


def _memlat_spec(seed: int, target_ns: float = 400.0) -> RunSpec:
    return RunSpec(
        workload="memlat",
        config=MemLatConfig(iterations=20_000),
        arch_name=IVY_BRIDGE.name,
        mode="conf1",
        seed=seed,
        quartz=QuartzConfig(
            nvm_read_latency_ns=target_ns, max_epoch_ns=1.0 * MILLISECOND
        ),
    )


# ----------------------------------------------------------------------
# Fingerprints and canonical form
# ----------------------------------------------------------------------


def test_fingerprint_is_stable_across_instances():
    assert spec_fingerprint(_memlat_spec(1)) == spec_fingerprint(_memlat_spec(1))


def test_fingerprint_sees_every_knob():
    base = spec_fingerprint(_memlat_spec(1))
    assert spec_fingerprint(_memlat_spec(2)) != base
    assert spec_fingerprint(_memlat_spec(1, target_ns=500.0)) != base


def test_canonical_spec_is_json_stable():
    spec = _memlat_spec(3)
    text = json.dumps(canonical_spec(spec), sort_keys=True)
    assert text == json.dumps(canonical_spec(_memlat_spec(3)), sort_keys=True)


def test_grid_digest_is_order_sensitive():
    prints = [spec_fingerprint(_memlat_spec(seed)) for seed in (1, 2)]
    assert grid_digest(prints) != grid_digest(list(reversed(prints)))


# ----------------------------------------------------------------------
# Journal round-trip and durability
# ----------------------------------------------------------------------


def _fresh_journal(tmp_path, specs, name="test"):
    return SweepJournal.create(
        tmp_path / name,
        [spec_fingerprint(spec) for spec in specs],
        name=name,
        knobs={"suite": "test"},
    )


def test_journal_roundtrip_reloads_results(tmp_path):
    specs = [_memlat_spec(seed) for seed in (1, 2)]
    results = run_specs(specs, jobs=1)
    journal = _fresh_journal(tmp_path, specs)
    for spec, result in zip(specs, results):
        journal.record_result(result.index, spec_fingerprint(spec), result)
    journal.close()

    reopened = SweepJournal.open(tmp_path / "test")
    assert len(reopened.completed) == 2
    for spec, result in zip(specs, results):
        record = reopened.completed[spec_fingerprint(spec)]
        assert reopened.verify(record)
        loaded = reopened.load_result(record)
        assert (
            loaded.workload_result.measured_latency_ns
            == result.workload_result.measured_latency_ns
        )
        assert loaded.events == result.events
    reopened.close()


def test_journal_refuses_to_clobber(tmp_path):
    specs = [_memlat_spec(1)]
    _fresh_journal(tmp_path, specs).close()
    with pytest.raises(ValidationError, match="already exists"):
        _fresh_journal(tmp_path, specs)


def test_journal_tolerates_torn_trailing_record(tmp_path):
    specs = [_memlat_spec(seed) for seed in (1, 2)]
    results = run_specs(specs, jobs=1)
    journal = _fresh_journal(tmp_path, specs)
    journal.record_result(0, spec_fingerprint(specs[0]), results[0])
    journal.close()
    # A crash mid-append leaves a torn final line.
    with open(journal.journal_path, "a", encoding="utf-8") as handle:
        handle.write('{"type": "done", "index": 1, "finge')

    reopened = SweepJournal.open(tmp_path / "test")
    assert len(reopened.completed) == 1
    assert spec_fingerprint(specs[0]) in reopened.completed
    reopened.close()


@pytest.mark.parametrize(
    "header, message",
    (
        ("[]", "not a quartz-repro/sweep-journal journal"),
        ({"total": "4"}, "bad spec total '4'"),
        ({"total": 2.5}, "bad spec total 2.5"),
        ({"total": True}, "bad spec total True"),
        ({"total": -1}, "bad spec total -1"),
    ),
    ids=("list", "str-total", "float-total", "bool-total", "negative-total"),
)
def test_journal_rejects_a_malformed_header(tmp_path, header, message):
    journal = _fresh_journal(tmp_path, [_memlat_spec(1)])
    if isinstance(header, dict):
        header = json.dumps(dict(journal.header, **header))
    journal.journal_path.write_text(header + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=message):
        SweepJournal.open(tmp_path / "test")


def test_run_sweep_rejects_mismatched_journal(tmp_path):
    journal = _fresh_journal(tmp_path, [_memlat_spec(1)])
    with pytest.raises(ValidationError, match="does not match this grid"):
        run_sweep([_memlat_spec(2)], journal=journal, jobs=1)


# ----------------------------------------------------------------------
# Streaming merge semantics
# ----------------------------------------------------------------------


def test_consume_sees_submission_order_for_any_job_count():
    specs = [_memlat_spec(seed) for seed in (1, 2, 3, 4, 5)]

    def rows_at(jobs):
        rows = []
        run_sweep(
            specs, jobs=jobs,
            consume=lambda spec, result: rows.append(
                (result.index, spec.seed,
                 result.workload_result.measured_latency_ns)
            ),
        )
        return rows

    sequential = rows_at(1)
    assert [row[0] for row in sequential] == [0, 1, 2, 3, 4]
    assert rows_at(3) == sequential


def test_report_counts_and_peak_buffer():
    specs = [_memlat_spec(seed) for seed in (1, 2, 3)]
    reset_run_stats()
    assert run_sweep(specs, jobs=1) is None
    stats = consume_run_stats()
    assert (stats.queue_depth, stats.specs_skipped, stats.specs_tampered) == (
        3, 0, 0,
    )
    # Sequential execution merges every result immediately.
    assert stats.stream_merge_peak_rows <= 1
    assert stats.telemetry()["sweep"]["stream_merge_peak_rows"] <= 1


def test_stats_record_the_job_count_actually_used(tmp_path):
    # One spec to run (and a resume with none left) never fans out, so
    # the summary must say one job whatever was asked for.
    reset_run_stats()
    run_sweep([_memlat_spec(1)], jobs=8)
    assert consume_run_stats().jobs == 1

    specs = [_memlat_spec(seed) for seed in (1, 2)]
    run_sweep(specs, journal=_fresh_journal(tmp_path, specs), jobs=1)
    reset_run_stats()
    run_sweep(specs, journal=SweepJournal.open(tmp_path / "test"), jobs=8)
    stats = consume_run_stats()
    assert stats.specs_skipped == 2
    assert stats.jobs == 1


def test_large_grid_streams_through_bounded_buffer():
    """The >=500-spec acceptance criterion: the engine never holds the
    grid's results in memory — the out-of-order merge buffer stays far
    below the grid size, and telemetry records its high-water mark."""
    preset = SWEEP_PRESETS["latency-grid"]
    specs = preset.build("large")
    assert len(specs) >= 500
    seen = []
    reset_run_stats()
    run_sweep(
        specs, jobs=2,
        consume=lambda spec, result: seen.append(result.index),
    )
    assert seen == list(range(len(specs)))
    stats = consume_run_stats()
    assert stats.queue_depth == len(specs)
    assert 1 <= stats.stream_merge_peak_rows <= 64 < len(specs)
    telemetry = stats.telemetry()
    assert telemetry["sweep"]["stream_merge_peak_rows"] == (
        stats.stream_merge_peak_rows
    )


# ----------------------------------------------------------------------
# Checkpoint / resume (the digest acceptance criterion)
# ----------------------------------------------------------------------


def _journaled(scale, sweep_dir, **kwargs):
    """Run the latency grid journaled in *sweep_dir*; returns the result
    and the window's stats."""
    reset_run_stats()
    result = run_latency_grid(scale, sweep_dir=sweep_dir, **kwargs)
    return result, consume_run_stats()


def _export_digest(result, stats, scale):
    document = export.build_document(
        result,
        export.build_manifest(
            stats=stats,
            knobs={
                "command": "sweep",
                "preset": "latency-grid",
                "scale": scale,
            },
        ),
        telemetry=stats.telemetry(),
    )
    return export.content_digest(document), document


def test_interrupted_then_resumed_sweep_exports_identical_digest(tmp_path):
    """>=100-spec grid: crash deterministically partway, resume, and the
    merged export digest is byte-identical to the uninterrupted run's —
    with only the unfinished specs re-executed."""
    scale = "small"
    total = len(SWEEP_PRESETS["latency-grid"].build(scale))
    assert total >= 100
    crash_after = 40

    reference, stats = _journaled(scale, tmp_path / "ref", jobs=1)
    assert stats.queue_depth == total
    reference_digest, reference_doc = _export_digest(reference, stats, scale)

    reset_run_stats()
    with pytest.raises(RunInterrupted) as excinfo:
        run_latency_grid(
            scale, jobs=1, sweep_dir=tmp_path / "crashed",
            interrupt_after=crash_after,
        )
    assert excinfo.value.completed == crash_after
    assert excinfo.value.total == total
    assert consume_run_stats().stop_reason == "interrupted"

    status = sweep_status(tmp_path / "crashed")
    assert status["done"] == crash_after
    assert status["remaining"] == total - crash_after

    resumed, stats = _journaled(scale, tmp_path / "crashed", jobs=1)
    # Only the unfinished specs ran; the rest came from checkpoints.
    assert stats.queue_depth == total - crash_after
    assert stats.runs == total - crash_after
    assert stats.specs_skipped == crash_after
    assert stats.specs_tampered == 0
    resumed_digest, resumed_doc = _export_digest(resumed, stats, scale)

    assert resumed_digest == reference_digest
    assert export.experiment_digest(resumed_doc) == export.experiment_digest(
        reference_doc
    )
    assert resumed_doc["experiment"] == reference_doc["experiment"]


def test_tampered_checkpoint_is_reexecuted_not_trusted(tmp_path):
    specs = [_memlat_spec(seed) for seed in (1, 2, 3, 4)]
    rows = []
    journal = _fresh_journal(tmp_path, specs)
    run_sweep(
        specs, journal=journal, jobs=1,
        consume=lambda spec, result: rows.append(
            result.workload_result.measured_latency_ns
        ),
    )

    # Corrupt the payload byte of one checkpointed shard record.
    shard_path = tmp_path / "test" / "results.jsonl"
    lines = shard_path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    record["payload"] = record["payload"][:-4] + (
        "AAAA" if not record["payload"].endswith("AAAA") else "BBBB"
    )
    lines[1] = json.dumps(record, sort_keys=True)
    shard_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    resumed_rows = []
    journal = SweepJournal.open(tmp_path / "test")
    reset_run_stats()
    run_sweep(
        specs, journal=journal, jobs=1,
        consume=lambda spec, result: resumed_rows.append(
            result.workload_result.measured_latency_ns
        ),
    )
    stats = consume_run_stats()
    assert stats.specs_tampered == 1
    assert stats.queue_depth == 1  # the tampered spec, nothing else
    assert stats.runs == 1
    assert stats.specs_skipped == 3
    assert stats.telemetry()["sweep"]["specs_tampered"] == 1
    assert "1 tampered record(s) re-run" in stats.summary()
    assert resumed_rows == rows


def test_resume_with_nothing_left_reuses_everything(tmp_path):
    scale = "smoke"
    first, stats = _journaled(scale, tmp_path / "done", jobs=1)
    first_digest, _ = _export_digest(first, stats, scale)

    again, stats = _journaled(scale, tmp_path / "done", jobs=1)
    total = len(SWEEP_PRESETS["latency-grid"].build(scale))
    assert stats.queue_depth == 0
    assert stats.runs == 0
    assert stats.specs_skipped == total
    assert _export_digest(again, stats, scale)[0] == first_digest


def test_interrupt_in_parallel_mode_checkpoints_completed_specs(tmp_path):
    reset_run_stats()
    with pytest.raises(RunInterrupted):
        run_latency_grid(
            "smoke", jobs=2, sweep_dir=tmp_path / "par", interrupt_after=2,
        )
    consume_run_stats()
    status = sweep_status(tmp_path / "par")
    assert status["done"] >= 2
    _, stats = _journaled("smoke", tmp_path / "par", jobs=2)
    assert status["total"] == status["done"] + stats.queue_depth
    assert stats.specs_skipped == status["done"]


def test_driver_refuses_a_journal_of_another_grid(tmp_path):
    _journaled("smoke", tmp_path / "grid", jobs=1)
    reset_run_stats()
    with pytest.raises(ValidationError, match="does not match this grid"):
        run_latency_grid("small", jobs=1, sweep_dir=tmp_path / "grid")
    consume_run_stats()


def test_every_preset_builds_every_scale_with_unique_fingerprints():
    for name, preset in SWEEP_PRESETS.items():
        for scale in preset.scales:
            specs = preset.build(scale)
            prints = [spec_fingerprint(spec) for spec in specs]
            assert len(set(prints)) == len(prints), (name, scale)


def test_preset_scales_are_ordered_by_size():
    for preset in SWEEP_PRESETS.values():
        sizes = [len(preset.build(scale)) for scale in ("smoke", "small")]
        assert sizes[0] < sizes[1]
        assert "large" in preset.scales


def test_unknown_scale_rejected():
    with pytest.raises(ValidationError, match="unknown scale"):
        SWEEP_PRESETS["latency-grid"].build("galactic")
