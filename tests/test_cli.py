"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.validation.experiments import REGISTRY
from repro.validation.reporting import ExperimentResult


def test_list_command(capsys):
    assert main(["list"]) == 0
    output = capsys.readouterr().out
    assert "figure12" in output
    assert "pagerank-validation" in output


def test_calibrate_command(capsys):
    assert main(["calibrate", "--arch", "ivy-bridge"]) == 0
    output = capsys.readouterr().out
    assert "local DRAM latency" in output
    assert "bandwidth table" in output


def test_run_command_with_arch_and_trials(capsys):
    assert main(["run", "table2", "--arch", "ivy-bridge", "--trials", "1"]) == 0
    output = capsys.readouterr().out
    assert "IvyBridge" in output
    assert "SandyBridge" not in output


def test_run_writes_output_file(tmp_path, capsys):
    target = tmp_path / "table.txt"
    assert main(["run", "table2", "--arch", "haswell", "--trials", "1",
                 "-o", str(target)]) == 0
    capsys.readouterr()
    assert "Haswell" in target.read_text()


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["run", "figure99"])


#: The smoke-scale latency grid, the sweep the journal tests ride on.
SMOKE_GRID = ["run", "sweep-latency-grid", "--scale", "smoke"]


def _usage_error(argv, capsys) -> str:
    """Run *argv*, require argparse's exit 2, and return its stderr."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err
    return err


def test_unknown_arch_rejected(capsys):
    err = _usage_error(["run", "table2", "--arch", "skylake"], capsys)
    assert "unknown architecture 'skylake'" in err


@pytest.mark.parametrize("argv", (
    ["run", "crash-check"],
    ["run", "explore-check"],
    ["calibrate"],
))
def test_unknown_arch_exits_2_on_every_command(argv, capsys):
    assert "unknown architecture" in _usage_error([*argv, "--arch", "nope"], capsys)


def test_arch_alias_reaches_the_driver_as_its_spec(monkeypatch, capsys):
    from repro.hw.arch import IVY_BRIDGE

    seen = {}

    def driver(arch=None):
        seen["arch"] = arch
        return _stub_driver()

    monkeypatch.setitem(REGISTRY, "stub-exp", driver)
    assert main(["run", "stub-exp", "--arch", "ivy"]) == 0
    assert seen["arch"] is IVY_BRIDGE
    capsys.readouterr()


@pytest.mark.parametrize("value", ("0", "-3", "two"))
def test_jobs_must_be_a_positive_int(value, capsys):
    err = _usage_error(["run", "table2", "--jobs", value], capsys)
    assert "argument --jobs" in err


@pytest.mark.parametrize("value", ("0", "-2"))
def test_trials_must_be_a_positive_int(value, capsys):
    err = _usage_error(["run", "table2", "--trials", value], capsys)
    assert "argument --trials" in err


def test_shards_must_be_a_positive_int(capsys):
    err = _usage_error(["run", "crash-check", "--shards", "0"], capsys)
    assert "argument --shards" in err


@pytest.mark.parametrize("command", ("run latency-grid", "resume"))
@pytest.mark.parametrize("value", ("0", "-3"))
def test_interrupt_after_must_be_a_positive_int(command, value, tmp_path, capsys):
    # A resume is the same command on a directory that holds a journal.
    grid = tmp_path / "grid"
    if command == "resume":
        grid.mkdir()
        (grid / "journal.jsonl").write_text("{}\n")
    before = sorted(tmp_path.rglob("*"))
    argv = ["run", "sweep-latency-grid", "--journal", str(grid)]
    err = _usage_error([*argv, "--interrupt-after", value], capsys)
    assert "argument --interrupt-after" in err
    assert sorted(tmp_path.rglob("*")) == before
    if command == "run latency-grid":
        assert not grid.exists()


def test_interrupt_after_without_a_journal_is_a_usage_error(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    err = _usage_error(
        [*SMOKE_GRID, "--interrupt-after", "2"], capsys
    )
    assert "--interrupt-after needs --journal" in err
    assert not list(tmp_path.iterdir())


def test_the_sweep_command_group_is_gone(tmp_path, capsys):
    err = _usage_error(
        ["sweep", "run", "latency-grid", "--dir", str(tmp_path / "grid")],
        capsys,
    )
    assert "invalid choice: 'sweep'" in err
    assert not (tmp_path / "grid").exists()


@pytest.mark.parametrize("value", ("0", "-1"))
def test_max_records_must_be_a_positive_int(value, tmp_path, capsys):
    argv = ["trace", "summarize", str(tmp_path / "trace.jsonl")]
    err = _usage_error([*argv, "--max-records", value], capsys)
    assert "argument --max-records" in err


@pytest.mark.parametrize("value", ("abc", ",", "400/x"))
def test_malformed_tiers_exit_2_with_usage(value, capsys):
    err = _usage_error(["run", "tier-sweep", "--tiers", value], capsys)
    assert "argument --tiers: cannot parse tier 1" in err


@pytest.mark.parametrize(
    "tiers, message",
    (
        ("50/60", "below the backing DRAM latency"),
        ("nan/nan", "read latency must be finite and positive"),
    ),
    ids=("50/60", "nan/nan"),
)
def test_configuration_the_run_rejects_exits_2(tiers, message, capsys):
    assert main(["run", "tier-sweep", "--tiers", tiers, "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert "error: " in err and message in err
    assert "Traceback" not in err


def test_malformed_jobs_environment_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("QUARTZ_REPRO_JOBS", "abc")
    err = _usage_error(["run", "table2", "--arch", "ivy-bridge"], capsys)
    assert "QUARTZ_REPRO_JOBS must be an integer, got 'abc'" in err


def _stub_driver():
    result = ExperimentResult(
        experiment_id="stub", title="Stub experiment", columns=["x"]
    )
    result.add_row(x=1)
    return result


def test_unsupported_flags_note_instead_of_crashing(monkeypatch, capsys):
    """Flags a driver has no parameter for are noted, never a TypeError."""
    monkeypatch.setitem(REGISTRY, "stub-exp", lambda: _stub_driver())
    assert main([
        "run", "stub-exp",
        "--arch", "ivy-bridge", "--trials", "2", "--jobs", "2",
    ]) == 0
    captured = capsys.readouterr()
    assert "Stub experiment" in captured.out
    assert "does not take an architecture" in captured.err
    assert "does not take --trials" in captured.err
    assert "does not take --jobs" in captured.err


#: The flags ``run`` maps onto crash/explore driver parameters.
ORACLE_FLAGS = [
    "--workload", "kvstore", "--mutant", "none", "--shards", "3",
    "--seed", "0", "--no-prune",
]


def test_oracle_flags_note_on_a_driver_without_the_parameters(
    monkeypatch, capsys
):
    monkeypatch.setitem(REGISTRY, "stub-exp", lambda: _stub_driver())
    assert main(["run", "stub-exp", *ORACLE_FLAGS]) == 0
    err = capsys.readouterr().err
    for flag in ("--workload", "--mutant", "--shards", "--seed", "--no-prune"):
        assert err.count(f"note: stub-exp does not take {flag}\n") == 1


def test_oracle_flags_reach_the_driver_by_parameter_name(monkeypatch, capsys):
    from dataclasses import replace

    from repro.validation.experiments import DEFAULT_EXPLORE_PLAN

    seen = {}

    def driver(
        workload=None, mutants=None, shards=None, seed=None,
        explore_plan=None,
    ):
        seen.update(
            workload=workload, mutants=mutants, shards=shards, seed=seed,
            explore_plan=explore_plan,
        )
        return _stub_driver()

    monkeypatch.setitem(REGISTRY, "stub-exp", driver)
    assert main(["run", "stub-exp", *ORACLE_FLAGS]) == 0
    assert "note:" not in capsys.readouterr().err
    assert seen["workload"] == "kvstore"
    assert seen["mutants"] == ("none",)
    assert seen["shards"] == 3
    assert seen["seed"] == 0
    assert seen["explore_plan"].prune is False
    assert seen["explore_plan"] == replace(DEFAULT_EXPLORE_PLAN, prune=False)
    # Unset flags leave the driver's defaults alone.
    assert main(["run", "stub-exp"]) == 0
    assert set(seen.values()) == {None}


def test_fast_starts_from_the_preset_and_flags_overlay_it(monkeypatch, capsys):
    from repro.validation.experiments.fast import FAST_KWARGS

    seen = {}

    def driver(workload="default", shards=1, config=None):
        seen.update(workload=workload, shards=shards, config=config)
        return _stub_driver()

    monkeypatch.setitem(REGISTRY, "stub-exp", driver)
    monkeypatch.setitem(
        FAST_KWARGS, "stub-exp",
        lambda: {"workload": "small", "shards": 2, "config": "tiny"},
    )
    assert main(["run", "stub-exp", "--fast", "--shards", "5"]) == 0
    assert seen == {"workload": "small", "shards": 5, "config": "tiny"}
    capsys.readouterr()


@pytest.mark.parametrize("argv", (
    ["crash-check", "kvstore"],
    ["explore", "mutex-log"],
    ["service", "latency-smoke"],
))
def test_folded_experiment_commands_are_usage_errors(argv, capsys):
    assert "invalid choice" in _usage_error(argv, capsys)


def test_jobs_flag_forwarded(monkeypatch, capsys):
    seen = {}

    def driver(jobs=None):
        seen["jobs"] = jobs
        return _stub_driver()

    monkeypatch.setitem(REGISTRY, "stub-exp", driver)
    assert main(["run", "stub-exp", "--jobs", "3"]) == 0
    assert seen["jobs"] == 3
    # Without the flag the CLI default (env override, else all cores)
    # is resolved and passed along.
    monkeypatch.setenv("QUARTZ_REPRO_JOBS", "5")
    assert main(["run", "stub-exp"]) == 0
    assert seen["jobs"] == 5
    capsys.readouterr()


def test_run_prints_runner_summary(capsys):
    assert main(["run", "table2", "--arch", "ivy-bridge", "--trials", "1",
                 "--jobs", "1"]) == 0
    output = capsys.readouterr().out
    assert "runner:" in output
    assert "calibration cache:" in output


def test_calibrate_refresh(capsys):
    from repro.quartz.calibration import cache_counters

    before = cache_counters.measurements
    assert main(["calibrate", "--arch", "ivy-bridge", "--refresh"]) == 0
    assert cache_counters.measurements == before + 1
    assert "local DRAM latency" in capsys.readouterr().out


# ----------------------------------------------------------------------
# JSON export and trace streaming
# ----------------------------------------------------------------------
def test_run_format_json_stdout_is_pure_document(capsys):
    import json

    from repro.validation import export

    assert main(["run", "table2", "--arch", "ivy-bridge", "--trials", "1",
                 "--jobs", "1", "--format", "json"]) == 0
    captured = capsys.readouterr()
    # stdout parses as exactly one JSON document; chatter is on stderr.
    document = json.loads(captured.out)
    assert document["schema"] == export.EXPORT_SCHEMA
    assert document["experiment"]["experiment_id"] == "table2"
    assert document["manifest"]["content_digest"]
    assert document["manifest"]["knobs"]["experiment"] == "table2"
    assert document["telemetry"]["jobs"] == 1
    assert "completed in" in captured.err
    assert "runner:" in captured.err


def test_run_format_json_out_file_validates(tmp_path, capsys):
    from repro.validation import export

    target = tmp_path / "table2.json"
    assert main(["run", "table2", "--arch", "ivy-bridge", "--trials", "1",
                 "--jobs", "1", "--format", "json", "--out", str(target)]) == 0
    capsys.readouterr()
    # The file passes full schema + digest validation on reload.
    document = export.load_experiment_json(target)
    rebuilt = export.result_from_document(document)
    assert rebuilt.experiment_id == "table2"
    assert rebuilt.rows
    manifest = export.manifest_from_document(document)
    assert "ivy-bridge" in manifest.archs


def test_trace_out_and_summarize_roundtrip(tmp_path, capsys):
    trace_file = tmp_path / "epochs.jsonl"
    assert main(["run", "figure12", "--arch", "ivy-bridge", "--trials", "1",
                 "--trace-out", str(trace_file)]) == 0
    captured = capsys.readouterr()
    assert "epoch trace:" in captured.out
    assert trace_file.exists()
    assert main(["trace", "summarize", str(trace_file)]) == 0
    summary = capsys.readouterr().out
    assert "epochs over" in summary
    assert "runs traced:" in summary
    assert "overhead fully amortized:" in summary


def test_trace_out_forces_single_job(tmp_path, capsys):
    trace_file = tmp_path / "epochs.jsonl"
    assert main(["run", "figure12", "--arch", "ivy-bridge", "--trials", "1",
                 "--jobs", "4", "--trace-out", str(trace_file)]) == 0
    captured = capsys.readouterr()
    assert "forcing --jobs 1" in captured.err
    assert trace_file.exists()


def test_trace_summarize_bad_file_errors(tmp_path, capsys):
    bogus = tmp_path / "not-a-trace.jsonl"
    bogus.write_text("{}\n")
    assert main(["trace", "summarize", str(bogus)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("header", (False, True), ids=("header", "record"))
def test_trace_summarize_rejects_a_line_that_is_not_an_object(
    header, tmp_path, capsys
):
    from repro.quartz.trace import JsonlTraceWriter

    trace_file = tmp_path / "epochs.jsonl"
    if header:
        JsonlTraceWriter(trace_file).close()
    with open(trace_file, "a", encoding="utf-8") as handle:
        handle.write("[1]\n")
    assert main(["trace", "summarize", str(trace_file)]) == 1
    err = capsys.readouterr().err
    assert "not a JSON object" in err and "Traceback" not in err


def test_unwritable_out_fails_before_the_run(monkeypatch, tmp_path, capsys):
    calls = []
    monkeypatch.setitem(
        REGISTRY, "stub-exp", lambda: calls.append(1) or _stub_driver()
    )
    target = tmp_path / "missing" / "x.txt"
    assert main(["run", "stub-exp", "-o", str(target)]) == 2
    err = capsys.readouterr().err
    assert "error: " in err and str(target) in err
    assert calls == []


def test_unwritable_trace_out_exits_2(monkeypatch, tmp_path, capsys):
    calls = []
    monkeypatch.setitem(
        REGISTRY, "stub-exp", lambda: calls.append(1) or _stub_driver()
    )
    target = tmp_path / "missing" / "x.jsonl"
    assert main(["run", "stub-exp", "--trace-out", str(target)]) == 2
    err = capsys.readouterr().err
    assert "error: " in err and str(target) in err
    assert calls == []


def test_writable_out_probe_leaves_no_file_behind(monkeypatch, tmp_path, capsys):
    from repro.errors import ValidationError

    def rejected():
        raise ValidationError("bad configuration")

    monkeypatch.setitem(REGISTRY, "stub-exp", rejected)
    target = tmp_path / "x.txt"
    assert main(["run", "stub-exp", "-o", str(target)]) == 2
    capsys.readouterr()
    assert not target.exists()


# ----------------------------------------------------------------------
# Fault injection and invariant checking
# ----------------------------------------------------------------------
def test_run_with_faults_records_plan_in_manifest(capsys):
    import json

    assert main([
        "run", "figure12", "--arch", "ivy-bridge", "--trials", "1",
        "--jobs", "1", "--format", "json",
        "--faults", "signal-delay(ns=400000,p=1.0); seed(3)",
        "--check-invariants",
    ]) == 0
    captured = capsys.readouterr()
    document = json.loads(captured.out)
    faults = document["manifest"]["faults"]
    assert faults["signal_delay_ns"] == 400000.0
    assert faults["seed"] == 3
    assert document["manifest"]["knobs"]["check_invariants"] is True
    assert document["telemetry"]["faults"]["injections"]
    assert document["telemetry"]["invariants"]["violations"] == 0
    assert "faults:" in captured.err
    assert "invariants:" in captured.err


def test_malformed_faults_spec_exits_2_with_guidance(capsys):
    assert main(["run", "table2", "--faults", "bogus(x=1)"]) == 2
    captured = capsys.readouterr()
    assert "error: unknown fault kind 'bogus'" in captured.err
    assert "supported kinds:" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_malformed_fault_parameter_exits_2(capsys):
    assert main([
        "run", "table2", "--faults", "timer-jitter(nope=1)",
    ]) == 2
    captured = capsys.readouterr()
    assert "unknown parameter 'nope'" in captured.err
    assert "expected: drift, rel" in captured.err


def test_faulted_dvfs_ablation_runs_under_the_plan(capsys):
    """The DVFS ablation runs under the plan and the invariant monitor."""
    import json

    argv = ["run", "dvfs-ablation", "--fast", "--jobs", "1", "--format", "json"]
    assert main(argv) == 0
    clean = json.loads(capsys.readouterr().out)
    assert main([
        *argv, "--check-invariants",
        "--faults", "seed(7); signal-delay(ns=2e6, p=1.0); timer-jitter(rel=0.05)",
    ]) == 0
    faulted = json.loads(capsys.readouterr().out)
    assert faulted["experiment"]["rows"] != clean["experiment"]["rows"]
    assert faulted["telemetry"]["faults"]["injections"]
    assert faulted["telemetry"]["invariants"]["violations"] == 0


def test_faulted_explore_check_is_rejected_by_name(capsys):
    assert main([
        "run", "explore-check", "--fast", "--jobs", "1",
        "--faults", "seed(7); signal-delay(ns=2e6, p=1.0)",
    ]) == 2
    captured = capsys.readouterr()
    assert "error: explore runs take no fault plan" in captured.err
    assert captured.out == ""


def test_invariant_violation_exits_3_without_traceback(monkeypatch, capsys):
    from repro.quartz import epoch as epoch_module

    real = epoch_module.amortize_delay

    def corrupt(pool_ns, overhead_ns, delay_ns):
        injected, amortized, new_pool = real(pool_ns, overhead_ns, delay_ns)
        return injected + 1000.0, amortized, new_pool

    monkeypatch.setattr(epoch_module, "amortize_delay", corrupt)
    assert main([
        "run", "figure12", "--arch", "ivy-bridge", "--trials", "1",
        "--jobs", "1", "--check-invariants",
    ]) == 3
    captured = capsys.readouterr()
    assert "invariant 'delay-conservation' violated" in captured.err
    assert "re-run without --check-invariants" in captured.err
    assert "Traceback" not in captured.err


def test_without_check_invariants_corruption_passes_silently(monkeypatch, capsys):
    # The raw (faulted) behaviour remains observable: without the flag
    # the same corrupted accounting completes with exit code 0.
    from repro.quartz import epoch as epoch_module

    real = epoch_module.amortize_delay

    def corrupt(pool_ns, overhead_ns, delay_ns):
        injected, amortized, new_pool = real(pool_ns, overhead_ns, delay_ns)
        return injected + 1000.0, amortized, new_pool

    monkeypatch.setattr(epoch_module, "amortize_delay", corrupt)
    assert main([
        "run", "figure12", "--arch", "ivy-bridge", "--trials", "1",
        "--jobs", "1",
    ]) == 0


# ----------------------------------------------------------------------
# Journaled sweeps: run <sweep id> --journal D, and status --journal D
# ----------------------------------------------------------------------

SWEEP_IDS = (
    "sweep-latency-grid", "sweep-tier-grid", "sweep-migration-grid",
    "sweep-service-grid",
)


def test_sweep_run_smoke_exits_zero(tmp_path, capsys):
    assert main([
        *SMOKE_GRID, "--journal", str(tmp_path / "grid"), "--jobs", "1",
    ]) == 0
    captured = capsys.readouterr()
    assert "4 spec(s), 4 executed" in captured.out
    assert (tmp_path / "grid" / "journal.jsonl").exists()
    assert (tmp_path / "grid" / "results.jsonl").exists()


def test_sweep_interrupt_status_resume_roundtrip(tmp_path, capsys):
    """The CI smoke in miniature: crash deterministically, inspect,
    resume, and the resumed JSON document matches a fresh reference."""
    import json

    sweep_dir = str(tmp_path / "grid")
    assert main([
        *SMOKE_GRID, "--journal", sweep_dir, "--jobs", "1",
        "--interrupt-after", "2",
    ]) == 130
    captured = capsys.readouterr()
    assert "interrupted:" in captured.err
    assert "4 spec(s), 4 queued, 0 reused from checkpoints" in captured.err
    assert (
        "resume with: quartz-repro run sweep-latency-grid --scale smoke "
        f"--journal {sweep_dir}\n"
    ) in captured.err

    assert main(["status", "--journal", sweep_dir]) == 0
    assert "2/4 spec(s) checkpointed" in capsys.readouterr().out

    resumed_path = tmp_path / "resumed.json"
    assert main([
        *SMOKE_GRID, "--journal", sweep_dir, "--jobs", "1",
        "--format", "json", "-o", str(resumed_path),
    ]) == 0
    assert "2 reused from checkpoints" in capsys.readouterr().err

    reference_path = tmp_path / "reference.json"
    assert main([
        *SMOKE_GRID, "--journal", str(tmp_path / "ref"), "--jobs", "1",
        "--format", "json", "-o", str(reference_path),
    ]) == 0
    capsys.readouterr()
    resumed = json.loads(resumed_path.read_text())
    reference = json.loads(reference_path.read_text())
    assert (
        resumed["manifest"]["content_digest"]
        == reference["manifest"]["content_digest"]
    )


def test_interrupt_hint_without_scale_names_the_driver_default(
    tmp_path, capsys
):
    sweep_dir = str(tmp_path / "grid")
    assert main([
        "run", "sweep-migration-grid", "--journal", sweep_dir,
        "--jobs", "1", "--interrupt-after", "1",
    ]) == 130
    assert (
        "resume with: quartz-repro run sweep-migration-grid --scale small "
        f"--journal {sweep_dir}\n"
    ) in capsys.readouterr().err


def test_sweep_run_twice_resumes_the_journal(tmp_path, capsys):
    argv = [*SMOKE_GRID, "--journal", str(tmp_path / "grid"), "--jobs", "1"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert "4 reused from checkpoints" in capsys.readouterr().out


def test_sweep_run_into_a_journal_of_another_scale_exits_two(tmp_path, capsys):
    sweep_dir = _smoke_journal(tmp_path, capsys)
    assert main([
        "run", "sweep-latency-grid", "--scale", "small",
        "--journal", sweep_dir, "--jobs", "1",
    ]) == 2
    err = capsys.readouterr().err
    assert "error: sweep journal does not match this grid" in err
    assert "Traceback" not in err


def test_sweep_run_into_an_uncreatable_directory_exits_two(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main([
        *SMOKE_GRID, "--journal", str(blocker / "grid"), "--jobs", "1",
    ]) == 2
    err = capsys.readouterr().err
    assert "error: cannot create sweep journal" in err
    assert "Traceback" not in err


def _smoke_journal(tmp_path, capsys) -> str:
    """A finished smoke-scale latency-grid sweep directory."""
    sweep_dir = str(tmp_path / "grid")
    assert main([*SMOKE_GRID, "--journal", sweep_dir, "--jobs", "1"]) == 0
    capsys.readouterr()
    return sweep_dir


def _resume(sweep_dir: str) -> list:
    """The command that resumes *sweep_dir*: the one that made it."""
    return [*SMOKE_GRID, "--journal", sweep_dir, "--jobs", "1"]


def test_sweep_resume_of_a_finished_sweep_reports_the_reuse(tmp_path, capsys):
    sweep_dir = _smoke_journal(tmp_path, capsys)
    assert main(_resume(sweep_dir)) == 0
    out = capsys.readouterr().out
    assert "runner: 0 runs" in out
    assert "4 spec(s), 0 executed, 4 reused from checkpoints" in out


def test_sweep_journal_done_line_that_is_not_an_object_is_skipped(
    tmp_path, capsys
):
    sweep_dir = _smoke_journal(tmp_path, capsys)
    with open(f"{sweep_dir}/journal.jsonl", "a", encoding="utf-8") as handle:
        handle.write("[1]\n")
    assert main(["status", "--journal", sweep_dir]) == 0
    assert "4/4 spec(s) checkpointed" in capsys.readouterr().out
    assert main(_resume(sweep_dir)) == 0
    assert "4 reused from checkpoints" in capsys.readouterr().out


@pytest.mark.parametrize(
    "total, message",
    (
        (None, "not a quartz-repro/sweep-journal journal"),
        ("abc", "corrupt header: bad spec total 'abc'"),
    ),
    ids=("list-header", "str-total"),
)
@pytest.mark.parametrize("command", ("status", "resume"))
def test_sweep_bad_journal_header_exits_two(
    command, total, message, tmp_path, capsys
):
    import json

    sweep_dir = _smoke_journal(tmp_path, capsys)
    journal = tmp_path / "grid" / "journal.jsonl"
    header, *records = journal.read_text().splitlines()
    header = "[]" if total is None else json.dumps(
        dict(json.loads(header), total=total)
    )
    journal.write_text("\n".join([header, *records]) + "\n")
    argv = (
        ["status", "--journal", sweep_dir] if command == "status"
        else _resume(sweep_dir)
    )
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {journal}: {message}" in err
    assert "Traceback" not in err


def test_sweep_resume_reexecutes_a_shard_record_that_is_not_an_object(
    tmp_path, capsys
):
    sweep_dir = _smoke_journal(tmp_path, capsys)
    shards = tmp_path / "grid" / "results.jsonl"
    *kept, _ = shards.read_text().splitlines()
    shards.write_text("\n".join([*kept, "[1]"]) + "\n")
    assert main(_resume(sweep_dir)) == 0
    out = capsys.readouterr().out
    assert "4 spec(s), 1 executed, 3 reused from checkpoints" in out
    assert "1 tampered record(s) re-run" in out


def test_sweep_and_inline_run_export_one_experiment(tmp_path, capsys):
    import json

    from repro.validation import export
    from repro.validation.experiments.sweeps import run_latency_grid

    inline = run_latency_grid("smoke", jobs=1)
    assert main([
        *SMOKE_GRID, "--journal", str(tmp_path / "grid"), "--jobs", "1",
        "--format", "json",
    ]) == 0
    document = json.loads(capsys.readouterr().out)
    assert export.experiment_digest(document) == export.experiment_digest(
        {"experiment": inline.to_dict()}
    )


@pytest.mark.parametrize("experiment_id", SWEEP_IDS)
def test_journaled_run_exports_the_inline_document(
    experiment_id, tmp_path, capsys
):
    """The journal changes where runs are kept, not what is exported."""
    import json

    from repro.validation import export

    argv = [
        "run", experiment_id, "--scale", "smoke", "--jobs", "1",
        "--format", "json",
    ]
    assert main(argv) == 0
    inline = json.loads(capsys.readouterr().out)
    assert main([*argv, "--journal", str(tmp_path / "grid")]) == 0
    journaled = json.loads(capsys.readouterr().out)
    assert export.experiment_digest(journaled) == export.experiment_digest(
        inline
    )
    assert (
        journaled["manifest"]["content_digest"]
        == inline["manifest"]["content_digest"]
    )
    assert journaled["manifest"]["knobs"]["scale"] == "smoke"


def test_sweep_status_missing_directory_exits_two(tmp_path, capsys):
    assert main(["status", "--journal", str(tmp_path / "nope")]) == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_unknown_preset_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main([
            "run", "sweep-no-such-grid", "--journal", str(tmp_path / "x"),
        ])


# ----------------------------------------------------------------------
# One emit path: every experiment command shares plan sections, exit
# codes and interrupt handling
# ----------------------------------------------------------------------


def test_run_crash_check_exports_the_crash_check_command_manifest(capsys):
    import json

    assert main(["run", "crash-check", "--jobs", "1", "--format", "json"]) == 0
    via_run = json.loads(capsys.readouterr().out)
    # The driver's defaults, spelled out as flags.
    assert main([
        "run", "crash-check", "--workload", "kvstore", "--shards", "4",
        "--seed", "411", "--jobs", "1", "--format", "json",
    ]) == 0
    via_command = json.loads(capsys.readouterr().out)
    assert via_run["experiment"] == via_command["experiment"]
    # The content digest covers the knobs, which record the flags.
    volatile = ("knobs", "content_digest")
    assert {
        key: value for key, value in via_run["manifest"].items()
        if key not in volatile
    } == {
        key: value for key, value in via_command["manifest"].items()
        if key not in volatile
    }
    assert via_run["manifest"]["crash"]["max_points"] > 0
    # Crash runs calibrate, so their calibration seed is provenance.
    assert via_run["manifest"]["calibration_seeds"] == [0]


@pytest.mark.parametrize("experiment_id", ("service-latency", "cache-policy"))
def test_run_fast_exports_the_golden_experiment_digest(experiment_id, capsys):
    import json
    from pathlib import Path

    from repro.validation import export

    golden = json.loads(
        (Path(__file__).parent / "golden" / "experiment_digests.json")
        .read_text()
    )
    assert main([
        "run", experiment_id, "--fast", "--jobs", "1", "--format", "json",
    ]) == 0
    document = json.loads(capsys.readouterr().out)
    assert export.experiment_digest(document) == golden[experiment_id]
    assert document["manifest"]["service"]["preset"] == "fast"


def test_explore_check_of_disjoint_locks_runs_only_the_clean_protocol(capsys):
    import json

    assert main([
        "run", "explore-check", "--workload", "disjoint-locks",
        "--jobs", "1", "--format", "json",
    ]) == 0
    rows = json.loads(capsys.readouterr().out)["experiment"]["rows"]
    assert [(row["mutant"], row["ok"]) for row in rows] == [("none", True)]


@pytest.mark.parametrize(
    "experiment_id, workload, message",
    (
        ("crash-check", "graph500", "takes a Graph500Config, not a KvStoreConfig"),
        ("explore-check", "kvstore", "takes a KvStoreConfig, not a LitmusConfig"),
    ),
    ids=("crash-check", "explore-check"),
)
def test_fast_config_that_does_not_fit_the_workload_exits_2(
    experiment_id, workload, message, capsys
):
    assert main([
        "run", experiment_id, "--fast", "--workload", workload, "--jobs", "1",
    ]) == 2
    err = capsys.readouterr().err
    assert f"error: {experiment_id} workload '{workload}' {message}" in err
    assert "Traceback" not in err


def _memlat_run():
    from repro.hw import IVY_BRIDGE
    from repro.validation.runner import RunSpec, run_specs
    from repro.workloads.memlat import MemLatConfig

    run_specs(
        [RunSpec(
            workload="memlat", config=MemLatConfig(iterations=2_000),
            arch_name=IVY_BRIDGE.name,
        )],
        jobs=1,
    )


ORACLE_COMMANDS = [
    (["run", "crash-check"], "crash-check"),
    (["run", "explore-check"], "explore-check"),
]


@pytest.mark.parametrize(
    "argv, experiment_id", ORACLE_COMMANDS, ids=["crash-check", "explore"]
)
def test_oracle_command_interrupt_exits_130_with_partial_summary(
    monkeypatch, capsys, argv, experiment_id
):
    from repro.errors import RunInterrupted

    def interrupted(**kwargs):
        _memlat_run()
        raise RunInterrupted(
            "run grid interrupted (KeyboardInterrupt) after 1 of 2 run(s)",
            completed=1, total=2,
        )

    monkeypatch.setitem(REGISTRY, experiment_id, interrupted)
    assert main([*argv, "--jobs", "1"]) == 130
    captured = capsys.readouterr()
    assert "interrupted: run grid interrupted" in captured.err
    assert "runner: 1 runs" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, experiment_id", ORACLE_COMMANDS, ids=["crash-check", "explore"]
)
def test_oracle_command_invariant_violation_exits_3(
    monkeypatch, capsys, argv, experiment_id
):
    from repro.errors import InvariantViolation

    def violated(**kwargs):
        raise InvariantViolation("delay-conservation", "stub violation")

    monkeypatch.setitem(REGISTRY, experiment_id, violated)
    assert main([*argv, "--jobs", "1"]) == 3
    captured = capsys.readouterr()
    assert "invariant 'delay-conservation' violated" in captured.err
    assert "aborted at the first violated invariant" in captured.err
    assert "Traceback" not in captured.err


def test_run_exits_4_when_a_row_fails_its_oracle(monkeypatch, capsys):
    def failing(**kwargs):
        result = ExperimentResult(
            experiment_id="crash-check", title="stub",
            columns=["workload", "mutant", "violations", "expected", "ok"],
        )
        result.add_row(
            workload="kvstore", mutant="none", violations=2, expected="0",
            ok=False,
        )
        return result

    monkeypatch.setitem(REGISTRY, "crash-check", failing)
    assert main(["run", "crash-check", "--jobs", "1"]) == 4
    assert "kvstore/none: expected 0 violation(s), got 2" in (
        capsys.readouterr().err
    )


def test_sweep_resume_refuses_an_old_journal_version(tmp_path, capsys):
    import json

    sweep_dir = tmp_path / "grid"
    assert main([
        *_resume(str(sweep_dir)), "--interrupt-after", "1",
    ]) == 130
    capsys.readouterr()
    journal = sweep_dir / "journal.jsonl"
    header, *records = journal.read_text().splitlines()
    old = dict(json.loads(header), schema_version=1)
    journal.write_text("\n".join([json.dumps(old), *records]) + "\n")
    assert main(_resume(str(sweep_dir))) == 2
    captured = capsys.readouterr()
    assert "unsupported journal version 1 (supported: 2)" in captured.err
    assert "Traceback" not in captured.err
