"""Tests for the parallel experiment runner.

The load-bearing property is determinism: a grid's results — and
therefore every rendered table — must be byte-identical whatever the
job count, because each run builds its own simulator from its own seed.
"""

from dataclasses import fields

import pytest

from repro.errors import ValidationError
from repro.hw import IVY_BRIDGE
from repro.quartz.config import QuartzConfig
from repro.units import MILLISECOND
from repro.validation import runner as runner_module
from repro.quartz.trace import read_trace_jsonl
from repro.validation.experiments import run_figure12
from repro.validation.experiments.fast import run_fast
from repro.validation.reporting import render_table
from repro.validation.runner import (
    RunSpec,
    close_trace_out,
    consume_run_stats,
    default_cli_jobs,
    emulated_runs,
    reset_run_stats,
    resolve_jobs,
    run_cells,
    run_specs,
    set_trace_out,
)
from repro.workloads.memlat import MemLatConfig


def _memlat_spec(seed: int, target_ns: float = 400.0) -> RunSpec:
    return RunSpec(
        workload="memlat",
        config=MemLatConfig(iterations=50_000),
        arch_name=IVY_BRIDGE.name,
        mode="conf1",
        seed=seed,
        quartz=QuartzConfig(
            nvm_read_latency_ns=target_ns, max_epoch_ns=1.0 * MILLISECOND
        ),
    )


# ----------------------------------------------------------------------
# RunSpec validation
# ----------------------------------------------------------------------


def test_unknown_workload_rejected():
    with pytest.raises(ValidationError):
        RunSpec(workload="nope", config=None, arch_name=IVY_BRIDGE.name)


def test_unknown_mode_rejected():
    with pytest.raises(ValidationError):
        RunSpec(
            workload="memlat", config=MemLatConfig(), arch_name=IVY_BRIDGE.name,
            mode="conf3",
        )


def test_conf1_requires_quartz_config():
    with pytest.raises(ValidationError):
        RunSpec(
            workload="memlat", config=MemLatConfig(), arch_name=IVY_BRIDGE.name,
            mode="conf1",
        )


# ----------------------------------------------------------------------
# Reference-vs-emulated cells
# ----------------------------------------------------------------------


def test_emulated_runs_differ_from_their_reference_only_in_mode_and_quartz():
    reference = RunSpec(
        workload="memlat", config=MemLatConfig(iterations=50_000),
        arch_name=IVY_BRIDGE.name, mode="conf2", seed=7, calibration_seed=3,
        extras={"note": "kept"},
    )
    configs = [QuartzConfig(nvm_read_latency_ns=ns) for ns in (300.0, 600.0)]
    specs = emulated_runs(reference, *configs)
    assert specs[0] is reference
    assert [spec.quartz for spec in specs[1:]] == configs
    for spec in specs[1:]:
        differing = {
            f.name for f in fields(RunSpec)
            if getattr(spec, f.name) != getattr(reference, f.name)
        }
        assert differing == {"mode", "quartz"}
        assert spec.mode == "conf1"
    assert emulated_runs(reference) == [reference]


def test_run_cells_groups_results_in_flat_run_specs_order():
    cells = [
        [_memlat_spec(1)],
        [_memlat_spec(2), _memlat_spec(3, target_ns=600.0)],
        [],
        [_memlat_spec(4)],
    ]
    flat = run_specs([spec for cell in cells for spec in cell], jobs=1)
    grouped = run_cells(cells, jobs=1)
    assert [len(runs) for runs in grouped] == [1, 2, 0, 1]
    assert [run.index for runs in grouped for run in runs] == [0, 1, 2, 3]
    assert [run.elapsed_ns for runs in grouped for run in runs] == [
        run.elapsed_ns for run in flat
    ]


# ----------------------------------------------------------------------
# Sequential execution and observability
# ----------------------------------------------------------------------


def test_run_specs_returns_submitted_order_with_observability():
    reset_run_stats()
    specs = [_memlat_spec(seed) for seed in (1, 2, 3)]
    results = run_specs(specs, jobs=1)
    assert [r.index for r in results] == [0, 1, 2]
    for result in results:
        assert result.workload_result.measured_latency_ns > 0
        assert result.events > 0
        assert result.wall_s > 0
        assert result.quartz_stats is not None
    stats = consume_run_stats()
    assert stats.runs == 3
    assert stats.jobs == 1
    assert stats.events == sum(r.events for r in results)
    # Second consume yields nothing: the window was cleared.
    assert consume_run_stats() is None


def test_same_seed_same_result():
    a, b = run_specs([_memlat_spec(9), _memlat_spec(9)], jobs=1)
    assert (
        a.workload_result.measured_latency_ns
        == b.workload_result.measured_latency_ns
    )
    assert a.elapsed_ns == b.elapsed_ns
    assert a.events == b.events


# ----------------------------------------------------------------------
# Determinism across job counts (the acceptance criterion)
# ----------------------------------------------------------------------


def test_parallel_matches_sequential_exactly():
    specs = [_memlat_spec(seed) for seed in (1, 2, 3, 4)]
    sequential = run_specs(specs, jobs=1)
    parallel = run_specs(specs, jobs=4)
    assert [r.index for r in parallel] == [0, 1, 2, 3]
    for seq, par in zip(sequential, parallel):
        assert (
            seq.workload_result.measured_latency_ns
            == par.workload_result.measured_latency_ns
        )
        assert seq.elapsed_ns == par.elapsed_ns
        assert seq.events == par.events


def test_figure12_table_byte_identical_across_job_counts():
    kwargs = dict(
        archs=[IVY_BRIDGE], target_latencies_ns=(300.0,),
        iterations=60_000, trials=2,
    )
    table_seq = render_table(run_figure12(jobs=1, **kwargs))
    table_par = render_table(run_figure12(jobs=4, **kwargs))
    assert table_seq == table_par


# ----------------------------------------------------------------------
# Graceful degradation
# ----------------------------------------------------------------------


def test_pool_unavailable_falls_back_in_process(monkeypatch, capsys):
    def broken_pool(*args, **kwargs):
        raise OSError("no processes for you")

    monkeypatch.setattr(
        runner_module, "ProcessPoolExecutor", broken_pool
    )
    reset_run_stats()
    specs = [_memlat_spec(seed) for seed in (5, 6)]
    results = run_specs(specs, jobs=4)
    assert len(results) == 2
    assert "process pool unavailable" in capsys.readouterr().err
    stats = consume_run_stats()
    assert stats.jobs == 1  # fell back
    assert stats.runs == 2


def test_single_spec_grid_stays_in_process():
    reset_run_stats()
    results = run_specs([_memlat_spec(7)], jobs=8)
    assert len(results) == 1
    assert consume_run_stats().jobs == 1


# ----------------------------------------------------------------------
# Interrupt handling
# ----------------------------------------------------------------------


def test_sequential_interrupt_reports_partial_stats(monkeypatch):
    from repro.errors import RunInterrupted

    real_run_one = runner_module._run_one
    calls = {"n": 0}

    def interrupting_run_one(payload):
        calls["n"] += 1
        if calls["n"] == 3:
            raise KeyboardInterrupt
        return real_run_one(payload)

    monkeypatch.setattr(runner_module, "_run_one", interrupting_run_one)
    reset_run_stats()
    specs = [_memlat_spec(seed) for seed in (1, 2, 3, 4)]
    with pytest.raises(RunInterrupted) as excinfo:
        run_specs(specs, jobs=1)
    assert excinfo.value.completed == 2
    assert excinfo.value.total == 4
    stats = consume_run_stats()
    assert stats.stop_reason == "interrupted"
    assert stats.runs == 2
    assert "stopped: interrupted" in stats.summary()
    assert stats.telemetry()["stop_reason"] == "interrupted"


def test_parallel_interrupt_cancels_and_reports(monkeypatch):
    """A worker-pool collapse surfaces as RunInterrupted with partial
    stats, not a traceback from the pool internals."""
    from concurrent.futures.process import BrokenProcessPool

    from repro.errors import RunInterrupted

    class CollapsingPool:
        def __init__(self, *args, **kwargs):
            pass

        def submit(self, *args, **kwargs):
            raise BrokenProcessPool("worker died")

        def shutdown(self, *args, **kwargs):
            pass

    monkeypatch.setattr(
        runner_module, "ProcessPoolExecutor", CollapsingPool
    )
    reset_run_stats()
    specs = [_memlat_spec(seed) for seed in (1, 2, 3)]
    with pytest.raises(RunInterrupted) as excinfo:
        run_specs(specs, jobs=3)
    assert excinfo.value.completed == 0
    assert consume_run_stats().stop_reason == "interrupted"


def test_failing_run_cancels_the_rest_of_the_grid(monkeypatch):
    """A run raising anything (not only Ctrl-C) stops the pool: every
    pending future is cancelled and the error propagates unchanged."""
    from concurrent.futures import Future

    from repro.errors import QuartzError

    futures, shutdowns = [], []

    class FailingPool:
        def __init__(self, *args, **kwargs):
            pass

        def submit(self, *args, **kwargs):
            future = Future()
            if not futures:
                future.set_exception(QuartzError("bad target"))
            futures.append(future)
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            shutdowns.append(cancel_futures)
            if cancel_futures:
                for future in futures:
                    future.cancel()

    monkeypatch.setattr(runner_module, "ProcessPoolExecutor", FailingPool)
    reset_run_stats()
    specs = [_memlat_spec(seed) for seed in (1, 2, 3, 4)]
    with pytest.raises(QuartzError, match="bad target"):
        run_specs(specs, jobs=2)
    consume_run_stats()
    assert shutdowns and all(shutdowns)
    assert all(future.cancelled() for future in futures[1:])


# ----------------------------------------------------------------------
# Wall-time percentiles
# ----------------------------------------------------------------------


def test_wall_percentiles_nearest_rank():
    stats = runner_module.RunnerStats(jobs=1)
    stats.run_wall_times = [0.040, 0.010, 0.030, 0.020]
    assert stats.wall_percentile(0.50) == 0.020
    assert stats.wall_percentile(0.99) == 0.040
    assert stats.wall_p50_s == 0.020
    assert stats.wall_p99_s == 0.040


def test_wall_percentiles_empty_window():
    stats = runner_module.RunnerStats(jobs=1)
    assert stats.wall_p50_s is None
    assert stats.wall_p99_s is None
    assert "per-run wall" not in stats.summary()


def test_stats_summary_and_telemetry_carry_percentiles():
    reset_run_stats()
    run_specs([_memlat_spec(seed) for seed in (1, 2)], jobs=1)
    stats = consume_run_stats()
    assert len(stats.run_wall_times) == 2
    assert "per-run wall p50/p99" in stats.summary()
    telemetry = stats.telemetry()
    assert telemetry["wall_p50_s"] > 0
    assert telemetry["wall_p99_s"] >= telemetry["wall_p50_s"]


def test_prewarm_dedupes_by_fingerprint():
    specs = [_memlat_spec(seed) for seed in (1, 2, 3)]
    # Three specs, one (arch, calibration seed) pair: one warm-up.
    assert runner_module._prewarm_calibrations(specs) == 1


# ----------------------------------------------------------------------
# Job-count resolution
# ----------------------------------------------------------------------


def test_resolve_jobs_defaults_to_one(monkeypatch):
    monkeypatch.delenv("QUARTZ_REPRO_JOBS", raising=False)
    assert resolve_jobs(None) == 1
    assert resolve_jobs(0) == 1
    assert resolve_jobs(3) == 3


def test_resolve_jobs_honours_environment(monkeypatch):
    monkeypatch.setenv("QUARTZ_REPRO_JOBS", "6")
    assert resolve_jobs(None) == 6
    assert resolve_jobs(2) == 2  # explicit wins
    assert default_cli_jobs() == 6


def test_default_cli_jobs_uses_every_core(monkeypatch):
    monkeypatch.delenv("QUARTZ_REPRO_JOBS", raising=False)
    assert default_cli_jobs() >= 1


@pytest.mark.parametrize("resolve", (resolve_jobs, default_cli_jobs))
def test_malformed_jobs_environment_is_a_named_validation_error(
    monkeypatch, resolve
):
    monkeypatch.setenv("QUARTZ_REPRO_JOBS", "abc")
    with pytest.raises(ValidationError, match="QUARTZ_REPRO_JOBS"):
        resolve()


@pytest.mark.parametrize("experiment_id", ("service-latency", "crash-check"))
def test_trace_out_records_epochs_of_every_emulated_mode(tmp_path, experiment_id):
    # Service and crash runs attach Quartz like Conf_1 runs do, so the
    # --trace-out stream must carry their epochs and run brackets too.
    path = tmp_path / "trace.jsonl"
    set_trace_out(str(path))
    try:
        run_fast(experiment_id, jobs=1)
    finally:
        close_trace_out()
    document = read_trace_jsonl(path)
    assert len(document.trace) >= 1
    assert len(document.runs) == len(document.stats) >= 1


def test_every_emulated_mode_records_its_calibration_seed():
    from repro.pmem.crash import CrashPlan

    stats = runner_module.RunnerStats()
    quartz = QuartzConfig(nvm_read_latency_ns=400.0)
    for seed, mode, extras in (
        (1, "conf1", {}),
        (2, "crash", {"crash_plan": CrashPlan()}),
        (3, "service", {}),
        (4, "native", {}),
    ):
        runner_module._record_spec(stats, RunSpec(
            workload="memlat", config=None, arch_name="ivy-bridge",
            mode=mode, quartz=quartz, calibration_seed=seed, extras=extras,
        ))
    # Only the runs that attach Quartz calibrate.
    assert stats.calibration_seeds == {1, 2, 3}
