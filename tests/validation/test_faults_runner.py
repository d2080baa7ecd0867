"""Faulted runs through the experiment runner.

Two guarantees beyond the clean-path runner tests:

* **Faulted jobs-invariance** — a faulted grid is byte-identical for
  ``--jobs 1`` and ``--jobs N``: each worker re-derives the same
  :class:`FaultEngine` from ``(plan seed, run seed)``, so parallelism
  never changes which faults fire or what they do.
* **Registry acceptance** — every registered experiment runs to
  completion under a light fault plan with invariant checking on, and no
  run violates a single invariant: the model degrades gracefully, it
  does not silently corrupt its accounting.  ``explore-check``, whose
  explorer builds its own simulators, rejects the plan by name instead.
"""

import pytest

from repro.errors import ValidationError
from repro.faults import FaultPlan, active_faults
from repro.hw import IVY_BRIDGE
from repro.quartz.config import QuartzConfig
from repro.units import MILLISECOND
from repro.validation.experiments import REGISTRY
from repro.validation.experiments.fast import run_fast
from repro.validation.runner import (
    RunSpec,
    consume_run_stats,
    reset_run_stats,
    run_specs,
)
from repro.workloads.memlat import MemLatConfig

LIGHT_PLAN = FaultPlan(
    seed=11,
    timer_jitter_rel=0.01,
    signal_delay_ns=20_000.0,
    signal_delay_p=0.25,
    monitor_miss_p=0.1,
    counter_stale_p=0.05,
    calib_perturb_rel=0.02,
)

# The registry sweep leaves calibration alone: experiments that pin
# their target at DRAM speed rightly *reject* a perturbed calibration
# (the emulator can only slow DRAM down), which is a different guarantee
# than graceful degradation under runtime faults.
SWEEP_PLAN = FaultPlan(
    seed=11,
    timer_jitter_rel=0.01,
    signal_delay_ns=20_000.0,
    signal_delay_p=0.25,
    monitor_miss_p=0.1,
    counter_stale_p=0.05,
)


def _memlat_spec(seed: int) -> RunSpec:
    return RunSpec(
        workload="memlat",
        config=MemLatConfig(iterations=50_000),
        arch_name=IVY_BRIDGE.name,
        mode="conf1",
        seed=seed,
        quartz=QuartzConfig(
            nvm_read_latency_ns=400.0, max_epoch_ns=1.0 * MILLISECOND
        ),
    )


# ----------------------------------------------------------------------
# Faulted jobs-invariance
# ----------------------------------------------------------------------


def test_faulted_runs_are_job_count_invariant():
    specs = [_memlat_spec(seed) for seed in (1, 2, 3, 4)]
    with active_faults(LIGHT_PLAN, check_invariants=True):
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
        # The *same* faults fired, not just equally many.
        assert seq.reports["faults"] == par.reports["faults"]
        assert seq.reports["invariants"] == par.reports["invariants"]
    assert any(seq.reports["faults"]["injections"] for seq in sequential)
    assert all(
        r.reports["invariants"]["violations"] == 0
        for r in sequential + parallel
    )


def test_fault_context_reaches_workers_and_stats():
    reset_run_stats()
    with active_faults(LIGHT_PLAN, check_invariants=True):
        results = run_specs([_memlat_spec(5), _memlat_spec(6)], jobs=2)
    stats = consume_run_stats()
    assert stats.count("faults", "total") == sum(
        sum(r.reports["faults"]["injections"].values()) for r in results
    )
    assert stats.count("faults", "total") > 0
    assert stats.invariant_epoch_checks > 0
    assert stats.count("invariants", "violations") == 0
    assert "faults" in stats.summary()
    assert "invariants" in stats.summary()


def test_runs_outside_the_context_stay_clean():
    with active_faults(LIGHT_PLAN, check_invariants=True):
        pass  # context opened and closed: nothing may leak out
    results = run_specs([_memlat_spec(7)], jobs=1)
    assert "faults" not in results[0].reports
    assert "invariants" not in results[0].reports


def test_per_run_seeding_differs_between_runs():
    # Two specs differing only by seed draw different fault decisions —
    # per-run derivation, not one shared stream (which job scheduling
    # could reorder).
    with active_faults(LIGHT_PLAN, check_invariants=False):
        a, b = run_specs([_memlat_spec(1), _memlat_spec(2)], jobs=1)
    a_fired = a.reports["faults"]["injections"]
    b_fired = b.reports["faults"]["injections"]
    assert a_fired or b_fired
    assert (a_fired, a.elapsed_ns) != (b_fired, b.elapsed_ns)


# ----------------------------------------------------------------------
# Registry acceptance: all experiments survive a light fault plan
# ----------------------------------------------------------------------


@pytest.mark.parametrize("experiment_id", sorted(REGISTRY))
def test_registry_experiment_runs_faulted_without_violations(experiment_id):
    reset_run_stats()
    if experiment_id == "explore-check":
        # The explorer builds its own simulators: a plan is rejected by
        # name before the first run rather than silently not applied.
        with active_faults(SWEEP_PLAN, check_invariants=True):
            with pytest.raises(ValidationError, match="take no fault plan"):
                run_fast(experiment_id, jobs=1)
        return
    with active_faults(SWEEP_PLAN, check_invariants=True):
        result = run_fast(experiment_id, jobs=1)
    assert result.rows, f"{experiment_id}: no rows produced under faults"
    stats = consume_run_stats()
    assert stats is not None, f"{experiment_id}: no runner stats window"
    assert stats.invariant_epoch_checks + stats.invariant_sim_checks > 0, (
        f"{experiment_id}: no invariant checks under light faults"
    )
    assert stats.count("invariants", "violations") == 0, (
        f"{experiment_id}: invariant violation(s) under light faults"
    )


def test_explore_mode_accepts_invariant_checking_without_a_plan():
    reset_run_stats()
    with active_faults(check_invariants=True):
        result = run_fast("explore-check", jobs=1)
    assert result.rows
    assert consume_run_stats().explore_schedules > 0
