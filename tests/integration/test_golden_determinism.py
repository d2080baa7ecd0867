"""Golden determinism regression: pinned experiment digests.

``experiment_digest`` hashes only the ``experiment`` section of an export
document (rows, columns, notes) — the manifest's git SHA and versions are
deliberately excluded — so these digests move if and only if simulated
results move.  Any change to the simulator's event ordering, the epoch
engine's accounting, or the model equations shows up here immediately.

To regenerate after an *intentional* behaviour change::

    PYTHONPATH=src python - <<'PY'
    import json
    from repro.validation.experiments.fast import FAST_KWARGS, run_fast
    from repro.validation.runner import reset_run_stats
    from repro.validation import export
    digests = {}
    for eid in FAST_KWARGS:
        reset_run_stats()
        result = run_fast(eid, jobs=1)
        digests[eid] = export.experiment_digest(
            {"experiment": result.to_dict()})
    with open("tests/golden/experiment_digests.json", "w") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    PY

and explain the move in the commit message.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.validation import export
from repro.validation.experiments.fast import run_fast
from repro.validation.runner import reset_run_stats

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "experiment_digests.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def _digest(experiment_id: str) -> str:
    reset_run_stats()
    result = run_fast(experiment_id, jobs=1)
    return export.experiment_digest({"experiment": result.to_dict()})


@pytest.mark.parametrize("experiment_id", sorted(GOLDEN))
def test_experiment_digest_matches_golden(experiment_id):
    actual = _digest(experiment_id)
    expected = GOLDEN[experiment_id]
    assert actual == expected, (
        f"{experiment_id}: experiment digest moved "
        f"({actual[:12]}... != pinned {expected[:12]}...). Simulated "
        "results changed; if intentional, regenerate "
        "tests/golden/experiment_digests.json (recipe in this module's "
        "docstring) and justify the move in the commit message."
    )


def test_digest_is_stable_within_a_process():
    # Re-running in the same interpreter must not perturb global state
    # (caches, stats accumulators) in a digest-visible way.
    assert _digest("figure12") == _digest("figure12")


@pytest.mark.parametrize("experiment_id", sorted(GOLDEN))
def test_digest_identical_with_dispatch_hooks_armed(experiment_id):
    # Arming invariant checking installs a dispatch observer on every
    # validation run.  Observers may only watch, never steer, and an
    # observed run finishes nothing in place, so this is the always-push
    # loop against the pinned digest of the loop that finishes ops in
    # place wherever no event can come first.
    from repro.faults import active_faults

    with active_faults(check_invariants=True):
        hooked = _digest(experiment_id)
    assert hooked == GOLDEN[experiment_id], (
        f"{experiment_id}: experiment digest differs between the "
        "invariant-checked run and the pinned unobserved one; an observer "
        "changed what the dispatch loop did, or an op finished in place "
        "out of order"
    )


def _kv_service_state(observed: bool) -> tuple:
    """A smoke-size KV service run (2 tenants x 300 YCSB-A ops under
    Quartz), with or without a no-op ``dispatch`` subscriber."""
    from repro.hw import IVY_BRIDGE
    from repro.os.testbed import Testbed
    from repro.quartz import Quartz, QuartzConfig, calibrate_arch
    from repro.service import ServiceConfig, TraceConfig
    from repro.service.kvservice import kvservice_main_body

    trace = TraceConfig(
        tenants=2, ops_per_tenant=300, keys_per_tenant=5_000, mix="ycsb-a", seed=1200
    )
    with Testbed(IVY_BRIDGE, seed=11) as testbed:
        sim, machine = testbed.sim, testbed.machine
        if observed:
            sim.hooks.subscribe("dispatch", lambda event: None)
        Quartz(
            testbed.os,
            QuartzConfig(nvm_read_latency_ns=400.0, nvm_write_latency_ns=800.0),
            calibration=calibrate_arch(IVY_BRIDGE),
        ).attach()
        testbed.os.create_thread(kvservice_main_body(ServiceConfig(trace=trace), {}))
        testbed.os.run_to_completion()
        return (
            sim.events_dispatched,
            sim.now,
            [dataclasses.astuple(core.stats) for core in machine.cores],
            [dict(pmc._true) for pmc in machine.pmcs],
            [controller.total_bytes_served for controller in machine.controllers],
        ), sim._seq


def test_kv_service_in_place_matches_the_always_push_loop():
    in_place, in_place_schedules = _kv_service_state(observed=False)
    pushed, pushed_schedules = _kv_service_state(observed=True)
    assert in_place == pushed
    # The rule was on: most waits never reached the heap.
    assert in_place_schedules < pushed_schedules / 2


@pytest.mark.parametrize(
    "experiment_id",
    (
        # Trials of one config per cell.
        "figure12",
        # One spec per (arch, tier set).
        "tier-sweep",
        # Service state (cache, ledgers) lives inside each run's simulator.
        "service-latency",
        # Conf_2 reference plus emulated run per trial.
        "figure11",
        # Native reference plus one emulated run per technology.
        "technology-comparison",
    ),
)
def test_digest_identical_across_worker_counts(experiment_id):
    # Parallel execution must not leak into results: the digest with
    # --jobs 2 must equal the pinned single-worker digest.
    reset_run_stats()
    result = run_fast(experiment_id, jobs=2)
    digest = export.experiment_digest({"experiment": result.to_dict()})
    assert digest == GOLDEN[experiment_id]


def test_golden_file_is_well_formed():
    assert GOLDEN, "golden digest file is empty"
    for experiment_id, digest in GOLDEN.items():
        assert isinstance(digest, str) and len(digest) == 64, (
            f"{experiment_id}: pinned value is not a SHA-256 hex digest"
        )
