"""End-to-end crash-consistency checking: injector, oracle, determinism.

These are the subsystem's acceptance tests:

* the unmutated protocols recover from **every** enumerated crash point;
* each seeded mutant is caught (the regression oracle of
  ``repro.pmem.checker``);
* crash-point enumeration is deterministic per ``(plan seed, run seed)``
  and identical in every storage shard, so the merged experiment — and
  its export digest — cannot depend on ``--jobs``.
"""

import json

import pytest

from repro.errors import ValidationError
from repro.hw.arch import IVY_BRIDGE
from repro.hw.machine import Machine
from repro.os.system import SimOS
from repro.pmem import MUTANTS, CrashPlan, build_recoverable, check_workload
from repro.quartz.calibration import calibrate_arch
from repro.quartz.config import QuartzConfig, WriteModel
from repro.quartz.emulator import Quartz
from repro.sim import Simulator
from repro.units import MICROSECOND
from repro.validation import export
from repro.validation.experiments.crash import run_crash_check
from repro.validation.runner import consume_run_stats, reset_run_stats
from repro.workloads.graph500 import Graph500Config
from repro.workloads.kvstore import KvStoreConfig

KV_CONFIG = KvStoreConfig(
    puts_per_thread=12, gets_per_thread=0, threads=2, batch_ops=4, seed=3
)
BFS_CONFIG = Graph500Config(vertex_count=300, edges_per_vertex=4, seed=2)
PLAN = CrashPlan(random_interval_ns=150 * MICROSECOND, seed=7, max_points=128)


def run_check(
    workload_id,
    config,
    mutant=None,
    seed=0,
    shard=0,
    shards=1,
    write_model=WriteModel.PCOMMIT,
    plan=PLAN,
):
    sim = Simulator(seed=seed)
    machine = Machine(sim, IVY_BRIDGE, latency_jitter=True)
    os = SimOS(machine, default_cpu_node=0)
    quartz = Quartz(
        os,
        QuartzConfig(
            nvm_read_latency_ns=400.0,
            nvm_write_latency_ns=500.0,
            write_model=write_model,
        ),
        calibration=calibrate_arch(IVY_BRIDGE),
    )
    quartz.attach()
    report, result, _ = check_workload(
        os,
        workload_id,
        config,
        plan,
        run_seed=seed,
        shard=shard,
        shards=shards,
        mutant=mutant,
    )
    return report, result


@pytest.mark.parametrize(
    "workload_id,config",
    [("kvstore", KV_CONFIG), ("graph500", BFS_CONFIG)],
)
def test_correct_protocol_recovers_from_every_point(workload_id, config):
    report, result = run_check(workload_id, config)
    assert report.points > 0
    assert report.checked == report.points
    assert report.violation_total == 0
    assert result is not None


@pytest.mark.parametrize(
    "workload_id,config",
    [("kvstore", KV_CONFIG), ("graph500", BFS_CONFIG)],
)
@pytest.mark.parametrize("mutant", MUTANTS)
def test_mutants_are_caught(workload_id, config, mutant):
    report, _ = run_check(workload_id, config, mutant=mutant)
    assert report.violation_total >= 1
    assert report.violations, "violation records must accompany the count"
    record = report.violations[0]
    assert record["invariant"] in report.invariants
    assert record["trigger"]


@pytest.mark.parametrize("write_model", (WriteModel.PFLUSH, WriteModel.PCOMMIT))
def test_oracle_holds_under_both_write_models(write_model):
    clean, _ = run_check("kvstore", KV_CONFIG, write_model=write_model)
    broken, _ = run_check(
        "kvstore", KV_CONFIG, mutant="missing-flush", write_model=write_model
    )
    assert clean.violation_total == 0
    assert broken.violation_total >= 1


def test_enumeration_is_deterministic_per_seed():
    first, _ = run_check("kvstore", KV_CONFIG, seed=5)
    second, _ = run_check("kvstore", KV_CONFIG, seed=5)
    other, _ = run_check("kvstore", KV_CONFIG, seed=6)
    assert first.to_dict() == second.to_dict()
    # A different run seed perturbs machine jitter and the injector's
    # random stream: the report (times/points) must not be pinned by
    # accident.
    assert first.to_dict() != other.to_dict()


def test_shards_partition_the_identical_point_sequence():
    whole, _ = run_check("kvstore", KV_CONFIG, mutant="misordered-barrier")
    shard_reports = [
        run_check(
            "kvstore",
            KV_CONFIG,
            mutant="misordered-barrier",
            shard=shard,
            shards=3,
        )[0]
        for shard in range(3)
    ]
    assert {report.points for report in shard_reports} == {whole.points}
    assert sum(report.checked for report in shard_reports) == whole.checked
    merged = sorted(
        (record for report in shard_reports for record in report.violations),
        key=lambda record: record["crash_index"],
    )
    # Each run caps *stored* records (never counts); the single-shard
    # run's records are a prefix of the sharded union.
    assert merged[: len(whole.violations)] == whole.violations
    assert (
        sum(report.violation_total for report in shard_reports)
        == whole.violation_total
    )


def _run_injector(shard=0, shards=1):
    """Drive the kvstore workload keeping the injector (and its stored
    images) in hand — ``check_workload`` consumes images during recovery,
    so stride tests reach underneath it."""
    from repro.pmem.crash import CrashInjector
    from repro.pmem.domain import PersistenceDomain

    sim = Simulator(seed=0)
    machine = Machine(sim, IVY_BRIDGE, latency_jitter=True)
    os = SimOS(machine, default_cpu_node=0)
    quartz = Quartz(
        os,
        QuartzConfig(
            nvm_read_latency_ns=400.0,
            nvm_write_latency_ns=500.0,
            write_model=WriteModel.PCOMMIT,
        ),
        calibration=calibrate_arch(IVY_BRIDGE),
    )
    quartz.attach()
    domain = PersistenceDomain()
    domain.install(sim.hooks)
    injector = CrashInjector(
        domain, PLAN, run_seed=0, shard=shard, shards=shards
    )
    injector.install(sim)
    workload = build_recoverable("kvstore", KV_CONFIG)
    out: dict = {}
    os.create_thread(workload.body_factory(domain, out), name="main")
    os.run_to_completion()
    return injector


@pytest.mark.parametrize("shards", (2, 3, 5))
def test_shard_strides_store_an_exact_partition(shards):
    """Stored crash-image *indices* form an exact partition of the point
    sequence — no duplicates, no gaps — and every stored image carries
    content identical to the unsharded run's image at the same index.
    """
    reference = _run_injector()
    by_index = {image.index: image for image in reference.images}
    assert sorted(by_index) == list(range(reference.points))
    stored: dict[int, object] = {}
    for shard in range(shards):
        injector = _run_injector(shard=shard, shards=shards)
        # Every shard enumerates the identical point sequence.
        assert injector.points == reference.points
        for image in injector.images:
            # No duplicates across shards.
            assert image.index not in stored
            stored[image.index] = image
            # The stride is exactly index % shards == shard.
            assert image.index % shards == shard
    # No gaps: the union covers every enumerated point.
    assert sorted(stored) == list(range(reference.points))
    for index, image in stored.items():
        twin = by_index[index]
        assert image.persisted == twin.persisted
        assert image.trigger == twin.trigger
        assert image.time_ns == twin.time_ns


def test_injector_never_perturbs_the_simulation():
    plain, result_plain = run_check(
        "kvstore", KV_CONFIG, plan=CrashPlan(max_points=1, on_epoch_close=False)
    )
    dense, result_dense = run_check(
        "kvstore",
        KV_CONFIG,
        plan=CrashPlan(
            random_interval_ns=20 * MICROSECOND, seed=9, max_points=256
        ),
    )
    # Same workload result whatever the crash plan: snapshots are free
    # in simulated time.
    assert result_plain == result_dense
    assert dense.points > plain.points


def test_build_recoverable_rejects_unknowns():
    from repro.errors import WorkloadError

    with pytest.raises(WorkloadError, match="no recoverable"):
        build_recoverable("stream", KV_CONFIG)
    with pytest.raises(WorkloadError, match="unknown mutant"):
        build_recoverable("kvstore", KV_CONFIG, mutant="bitflip")


# ----------------------------------------------------------------------
# The experiment driver and CLI
# ----------------------------------------------------------------------

DRIVER_KWARGS = dict(
    workload="kvstore",
    shards=2,
    config=KvStoreConfig(
        puts_per_thread=8, gets_per_thread=0, threads=2, batch_ops=4, seed=3
    ),
)


def _document(jobs):
    reset_run_stats()
    result = run_crash_check(jobs=jobs, **DRIVER_KWARGS)
    stats = consume_run_stats()
    return export.build_document(
        result,
        export.build_manifest(stats=stats, knobs={"command": "crash-check"}),
        telemetry=stats.telemetry() if stats is not None else None,
    )


def test_driver_rows_satisfy_the_oracle():
    document = _document(jobs=1)
    rows = {row["mutant"]: row for row in document["experiment"]["rows"]}
    assert rows["none"]["violations"] == 0 and rows["none"]["ok"]
    for mutant in MUTANTS:
        assert rows[mutant]["violations"] >= 1 and rows[mutant]["ok"]


def test_driver_rejects_a_config_that_does_not_fit_the_workload():
    with pytest.raises(ValidationError) as error:
        run_crash_check(workload="graph500", config=KV_CONFIG, jobs=1)
    assert str(error.value) == (
        "crash-check workload 'graph500' takes a Graph500Config, "
        "not a KvStoreConfig"
    )


def test_export_digest_is_jobs_invariant():
    serial = _document(jobs=1)
    parallel = _document(jobs=4)
    assert export.experiment_digest(serial) == export.experiment_digest(
        parallel
    )
    assert export.content_digest(serial) == export.content_digest(parallel)


def test_cli_crash_check(capsys, tmp_path):
    from repro.cli import main

    out_path = tmp_path / "crash.json"
    code = main(
        [
            "run",
            "crash-check",
            "--workload",
            "kvstore",
            "--shards",
            "2",
            "--jobs",
            "1",
            "--format",
            "json",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["manifest"]["crash"]["max_points"] > 0
    assert document["manifest"]["knobs"]["command"] == "run"
    assert document["manifest"]["knobs"]["experiment"] == "crash-check"
    assert [row["ok"] for row in document["experiment"]["rows"]] == [True] * 3
    assert export.load_experiment_json(out_path)


def test_cli_crash_check_single_mutant_table(capsys):
    from repro.cli import main

    code = main(
        [
            "run",
            "crash-check",
            "--workload",
            "kvstore",
            "--mutant",
            "missing-flush",
            "--shards",
            "1",
            "--jobs",
            "1",
        ]
    )
    assert code == 0
    rendered = capsys.readouterr().out
    assert "missing-flush" in rendered
    assert ">=1" in rendered
