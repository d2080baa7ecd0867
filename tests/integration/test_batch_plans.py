"""Batch plans against re-deriving every batch's cost.

Each core keeps a plan per ``MemBatch`` op it has executed
(``repro.hw.core``).  The oracle clears every core's plan table before
each op, so every batch is costed from scratch, and requires the planned
run to match it in every dispatched event ``(time, seq)``, every op's
result, each interrupted op's remainder, every core's true PMC counts
and stats, and the run's own outcome.
"""

import dataclasses

import pytest

from repro.hw import IVY_BRIDGE, Machine
from repro.hw.core import Core
from repro.os import testbed
from repro.quartz import QuartzConfig, calibrate_arch
from repro.service import CacheConfig, ServiceConfig, TraceConfig
from repro.service.kvservice import kvservice_main_body
from repro.validation import configs
from repro.workloads.multithreaded import MultiThreadedConfig, multithreaded_main_body

#: The end-to-end benchmark's smoke-sized kv-service trace.
SMOKE_SERVICE = ServiceConfig(
    trace=TraceConfig(
        tenants=2, ops_per_tenant=300, keys_per_tenant=5_000, mix="ycsb-a", seed=1200
    ),
    cache=CacheConfig(capacity=256),
    clients_per_tenant=2,
)

RUNS = {
    "kv-service": (
        lambda out: kvservice_main_body(SMOKE_SERVICE, out),
        QuartzConfig(nvm_read_latency_ns=400.0, nvm_write_latency_ns=800.0,
                     min_epoch_ns=5_000.0, max_epoch_ns=20_000.0),
    ),
    "multithreaded": (
        lambda out: multithreaded_main_body(
            MultiThreadedConfig(threads=4, sections=30, cs_iterations=50,
                                out_iterations=50),
            out,
        ),
        QuartzConfig(nvm_read_latency_ns=600.0, min_epoch_ns=5_000.0,
                     max_epoch_ns=20_000.0),
    ),
}


def describe(op):
    """An op's type and size, without process-global ids."""
    if op is None:
        return None
    fields = ("cycles", "duration_ns", "accesses", "lines", "drain_ns")
    return type(op).__name__, tuple(
        (name, getattr(op, name)) for name in fields if hasattr(op, name)
    )


def record(monkeypatch, name, clear_plans):
    """Run *name* under Quartz; return everything observable."""
    log, machines = [], []

    def build(sim, arch, **kwargs):
        machine = Machine(sim, arch, **kwargs)
        sim.hooks.subscribe("dispatch", lambda event: log.append((event.time, event.seq)))
        machines.append(machine)
        return machine

    execute, finish, abort = Core.execute, Core.finish, Core.abort

    def logged_execute(core, thread, op):
        if clear_plans:
            for each in core.machine.cores:
                each._plans.clear()
        wait, token = execute(core, thread, op)
        log.append(("execute", core.core_id, describe(op), wait is None))
        return wait, token

    def logged_finish(core, token):
        result = finish(core, token)
        log.append(("finish", core.core_id, describe(result.op), result.duration_ns))
        return result

    def logged_abort(core, token, interrupt):
        interrupted = abort(core, token, interrupt)
        log.append(("abort", core.core_id, describe(interrupted.remainder),
                    interrupted.elapsed_ns))
        return interrupted

    monkeypatch.setattr(testbed, "Machine", build)
    monkeypatch.setattr(Core, "execute", logged_execute)
    monkeypatch.setattr(Core, "finish", logged_finish)
    monkeypatch.setattr(Core, "abort", logged_abort)
    body, quartz = RUNS[name]
    outcome = configs.run_conf1(
        IVY_BRIDGE, body, quartz, seed=3, calibration=calibrate_arch(IVY_BRIDGE)
    )
    monkeypatch.undo()
    (machine,) = machines
    events = IVY_BRIDGE.counter_events.all_events()
    return {
        "log": log,
        "pmc": [[pmc.true_value(event) for event in events] for pmc in machine.pmcs],
        "stats": [dataclasses.asdict(core.stats) for core in machine.cores],
        "elapsed_ns": outcome.elapsed_ns,
        "quartz": dataclasses.asdict(outcome.quartz_stats),
        "result": repr(outcome.workload_result),
        "planned": sum(len(core._plans) for core in machine.cores),
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_planned_run_equals_the_run_that_costs_every_batch_afresh(monkeypatch, name):
    calibrate_arch(IVY_BRIDGE)  # outside both recorded runs
    oracle = record(monkeypatch, name, clear_plans=True)
    planned = record(monkeypatch, name, clear_plans=False)
    assert oracle["planned"] <= 1 < planned["planned"]
    aborts = sum(1 for entry in planned["log"] if entry[0] == "abort")
    assert aborts > 0, "the run must interrupt batches"
    for key in oracle:
        if key != "planned":
            assert planned[key] == oracle[key], key
