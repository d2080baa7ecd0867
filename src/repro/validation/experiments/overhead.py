"""Overhead and ablation experiments (Sections 3.2, 6, and Figure 2).

* ``run_overhead_study`` — the Section 3.2 numbers: per-epoch processing
  cost, rdpmc vs. PAPI backend, the "switched-off delay injection" mode,
  and overhead amortisation.
* ``run_pcommit_ablation`` — pflush vs. the pcommit write model on an
  independent-writes microbenchmark (Section 6).
* ``run_dvfs_ablation`` — emulation error with frequency scaling enabled
  (why the paper disables DVFS, Section 6).
* ``run_model_ablation`` — Eq. (1) vs. Eq. (2)/(3) across MLP degrees
  (the Figure 2 argument).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.hw.arch import IVY_BRIDGE, ArchSpec
from repro.hw.machine import Machine
from repro.quartz.calibration import calibrate_arch
from repro.quartz.config import (
    EPOCH_BASE_COST_CYCLES,
    QuartzConfig,
    THREAD_REGISTRATION_COST_CYCLES,
    WriteModel,
)
from repro.quartz.counters import PAPI_BACKEND, RDPMC_BACKEND
from repro.sim import Simulator
from repro.units import MILLISECOND
from repro.validation.metrics import relative_error
from repro.validation.reporting import ExperimentResult
from repro.validation.runner import RunSpec, emulated_runs, run_specs
from repro.workloads.ablations import PersistBarriersConfig
from repro.workloads.memlat import MemLatConfig


def run_overhead_study(
    arch: ArchSpec = IVY_BRIDGE,
    iterations: int = 400_000,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Section 3.2: the emulator's own costs and their amortisation."""
    calibration = calibrate_arch(arch)
    result = ExperimentResult(
        experiment_id="overhead-study",
        title="Emulator overhead (Section 3.2)",
        columns=["quantity", "value", "paper_reference"],
    )
    # Fixed constants (charged as compute by the library).
    result.add_row(
        quantity="thread registration (cycles)",
        value=THREAD_REGISTRATION_COST_CYCLES,
        paper_reference="~300,000 cycles",
    )
    sim = Simulator(seed=1)
    pmc = Machine(sim, arch).pmc(0)
    pmc.program(arch.counter_events.all_events(), privileged=True)
    _, rdpmc_cost = RDPMC_BACKEND.read_all(pmc, arch.counter_events)
    _, papi_cost = PAPI_BACKEND.read_all(pmc, arch.counter_events)
    result.add_row(
        quantity="epoch processing, rdpmc (cycles)",
        value=rdpmc_cost + EPOCH_BASE_COST_CYCLES,
        paper_reference="~4000 cycles, half of it counter reads",
    )
    result.add_row(
        quantity="counter read, PAPI-style (cycles)",
        value=papi_cost,
        paper_reference="~30,000 cycles (~8x the rdpmc epoch)",
    )

    # Switched-off injection: epoch machinery on, delays off.  These four
    # runs (native baseline, two switched-off backends, the amortisation
    # run) fan out through the runner.
    specs = emulated_runs(
        RunSpec(
            workload="memlat", config=MemLatConfig(iterations=iterations),
            arch_name=arch.name, mode="native", seed=800,
        ),
        *(
            QuartzConfig(
                nvm_read_latency_ns=calibration.dram_remote_ns,
                injection_enabled=False,
                counter_backend=backend,
                max_epoch_ns=0.5 * MILLISECOND,
            )
            for backend in ("rdpmc", "papi")
        ),
        QuartzConfig(
            nvm_read_latency_ns=calibration.dram_remote_ns,
            max_epoch_ns=0.5 * MILLISECOND,
        ),
    )
    runs = run_specs(specs, jobs=jobs)
    native = runs[0].workload_result
    for backend, run in zip(("rdpmc", "papi"), runs[1:3]):
        switched_off = run.workload_result
        overhead_pct = 100.0 * (
            switched_off.elapsed_ns / native.elapsed_ns - 1.0
        )
        result.add_row(
            quantity=f"switched-off-injection overhead, {backend} (%)",
            value=overhead_pct,
            paper_reference="<4% for most experiments (rdpmc)",
        )
    # Amortisation: with injection on, overhead hides inside delays.
    stats = runs[3].quartz_stats
    result.add_row(
        quantity="overhead amortized into delays (%)",
        value=100.0 * stats.overhead_amortized_ns / max(stats.overhead_ns, 1e-9),
        paper_reference="fully amortized with proper epoch configuration",
    )
    result.add_row(
        quantity="feedback",
        value=stats.feedback(),
        paper_reference="Section 3.2 statistics",
    )
    return result


def run_pcommit_ablation(
    arch: ArchSpec = IVY_BRIDGE,
    independent_writes: int = 16,
    barriers: int = 200,
    write_latency_ns: float = 1000.0,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Section 6: pflush serialises independent writes; pcommit overlaps.

    A microbenchmark persisting ``independent_writes`` object fields per
    barrier (e.g. initialising a persistent object) runs under both write
    models.
    """
    calibration = calibrate_arch(arch)
    result = ExperimentResult(
        experiment_id="pcommit-ablation",
        title="pflush vs clflushopt+pcommit write models",
        columns=["write_model", "elapsed_us", "ns_per_barrier"],
    )
    models = (WriteModel.PFLUSH, WriteModel.PCOMMIT)
    specs = [
        RunSpec(
            workload="persist-barriers",
            config=PersistBarriersConfig(independent_writes, barriers),
            arch_name=arch.name, mode="ablation", seed=1,
            quartz=QuartzConfig(
                nvm_read_latency_ns=calibration.dram_local_ns * 1.001,
                nvm_write_latency_ns=write_latency_ns,
                write_model=model,
            ),
        )
        for model in models
    ]
    elapsed = [run.workload_result for run in run_specs(specs, jobs=jobs)]
    for model, elapsed_ns in zip(models, elapsed):
        result.add_row(
            write_model=model.value,
            elapsed_us=elapsed_ns / 1000.0,
            ns_per_barrier=elapsed_ns / barriers,
        )
    result.note(
        f"pcommit model speedup on {independent_writes} independent writes: "
        f"{elapsed[0] / elapsed[1]:.1f}x (pflush pessimistically serializes, "
        "Section 6)"
    )
    return result


def run_dvfs_ablation(
    arch: ArchSpec = IVY_BRIDGE,
    target_ns: float = 600.0,
    iterations: int = 300_000,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Section 6: DVFS breaks the cycle<->ns translation.

    The workload is a pure MemLat pointer chase, no compute between
    accesses: with DVFS enabled, stall-cycle counters accrue at a
    wandering frequency while Quartz converts with the nominal one.
    """
    calibrate_arch(arch)
    result = ExperimentResult(
        experiment_id="dvfs-ablation",
        title="Emulation error with DVFS enabled vs disabled",
        columns=["dvfs", "measured_ns", "error_pct"],
    )
    settings = (False, True)
    specs = [
        RunSpec(
            workload="memlat", config=MemLatConfig(iterations=iterations),
            arch_name=arch.name, mode="ablation", seed=4,
            quartz=QuartzConfig(
                nvm_read_latency_ns=target_ns, max_epoch_ns=0.5 * MILLISECOND
            ),
            extras={"machine": {"dvfs": dvfs_enabled}},
        )
        for dvfs_enabled in settings
    ]
    for dvfs_enabled, run in zip(settings, run_specs(specs, jobs=jobs)):
        measured = run.workload_result.measured_latency_ns
        result.add_row(
            dvfs="enabled" if dvfs_enabled else "disabled",
            measured_ns=measured,
            error_pct=100.0 * relative_error(measured, target_ns),
        )
    result.note(
        "the paper disables DVFS to preserve a fixed cycle/ns relationship "
        "(Section 6)"
    )
    return result


def run_model_ablation(
    arch: ArchSpec = IVY_BRIDGE,
    chain_counts: Sequence[int] = (1, 2, 4, 8),
    target_ns: float = 600.0,
    iterations: int = 200_000,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Figure 2's argument quantified: Eq. (1) vs Eq. (2)/(3).

    The simple model over-injects by roughly the MLP factor; the
    stall-based model stays on target at every parallelism degree.
    """
    calibrate_arch(arch)
    result = ExperimentResult(
        experiment_id="model-ablation",
        title="Simple (Eq. 1) vs stall-based (Eq. 2/3) latency model",
        columns=["chains", "model", "measured_ns", "error_pct"],
    )
    grid = [
        (chains, model)
        for chains in chain_counts
        for model in ("stalls", "simple")
    ]
    specs = [
        RunSpec(
            workload="memlat",
            config=MemLatConfig(iterations=iterations, chains=chains),
            arch_name=arch.name,
            mode="conf1",
            seed=820,
            quartz=QuartzConfig(
                nvm_read_latency_ns=target_ns,
                latency_model=model,
                max_epoch_ns=0.5 * MILLISECOND,
            ),
        )
        for chains, model in grid
    ]
    for (chains, model), run in zip(grid, run_specs(specs, jobs=jobs)):
        measured = run.workload_result.measured_latency_ns
        result.add_row(
            chains=chains,
            model=model,
            measured_ns=measured,
            error_pct=100.0 * relative_error(measured, target_ns),
        )
    result.note(
        "Eq. 1 counts every miss as serialized, over-injecting by ~MLP x "
        "(Figure 2); Eq. 2/3 stays accurate as parallelism grows"
    )
    return result
