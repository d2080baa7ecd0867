"""Microbenchmark experiments: Table 2, Figures 8, 11, 12, and the
max-epoch sweep of Section 4.4 footnote 4.

Every driver builds its (arch x parameter x trial) grid as declarative
:class:`~repro.validation.runner.RunSpec` units and hands it to
:func:`~repro.validation.runner.run_specs`, so ``jobs=N`` fans the grid
over worker processes with byte-identical tables.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.hw.arch import ALL_ARCHS, SANDY_BRIDGE, ArchSpec
from repro.hw.memory import THROTTLE_REGISTER_MAX
from repro.quartz.calibration import calibrate_arch
from repro.quartz.config import QuartzConfig
from repro.units import MILLISECOND
from repro.validation.metrics import relative_error, summarize
from repro.validation.reporting import ExperimentResult
from repro.validation.runner import RunSpec, emulated_runs, run_cells, run_specs
from repro.workloads.memlat import MemLatConfig
from repro.workloads.stream import StreamConfig


def run_table2(
    archs: Sequence[ArchSpec] = ALL_ARCHS,
    trials: int = 3,
    iterations: int = 40_000,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Table 2: measured local/remote DRAM latencies on each testbed."""
    result = ExperimentResult(
        experiment_id="table2",
        title="Measured Memory Access Latencies (ns)",
        columns=[
            "processor", "min_local", "avg_local", "max_local",
            "min_remote", "avg_remote", "max_remote",
        ],
    )
    cells = [
        [
            RunSpec(
                workload="memlat",
                config=MemLatConfig(iterations=iterations),
                arch_name=arch.name,
                mode="chase",
                seed=100 + trial,
                extras={"mem_node": node},
            )
            for node in (0, 1)
            for trial in range(trials)
        ]
        for arch in archs
    ]
    for arch, runs in zip(archs, run_cells(cells, jobs=jobs)):
        latencies = [run.workload_result.measured_latency_ns for run in runs]
        local = summarize(latencies[:trials])
        remote = summarize(latencies[trials:])
        result.add_row(
            processor=arch.family,
            min_local=local.minimum, avg_local=local.mean, max_local=local.maximum,
            min_remote=remote.minimum, avg_remote=remote.mean,
            max_remote=remote.maximum,
        )
    result.note(f"{trials} trials of {iterations} chase iterations per cell")
    return result


def run_figure8(
    arch: ArchSpec = SANDY_BRIDGE,
    register_points: int = 13,
    stream_config: Optional[StreamConfig] = None,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Figure 8: STREAM copy bandwidth vs. thermal-control register."""
    # Single-threaded copy, as in the paper's Figure 8: the curve rises
    # linearly and plateaus at the application's attainable bandwidth
    # (~12 GB/s for a one-thread copy loop on these parts).
    stream_config = stream_config or StreamConfig(
        threads=1, compute_cycles_per_element=2.5
    )
    result = ExperimentResult(
        experiment_id="figure8",
        title=f"STREAM copy bandwidth vs throttle register ({arch.family})",
        columns=["register", "bandwidth_gbps"],
    )
    registers = [
        round(index * THROTTLE_REGISTER_MAX / (register_points - 1))
        for index in range(register_points)
    ]
    specs = [
        RunSpec(
            workload="stream",
            config=stream_config,
            arch_name=arch.name,
            mode="throttled",
            seed=7,
            extras={"register": register},
        )
        for register in registers
    ]
    for register, run in zip(registers, run_specs(specs, jobs=jobs)):
        result.add_row(
            register=register,
            bandwidth_gbps=run.workload_result.bandwidth_bytes_per_ns,
        )
    result.note(
        "bandwidth rises linearly in register space until the application's "
        "attainable maximum (the Figure 8 shape)"
    )
    return result


def run_figure11(
    archs: Sequence[ArchSpec] = ALL_ARCHS,
    chain_counts: Sequence[int] = (1, 2, 3, 4, 5, 8),
    iterations: int = 250_000,
    trials: int = 3,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Figure 11: MemLat emulation error vs. memory-access parallelism.

    Conf_1 + Quartz emulating the *remote* latency, compared against the
    same benchmark physically on remote DRAM (Conf_2).
    """
    result = ExperimentResult(
        experiment_id="figure11",
        title="MemLat emulation error vs concurrent pointer chains",
        columns=["processor", "chains", "error_pct"],
    )
    keys, cells = [], []
    for arch in archs:
        calibration = calibrate_arch(arch)
        # 1 ms epochs (footnote 4: as accurate as 10 ms) keep the
        # scaled-down runs many epochs long.
        config = QuartzConfig(
            nvm_read_latency_ns=calibration.dram_remote_ns,
            max_epoch_ns=1.0 * MILLISECOND,
        )
        for chains in chain_counts:
            memlat = MemLatConfig(iterations=iterations, chains=chains)
            keys.append((arch, chains))
            cells.append([
                spec
                for trial in range(trials)
                for spec in emulated_runs(
                    RunSpec(
                        workload="memlat", config=memlat, arch_name=arch.name,
                        mode="conf2", seed=200 + trial,
                    ),
                    config,
                )
            ])
    for (arch, chains), runs in zip(keys, run_cells(cells, jobs=jobs)):
        errors = [
            relative_error(
                emulated.workload_result.elapsed_ns,
                physical.workload_result.elapsed_ns,
            )
            for physical, emulated in zip(runs[::2], runs[1::2])
        ]
        result.add_row(
            processor=arch.family,
            chains=chains,
            error_pct=100.0 * summarize(errors).mean,
        )
    result.note("paper reports 0.2%-4% across all chain counts and testbeds")
    return result


def run_figure12(
    archs: Sequence[ArchSpec] = ALL_ARCHS,
    target_latencies_ns: Sequence[float] = (200.0, 400.0, 600.0, 800.0, 1000.0),
    iterations: int = 250_000,
    trials: int = 5,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Figure 12: MemLat-measured latency vs. emulation target."""
    result = ExperimentResult(
        experiment_id="figure12",
        title="MemLat-reported latency under Quartz vs emulation target",
        columns=[
            "processor", "target_ns", "measured_ns",
            "spread_ns", "error_pct",
        ],
    )
    keys = [(arch, target) for arch in archs for target in target_latencies_ns]
    cells = [
        [
            RunSpec(
                workload="memlat",
                config=MemLatConfig(iterations=iterations),
                arch_name=arch.name,
                mode="conf1",
                seed=300 + trial,
                quartz=QuartzConfig(
                    nvm_read_latency_ns=target, max_epoch_ns=1.0 * MILLISECOND
                ),
            )
            for trial in range(trials)
        ]
        for arch, target in keys
    ]
    for (arch, target), runs in zip(keys, run_cells(cells, jobs=jobs)):
        stats = summarize([run.workload_result.measured_latency_ns for run in runs])
        result.add_row(
            processor=arch.family,
            target_ns=target,
            measured_ns=stats.mean,
            spread_ns=stats.spread,
            error_pct=100.0 * relative_error(stats.mean, target),
        )
    result.note(
        "paper error bands: <9% Sandy Bridge, <2% Ivy Bridge, <6% Haswell"
    )
    return result


def run_epoch_size_study(
    arch: ArchSpec = SANDY_BRIDGE,
    max_epochs_ms: Sequence[float] = (1.0, 10.0, 100.0),
    target_ns: float = 600.0,
    iterations: int = 600_000,
    trials: int = 3,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Section 4.4 footnote 4: accuracy vs. maximum epoch size.

    1 ms and 10 ms epochs hold accuracy; 100 ms degrades it (a large
    unclosed tail of the run is never injected).
    """
    result = ExperimentResult(
        experiment_id="epoch-size-study",
        title="MemLat emulation error vs maximum epoch size",
        columns=["max_epoch_ms", "measured_ns", "error_pct"],
    )
    cells = [
        [
            RunSpec(
                workload="memlat",
                config=MemLatConfig(iterations=iterations),
                arch_name=arch.name,
                mode="conf1",
                seed=400 + trial,
                quartz=QuartzConfig(
                    nvm_read_latency_ns=target_ns,
                    max_epoch_ns=max_epoch_ms * MILLISECOND,
                    min_epoch_ns=min(0.1 * MILLISECOND, max_epoch_ms * MILLISECOND),
                ),
            )
            for trial in range(trials)
        ]
        for max_epoch_ms in max_epochs_ms
    ]
    for max_epoch_ms, runs in zip(max_epochs_ms, run_cells(cells, jobs=jobs)):
        measured = [run.workload_result.measured_latency_ns for run in runs]
        mean = summarize(measured).mean
        result.add_row(
            max_epoch_ms=max_epoch_ms,
            measured_ns=mean,
            error_pct=100.0 * relative_error(mean, target_ns),
        )
    result.note("paper: 1 ms and 10 ms accurate, 100 ms degrades accuracy")
    return result
