"""Figure 13: Multi-Threaded benchmark accuracy vs. minimum epoch size.

For each thread count the benchmark runs once physically on remote DRAM
(Conf_2, the red "actual" line) and once per minimum-epoch setting under
Quartz emulating the remote latency on local DRAM (Conf_1).  The
min==max==10 ms line disables delay propagation at lock releases — the
paper's demonstration that naive per-thread injection mis-schedules
critical sections (error growing with thread count, up to ~34%), while
min-epochs <= 1 ms hold the error under ~3%.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.hw.arch import IVY_BRIDGE, SANDY_BRIDGE, ArchSpec
from repro.quartz.calibration import calibrate_arch
from repro.quartz.config import QuartzConfig
from repro.units import MILLISECOND, ns_to_ms
from repro.validation.metrics import relative_error
from repro.validation.reporting import ExperimentResult
from repro.validation.runner import RunSpec, emulated_runs, run_cells
from repro.workloads.multithreaded import MultiThreadedConfig


def run_figure13(
    archs: Sequence[ArchSpec] = (SANDY_BRIDGE, IVY_BRIDGE),
    thread_counts: Sequence[int] = (2, 4, 8),
    min_epochs_ms: Sequence[float] = (0.01, 0.1, 1.0, 10.0),
    sections: int = 300,
    cs_iterations: int = 100,
    with_compute: bool = True,
    cs_only: bool = True,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Figure 13(a)-(d): emulated vs. actual completion times."""
    result = ExperimentResult(
        experiment_id="figure13",
        title="Multi-Threaded benchmark: accuracy vs minimum epoch size",
        columns=[
            "processor", "case", "threads", "min_epoch_ms",
            "ct_emulated_ms", "ct_actual_ms", "error_pct",
        ],
    )
    cases = []
    if cs_only:
        cases.append(("cs only", 0))
    if with_compute:
        cases.append(("with compute", cs_iterations))
    keys, cells = [], []
    for arch in archs:
        calibration = calibrate_arch(arch)
        configs = [
            QuartzConfig(
                nvm_read_latency_ns=calibration.dram_remote_ns,
                min_epoch_ns=min_epoch_ms * MILLISECOND,
                max_epoch_ns=10.0 * MILLISECOND,
            )
            for min_epoch_ms in min_epochs_ms
        ]
        for case_name, out_iterations in cases:
            for threads in thread_counts:
                workload = MultiThreadedConfig(
                    threads=threads,
                    sections=sections,
                    cs_iterations=cs_iterations,
                    out_iterations=out_iterations,
                )
                keys.append((arch, case_name, threads))
                cells.append(emulated_runs(
                    RunSpec(
                        workload="multithreaded", config=workload,
                        arch_name=arch.name, mode="conf2", seed=500,
                    ),
                    *configs,
                ))
    for (arch, case_name, threads), (actual, *emulated) in zip(
        keys, run_cells(cells, jobs=jobs)
    ):
        actual_ns = actual.workload_result.elapsed_ns
        for min_epoch_ms, run in zip(min_epochs_ms, emulated):
            emulated_ns = run.workload_result.elapsed_ns
            result.add_row(
                processor=arch.family,
                case=case_name,
                threads=threads,
                min_epoch_ms=min_epoch_ms,
                ct_emulated_ms=ns_to_ms(emulated_ns),
                ct_actual_ms=ns_to_ms(actual_ns),
                error_pct=100.0 * relative_error(emulated_ns, actual_ns),
            )
    result.note(
        "min epoch == max epoch (10 ms) disables sync-triggered delay "
        "propagation; the paper sees up to 34% error there and <3% for "
        "min epochs <= 1 ms"
    )
    result.note(
        f"scaled: K={sections} critical sections (paper: 1M), "
        f"cs_dur={cs_iterations} chase iterations"
    )
    return result
