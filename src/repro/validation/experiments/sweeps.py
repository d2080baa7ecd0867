"""Sweep presets: the thousand-config grids of the ``sweep-*`` experiments.

The tier/migration experiments (PR 6) and the latency studies generate
exactly the grid shapes the ROADMAP's orchestration item anticipates —
hundreds to thousands of :class:`~repro.validation.runner.RunSpec`\\ s per
study.  A :class:`SweepPreset` packages one such grid declaratively:
how to build the specs for a named scale (``smoke``/``small``/``large``),
and how to turn each finished run into one result row.  The sweep engine
(:mod:`repro.validation.sweep`) streams the rows out in submission
order, so a preset's :class:`~repro.validation.reporting.ExperimentResult`
— and its export digest — is byte-identical whether the grid ran on one
job, on N jobs, or across an interrupt/resume boundary.

Each preset is registered as a plain experiment driver
(``sweep-latency-grid`` …).  Without a ``sweep_dir`` the grid runs
inline — no journal — as the fast presets and the registry-wide
export/fault test sweeps run it; with one, the same driver journals it
there, and a later call on the same directory resumes it
(``quartz-repro run sweep-<preset> --scale S --journal D``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

from repro.errors import ValidationError
from repro.hw.arch import IVY_BRIDGE
from repro.quartz.calibration import calibrate_arch
from repro.quartz.config import QuartzConfig
from repro.quartz.tiers import TierLadder
from repro.units import MILLISECOND
from repro.validation.experiments.tiers import (
    DEFAULT_TIER_SETS,
    _build_tiers,
    tier_report,
)
from repro.validation.reporting import ExperimentResult
from repro.validation.runner import RunResult, RunSpec
from repro.validation.sweep import SweepJournal, run_sweep, spec_fingerprint

#: Seed base for sweep grids (distinct from the figure experiments).
_GRID_SEED = 900

#: Base read/write ladder the tier grids scale (ns).
_BASE_LADDER = DEFAULT_TIER_SETS["3-tier"]


@dataclass(frozen=True)
class SweepPreset:
    """One named grid: spec builder plus per-spec row projection."""

    title: str
    columns: tuple
    scales: tuple
    build: Callable[[str], list]
    row: Callable[[RunSpec, RunResult], dict]
    notes: tuple = ()


def _scale_kwargs(preset_name: str, scales: dict, scale: str) -> dict:
    if scale not in scales:
        raise ValidationError(
            f"unknown scale {scale!r} for sweep preset {preset_name!r} "
            f"(choose from {', '.join(sorted(scales))})"
        )
    return scales[scale]


# ----------------------------------------------------------------------
# latency-grid: MemLat across target latency x epoch length x seed
# ----------------------------------------------------------------------

_LATENCY_SCALES = {
    "smoke": dict(
        latencies=(300.0, 500.0), epochs_us=(100.0,), seeds=2,
        iterations=2_000,
    ),
    "small": dict(
        latencies=(200.0, 300.0, 400.0, 500.0, 700.0),
        epochs_us=(100.0, 500.0), seeds=12, iterations=2_000,
    ),
    "large": dict(
        latencies=(
            200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 850.0, 1000.0,
            1300.0, 1700.0,
        ),
        epochs_us=(100.0, 200.0, 500.0, 1000.0, 2000.0),
        seeds=11, iterations=2_000,
    ),
}


def _build_latency_grid(scale: str) -> list:
    from repro.workloads.memlat import MemLatConfig

    kwargs = _scale_kwargs("latency-grid", _LATENCY_SCALES, scale)
    specs = []
    for target_ns in kwargs["latencies"]:
        for epoch_us in kwargs["epochs_us"]:
            for seed_offset in range(kwargs["seeds"]):
                specs.append(
                    RunSpec(
                        workload="memlat",
                        config=MemLatConfig(iterations=kwargs["iterations"]),
                        arch_name=IVY_BRIDGE.name,
                        mode="conf1",
                        seed=_GRID_SEED + seed_offset,
                        quartz=QuartzConfig(
                            nvm_read_latency_ns=target_ns,
                            max_epoch_ns=epoch_us * 1e3,
                        ),
                    )
                )
    return specs


def _latency_grid_row(spec: RunSpec, result: RunResult) -> dict:
    target_ns = spec.quartz.nvm_read_latency_ns
    measured_ns = result.workload_result.measured_latency_ns
    return {
        "arch": spec.arch_name,
        "target_ns": target_ns,
        "epoch_us": spec.quartz.max_epoch_ns / 1e3,
        "seed": spec.seed,
        "measured_ns": measured_ns,
        "error_pct": 100.0 * abs(measured_ns - target_ns) / target_ns,
        "events": result.events,
    }


# ----------------------------------------------------------------------
# tier-grid: tiered MultiLat across ladder scale factor x seed
# ----------------------------------------------------------------------

_TIER_SCALES = {
    "smoke": dict(factors=(1.0, 2.0), seeds=2, elements=3_000),
    "small": dict(
        factors=(1.0, 1.25, 1.5, 2.0, 2.5, 3.0), seeds=6, elements=3_000
    ),
    "large": dict(
        factors=(
            1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.4, 2.8, 3.2, 3.6, 4.0, 4.5
        ),
        seeds=18, elements=3_000,
    ),
}


def _scaled_tiers(factor: float, dram_local_ns: float) -> tuple:
    return _build_tiers(
        [(read_ns * factor, write_ns * factor)
         for read_ns, write_ns in _BASE_LADDER],
        dram_local_ns,
    )


def _pinned_ladder(factor: float, dram_local_ns: float) -> TierLadder:
    """The scaled base ladder, the i-th pmalloc pinned to tier i."""
    return TierLadder(
        _scaled_tiers(factor, dram_local_ns),
        order=tuple(range(1, len(_BASE_LADDER) + 1)),
    )


def _build_tier_grid(scale: str) -> list:
    from repro.workloads.multilat import MultiLatConfig

    kwargs = _scale_kwargs("tier-grid", _TIER_SCALES, scale)
    calibration = calibrate_arch(IVY_BRIDGE)
    elements = kwargs["elements"]
    specs = []
    for factor in kwargs["factors"]:
        config = QuartzConfig(
            ladder=_pinned_ladder(factor, calibration.dram_local_ns),
            max_epoch_ns=1.0 * MILLISECOND,
        )
        workload = MultiLatConfig(
            dram_elements=elements,
            tier_elements=(elements,) * len(_BASE_LADDER),
        )
        for seed_offset in range(kwargs["seeds"]):
            specs.append(
                RunSpec(
                    workload="multilat", config=workload,
                    arch_name=IVY_BRIDGE.name, mode="conf1",
                    seed=_GRID_SEED + seed_offset, quartz=config,
                )
            )
    return specs


def _tier_grid_row(spec: RunSpec, result: RunResult) -> dict:
    tiers = spec.quartz.ladder.tiers
    dram_local_ns = tiers[0].read_latency_ns
    read_targets = tuple(tier.read_latency_ns for tier in tiers[1:])
    error = result.workload_result.tiered_emulation_error(
        dram_local_ns, read_targets
    )
    return {
        "arch": spec.arch_name,
        "tiers": len(tiers),
        "read_targets_ns": "/".join(f"{ns:g}" for ns in read_targets),
        "seed": spec.seed,
        "completion_ms": result.workload_result.elapsed_ns / 1e6,
        "error_pct": 100.0 * error,
        "events": result.events,
    }


# ----------------------------------------------------------------------
# migration-grid: placement policy x promote threshold x seed
# ----------------------------------------------------------------------

_MIGRATION_SCALES = {
    "smoke": dict(thresholds=(2_000,), seeds=1, elements=3_000),
    "small": dict(
        thresholds=(500, 1_000, 2_000, 4_000), seeds=5, elements=3_000
    ),
    "large": dict(
        thresholds=(250, 500, 750, 1_000, 1_500, 2_000, 3_000, 4_000),
        seeds=24, elements=3_000,
    ),
}


def _build_migration_grid(scale: str) -> list:
    from repro.workloads.multilat import MultiLatConfig

    kwargs = _scale_kwargs("migration-grid", _MIGRATION_SCALES, scale)
    calibration = calibrate_arch(IVY_BRIDGE)
    tiers = _scaled_tiers(1.0, calibration.dram_local_ns)
    elements = kwargs["elements"]
    workload = MultiLatConfig(
        dram_elements=elements,
        tier_elements=(elements,) * len(_BASE_LADDER),
    )
    # Only hot-promote reads a threshold (a TierLadder rejects one on
    # the other policies), so the thresholds enumerate under it alone.
    cells = [("static", None), ("round-robin", None)]
    cells.extend(
        ("hot-promote", threshold) for threshold in kwargs["thresholds"]
    )
    specs = []
    for policy, threshold in cells:
        config = QuartzConfig(
            ladder=TierLadder(
                tiers, policy, promote_threshold_accesses=threshold
            ),
            max_epoch_ns=1.0 * MILLISECOND,
        )
        for seed_offset in range(kwargs["seeds"]):
            specs.append(
                RunSpec(
                    workload="multilat", config=workload,
                    arch_name=IVY_BRIDGE.name, mode="conf1",
                    seed=_GRID_SEED + seed_offset, quartz=config,
                )
            )
    return specs


def _migration_grid_row(spec: RunSpec, result: RunResult) -> dict:
    report = tier_report(result)
    ladder = spec.quartz.ladder
    return {
        "arch": spec.arch_name,
        "policy": ladder.placement,
        "promote_threshold": ladder.promote_threshold_accesses or 0,
        "seed": spec.seed,
        "completion_ms": result.workload_result.elapsed_ns / 1e6,
        "migrations": report["migrations"],
        "migrated_mib": report["migrated_bytes"] / (1024 * 1024),
    }


# ----------------------------------------------------------------------
# service-grid: KV service across tier ladders and bandwidth throttles
# ----------------------------------------------------------------------

_SERVICE_GRID_SCALES = {
    "smoke": dict(
        factors=(1.0,), bandwidths=(2.0,), seeds=1,
        ops=300, keys=4_000, capacity=256,
    ),
    "small": dict(
        factors=(1.0, 1.5, 2.0), bandwidths=(1.0, 2.0, 5.0), seeds=3,
        ops=1_000, keys=20_000, capacity=1_024,
    ),
    "large": dict(
        factors=(1.0, 1.25, 1.5, 2.0, 2.5, 3.0),
        bandwidths=(0.5, 1.0, 2.0, 5.0, 10.0, 20.0), seeds=8,
        ops=2_000, keys=50_000, capacity=2_048,
    ),
}


def _build_service_grid(scale: str) -> list:
    from repro.service.cache import CacheConfig
    from repro.service.kvservice import ServiceConfig
    from repro.service.traces import TraceConfig

    kwargs = _scale_kwargs("service-grid", _SERVICE_GRID_SCALES, scale)
    calibration = calibrate_arch(IVY_BRIDGE)
    workload = ServiceConfig(
        trace=TraceConfig(
            tenants=2,
            ops_per_tenant=kwargs["ops"],
            keys_per_tenant=kwargs["keys"],
            seed=_GRID_SEED,
        ),
        cache=CacheConfig(capacity=kwargs["capacity"]),
        clients_per_tenant=2,
    )
    # Two cell families: the store placed across a scaled tier ladder,
    # and PM mode (all memory is NVM) under a throttled bandwidth ceiling.
    quartz_cells = []
    for factor in kwargs["factors"]:
        quartz_cells.append(
            QuartzConfig(
                ladder=_pinned_ladder(factor, calibration.dram_local_ns),
                max_epoch_ns=1.0 * MILLISECOND,
            )
        )
    for bandwidth in kwargs["bandwidths"]:
        quartz_cells.append(
            QuartzConfig(
                nvm_read_latency_ns=500.0,
                nvm_write_latency_ns=1_000.0,
                nvm_bandwidth_gbps=bandwidth,
            )
        )
    specs = []
    for quartz in quartz_cells:
        for seed_offset in range(kwargs["seeds"]):
            specs.append(
                RunSpec(
                    workload="kvservice", config=workload,
                    arch_name=IVY_BRIDGE.name, mode="service",
                    seed=_GRID_SEED + seed_offset, quartz=quartz,
                )
            )
    return specs


def _service_grid_row(spec: RunSpec, result: RunResult) -> dict:
    quartz = spec.quartz
    if quartz.ladder is not None:
        cell = "tiered"
        tiers = len(quartz.ladder.tiers)
        read_ns = quartz.ladder.tiers[-1].read_latency_ns
        bandwidth = 0.0
    else:
        cell = "throttled"
        tiers = 2
        read_ns = quartz.nvm_read_latency_ns
        bandwidth = quartz.nvm_bandwidth_gbps or 0.0
    report = result.reports["service"]
    return {
        "arch": spec.arch_name,
        "cell": cell,
        "tiers": tiers,
        "read_ns": read_ns,
        "bandwidth_gbps": bandwidth,
        "seed": spec.seed,
        "ops": report["overall"]["ops"],
        "hit_pct": report["cache"]["totals"]["hit_pct"],
        "p99_us": (report["overall"]["p99_ns"] or 0.0) / 1e3,
        "throughput_kops": report["overall"]["throughput_ops_s"] / 1e3,
    }


# ----------------------------------------------------------------------
# The preset registry
# ----------------------------------------------------------------------

SWEEP_PRESETS: dict[str, SweepPreset] = {
    "latency-grid": SweepPreset(
        title="MemLat emulation error across a latency x epoch grid",
        columns=(
            "arch", "target_ns", "epoch_us", "seed", "measured_ns",
            "error_pct", "events",
        ),
        scales=tuple(sorted(_LATENCY_SCALES)),
        build=_build_latency_grid,
        row=_latency_grid_row,
        notes=(
            "Conf_1 MemLat per cell; error vs the injected target "
            "latency",
        ),
    ),
    "tier-grid": SweepPreset(
        title="Tiered MultiLat error across ladder scale factors",
        columns=(
            "arch", "tiers", "read_targets_ns", "seed", "completion_ms",
            "error_pct", "events",
        ),
        scales=tuple(sorted(_TIER_SCALES)),
        build=_build_tier_grid,
        row=_tier_grid_row,
        notes=(
            "base 3-tier ladder scaled per cell; error vs the N-tier "
            "closed form (static placement, one array per tier)",
        ),
    ),
    "service-grid": SweepPreset(
        title="KV service tails across tier ladders and bandwidth throttles",
        columns=(
            "arch", "cell", "tiers", "read_ns", "bandwidth_gbps", "seed",
            "ops", "hit_pct", "p99_us", "throughput_kops",
        ),
        scales=tuple(sorted(_SERVICE_GRID_SCALES)),
        build=_build_service_grid,
        row=_service_grid_row,
        notes=(
            "one multi-tenant service run per cell: tiered cells place "
            "the store across a scaled ladder, throttled cells cap NVM "
            "write bandwidth at 500/1000 ns latency",
        ),
    ),
    "migration-grid": SweepPreset(
        title="Placement policies x promote thresholds on an N-tier machine",
        columns=(
            "arch", "policy", "promote_threshold", "seed", "completion_ms",
            "migrations", "migrated_mib",
        ),
        scales=tuple(sorted(_MIGRATION_SCALES)),
        build=_build_migration_grid,
        row=_migration_grid_row,
        notes=(
            "same tiered MultiLat per cell; thresholds enumerate only "
            "under hot-promote (other policies ignore them)",
        ),
    ),
}


# ----------------------------------------------------------------------
# Registry drivers: inline, or journaled in a sweep directory
# ----------------------------------------------------------------------


def _run_preset(
    preset_name: str,
    scale: str,
    jobs: Optional[int],
    sweep_dir: Optional[Union[str, Path]],
    interrupt_after: Optional[int],
) -> ExperimentResult:
    """Build a preset's grid and stream it into one result.

    With a ``sweep_dir`` the grid is journaled there: an existing
    journal is resumed (its grid digest must match, else
    ``ValidationError``), otherwise a fresh one is created.
    """
    preset = SWEEP_PRESETS[preset_name]
    specs = preset.build(scale)
    journal = None
    if sweep_dir is not None:
        journal = SweepJournal.open_or_create(
            sweep_dir,
            [spec_fingerprint(spec) for spec in specs],
            name=preset_name,
            knobs={"preset": preset_name, "scale": scale},
        )
    result = ExperimentResult(
        experiment_id=f"sweep-{preset_name}",
        title=preset.title,
        columns=list(preset.columns),
    )

    def consume(spec: RunSpec, run: RunResult) -> None:
        result.add_row(**preset.row(spec, run))

    run_sweep(specs, journal, jobs, consume, interrupt_after)
    for note in preset.notes:
        result.note(note)
    result.note(f"scale={scale}; {len(specs)} spec(s) in grid")
    return result


def sweep_status(directory: Union[str, Path]) -> dict:
    """Progress snapshot of a journaled sweep directory."""
    journal = SweepJournal.open(directory)
    try:
        return journal.status()
    finally:
        journal.close()


def run_latency_grid(
    scale: str = "small",
    jobs: Optional[int] = None,
    sweep_dir: Optional[Union[str, Path]] = None,
    interrupt_after: Optional[int] = None,
) -> ExperimentResult:
    """MemLat error over a latency x epoch grid (streaming sweep)."""
    return _run_preset("latency-grid", scale, jobs, sweep_dir, interrupt_after)


def run_tier_grid(
    scale: str = "small",
    jobs: Optional[int] = None,
    sweep_dir: Optional[Union[str, Path]] = None,
    interrupt_after: Optional[int] = None,
) -> ExperimentResult:
    """Tiered MultiLat error across ladder scale factors (sweep)."""
    return _run_preset("tier-grid", scale, jobs, sweep_dir, interrupt_after)


def run_migration_grid(
    scale: str = "small",
    jobs: Optional[int] = None,
    sweep_dir: Optional[Union[str, Path]] = None,
    interrupt_after: Optional[int] = None,
) -> ExperimentResult:
    """Placement policy x threshold study as a streaming sweep."""
    return _run_preset("migration-grid", scale, jobs, sweep_dir, interrupt_after)


def run_service_grid(
    scale: str = "small",
    jobs: Optional[int] = None,
    sweep_dir: Optional[Union[str, Path]] = None,
    interrupt_after: Optional[int] = None,
) -> ExperimentResult:
    """KV-service tails across tiers and throttles (streaming sweep)."""
    return _run_preset("service-grid", scale, jobs, sweep_dir, interrupt_after)
