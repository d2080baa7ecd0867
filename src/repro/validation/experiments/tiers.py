"""N-tier hybrid-memory experiments: the tier sweep and policy study.

Two drivers exercising tier ladders longer than the two-tier DRAM + NVM
case of Section 3.3 (see :mod:`repro.quartz.tiers`):

* ``tier-sweep`` — the Figure 14 methodology lifted to N tiers: tiered
  MultiLat with one array pinned per emulated tier (static placement
  order), validated against the closed form
  ``CT = N_DRAM*lat_DRAM + sum_i N_i*lat_i`` where each tier charges
  its *own* read latency.  Tiers carry independent read/write targets,
  so the sweep also shows the read path is priced off the read latency
  alone (the workload is a pointer chase — all loads).
* ``migration-policy`` — the same tiered workload under each placement
  policy (static, round-robin, hot-promote), comparing completion time
  and reporting placements/migrations from the directory.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.hw.arch import IVY_BRIDGE, ArchSpec
from repro.quartz.calibration import calibrate_arch
from repro.quartz.config import QuartzConfig
from repro.quartz.tiers import MemoryTier, TierLadder
from repro.units import MILLISECOND
from repro.validation.reporting import ExperimentResult
from repro.validation.runner import RunResult, RunSpec, run_specs
from repro.workloads.multilat import MultiLatConfig

#: Default 3-tier ladder (beyond DRAM): e.g. battery-backed DRAM,
#: fast NVM, slow NVM — each with asymmetric read/write latencies.
DEFAULT_TIER_SETS: dict[str, tuple[tuple[float, float], ...]] = {
    "3-tier": ((250.0, 350.0), (400.0, 600.0), (700.0, 1100.0)),
    "4-tier": ((200.0, 250.0), (300.0, 450.0), (500.0, 800.0), (900.0, 1500.0)),
}


def _build_tiers(
    read_write_ns: Sequence[tuple[float, float]], dram_local_ns: float
) -> tuple[MemoryTier, ...]:
    """Tier list for one ladder: DRAM (tier 0) + one tier per pair."""
    tiers = [MemoryTier("dram", dram_local_ns, dram_local_ns)]
    for index, (read_ns, write_ns) in enumerate(read_write_ns):
        tiers.append(MemoryTier(f"tier{index + 1}", read_ns, write_ns))
    return tuple(tiers)


def tier_report(run: RunResult) -> dict:
    """The run's tier directory report; empty when it kept none."""
    return (run.quartz_stats.tier_report if run.quartz_stats else None) or {
        "placements": {}, "migrations": 0, "migrated_bytes": 0,
    }


def run_tier_sweep(
    archs: Sequence[ArchSpec] = (IVY_BRIDGE,),
    tier_sets: Optional[dict[str, tuple[tuple[float, float], ...]]] = None,
    elements_per_tier: int = 30_000,
    dram_elements: int = 30_000,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Tiered MultiLat vs. the N-tier closed form, per ladder."""
    tier_sets = tier_sets if tier_sets is not None else DEFAULT_TIER_SETS
    result = ExperimentResult(
        experiment_id="tier-sweep",
        title="Tiered MultiLat error under N-tier emulation",
        columns=[
            "processor", "tier_set", "tiers", "read_targets_ns",
            "write_targets_ns", "error_pct",
        ],
    )
    keys, specs = [], []
    for arch in archs:
        calibration = calibrate_arch(arch)
        for set_name, read_write_ns in sorted(tier_sets.items()):
            tiers = _build_tiers(read_write_ns, calibration.dram_local_ns)
            tier_count = len(read_write_ns)
            config = QuartzConfig(
                ladder=TierLadder(tiers, order=tuple(range(1, tier_count + 1))),
                max_epoch_ns=1.0 * MILLISECOND,
            )
            workload = MultiLatConfig(
                dram_elements=dram_elements,
                tier_elements=(elements_per_tier,) * tier_count,
            )
            specs.append(
                RunSpec(
                    workload="multilat", config=workload,
                    arch_name=arch.name, mode="conf1", seed=700,
                    quartz=config,
                )
            )
            keys.append((arch, set_name, tiers, calibration.dram_local_ns))
    for (arch, set_name, tiers, dram_local_ns), run in zip(
        keys, run_specs(specs, jobs=jobs)
    ):
        read_targets = tuple(tier.read_latency_ns for tier in tiers[1:])
        write_targets = tuple(tier.write_latency_ns for tier in tiers[1:])
        error = run.workload_result.tiered_emulation_error(
            dram_local_ns, read_targets
        )
        result.add_row(
            processor=arch.family,
            tier_set=set_name,
            tiers=len(tiers),
            read_targets_ns="/".join(f"{ns:g}" for ns in read_targets),
            write_targets_ns="/".join(f"{ns:g}" for ns in write_targets),
            error_pct=100.0 * error,
        )
    result.note(
        "error vs the N-tier closed form CT = N_DRAM*lat_DRAM + "
        "sum_i N_i*read_lat_i; one array pinned per tier via static "
        "placement order"
    )
    result.note(
        "tiers carry independent read/write targets; the pointer chase "
        "is all loads, so the read latency alone prices each tier"
    )
    return result


def run_migration_policy(
    archs: Sequence[ArchSpec] = (IVY_BRIDGE,),
    read_write_ns: tuple[tuple[float, float], ...] = DEFAULT_TIER_SETS["3-tier"],
    elements_per_tier: int = 30_000,
    promote_threshold_accesses: int = 10_000,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Placement-policy comparison on the same tiered workload."""
    result = ExperimentResult(
        experiment_id="migration-policy",
        title="Placement policies on an N-tier machine",
        columns=[
            "processor", "policy", "completion_ms", "placements",
            "migrations", "migrated_mib",
        ],
    )
    policies: tuple[tuple[str, Optional[int]], ...] = (
        ("static", None),
        ("round-robin", None),
        ("hot-promote", promote_threshold_accesses),
    )
    keys, specs = [], []
    for arch in archs:
        calibration = calibrate_arch(arch)
        tiers = _build_tiers(read_write_ns, calibration.dram_local_ns)
        tier_count = len(read_write_ns)
        workload = MultiLatConfig(
            dram_elements=elements_per_tier,
            tier_elements=(elements_per_tier,) * tier_count,
        )
        for policy_name, threshold in policies:
            config = QuartzConfig(
                ladder=TierLadder(
                    tiers, policy_name, promote_threshold_accesses=threshold
                ),
                max_epoch_ns=1.0 * MILLISECOND,
            )
            specs.append(
                RunSpec(
                    workload="multilat", config=workload,
                    arch_name=arch.name, mode="conf1", seed=701,
                    quartz=config,
                )
            )
            keys.append((arch, policy_name))
    for (arch, policy_name), run in zip(keys, run_specs(specs, jobs=jobs)):
        report = tier_report(run)
        placements = ",".join(
            f"{tier}:{count}"
            for tier, count in sorted(report["placements"].items())
        )
        result.add_row(
            processor=arch.family,
            policy=policy_name,
            completion_ms=run.workload_result.elapsed_ns / 1e6,
            placements=placements or "-",
            migrations=report["migrations"],
            migrated_mib=report["migrated_bytes"] / (1024 * 1024),
        )
    result.note(
        "same tiered MultiLat under each placement policy; migrations "
        "are instant directory remaps (a page move as the analytic "
        "model sees it)"
    )
    return result
