"""Per-figure/table experiment drivers.

Each function regenerates one artefact of the paper's evaluation and
returns an :class:`~repro.validation.reporting.ExperimentResult`.  The
``REGISTRY`` maps CLI names to drivers; every driver accepts scaling
keyword arguments with defaults small enough for CI, and EXPERIMENTS.md
records the scaled-vs-paper parameter mapping.
"""

from typing import Optional

from repro.validation.experiments.micro import (
    run_epoch_size_study,
    run_figure8,
    run_figure11,
    run_figure12,
    run_table2,
)
from repro.validation.experiments.threads import run_figure13
from repro.validation.experiments.twomem import run_figure14
from repro.validation.experiments.applications import (
    run_figure15,
    run_figure16_bandwidth,
    run_figure16_latency,
    run_graph500_validation,
    run_pagerank_validation,
)
from repro.validation.experiments.overhead import (
    run_dvfs_ablation,
    run_model_ablation,
    run_overhead_study,
    run_pcommit_ablation,
)
from repro.validation.experiments.extensions import (
    run_asymmetric_bandwidth,
    run_kv_write_models,
    run_loaded_latency_study,
    run_parallel_pagerank,
    run_technology_comparison,
)
from repro.validation.experiments.crash import DEFAULT_CRASH_PLAN, run_crash_check
from repro.validation.experiments.explore import (
    DEFAULT_EXPLORE_PLAN,
    run_explore_check,
)
from repro.validation.experiments.tiers import (
    run_migration_policy,
    run_tier_sweep,
)
from repro.validation.experiments.service import (
    run_cache_policy,
    run_service_latency,
    service_scenario,
)
from repro.validation.experiments.sweeps import (
    run_latency_grid,
    run_migration_grid,
    run_service_grid,
    run_tier_grid,
)

#: CLI name -> experiment driver.
REGISTRY = {
    "table2": run_table2,
    "figure8": run_figure8,
    "figure11": run_figure11,
    "figure12": run_figure12,
    "figure13": run_figure13,
    "figure14": run_figure14,
    "figure15": run_figure15,
    "figure16-latency": run_figure16_latency,
    "figure16-bandwidth": run_figure16_bandwidth,
    "pagerank-validation": run_pagerank_validation,
    "graph500-validation": run_graph500_validation,
    "overhead-study": run_overhead_study,
    "epoch-size-study": run_epoch_size_study,
    "pcommit-ablation": run_pcommit_ablation,
    "dvfs-ablation": run_dvfs_ablation,
    "model-ablation": run_model_ablation,
    # Extensions beyond the paper's evaluation (Section 7 agenda).
    "parallel-pagerank": run_parallel_pagerank,
    "asymmetric-bandwidth": run_asymmetric_bandwidth,
    "loaded-latency-study": run_loaded_latency_study,
    "technology-comparison": run_technology_comparison,
    "kv-write-models": run_kv_write_models,
    "crash-check": run_crash_check,
    "explore-check": run_explore_check,
    "tier-sweep": run_tier_sweep,
    "migration-policy": run_migration_policy,
    # The trace-driven multi-tenant KV service (repro.service).
    "service-latency": run_service_latency,
    "cache-policy": run_cache_policy,
    # Streaming sweep grids (see repro.validation.sweep): inline, or
    # checkpointed with `quartz-repro run <id> --journal D`.
    "sweep-latency-grid": run_latency_grid,
    "sweep-tier-grid": run_tier_grid,
    "sweep-migration-grid": run_migration_grid,
    "sweep-service-grid": run_service_grid,
}


def manifest_sections(
    experiment_id: str, kwargs: dict, preset: Optional[str] = None
) -> dict:
    """The export manifest's plan sections for one driver invocation.

    Derived from the experiment id and the keyword arguments its driver
    ran with (``preset``: ``"fast"`` when they started from the fast
    preset, else None; the service section records it), so every
    command that runs an experiment records the same plan.  Returns
    :func:`~repro.validation.export.build_manifest` keywords.
    """
    if experiment_id == "crash-check":
        plan = kwargs.get("crash_plan") or DEFAULT_CRASH_PLAN
        return {"crash": plan.to_dict()}
    if experiment_id == "explore-check":
        plan = kwargs.get("explore_plan") or DEFAULT_EXPLORE_PLAN
        return {"explore": plan.to_dict()}
    if experiment_id in ("service-latency", "cache-policy"):
        return {"service": service_scenario(experiment_id, kwargs, preset)}
    return {}


__all__ = ["REGISTRY", "manifest_sections"] + sorted(
    name for name in dir() if name.startswith("run_")
)
