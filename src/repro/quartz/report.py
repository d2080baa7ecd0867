"""Human-readable emulation reports (the Section 3.2 statistics surface).

Renders :class:`~repro.quartz.stats.QuartzStats` — per-thread and
aggregate — into the text report a user inspects after a run to decide
whether the epoch configuration suited the workload.
"""

from __future__ import annotations

from repro.quartz.config import QuartzConfig
from repro.quartz.stats import QuartzStats
from repro.units import ns_to_ms


def _per_thread_lines(stats: QuartzStats) -> list[str]:
    header = (
        f"  {'thread':<16} {'epochs':>6} {'mon':>5} {'sync':>5} "
        f"{'skip':>5} {'injected ms':>11} {'overhead us':>11}"
    )
    lines = [header, "  " + "-" * (len(header) - 2)]
    for record in sorted(stats.per_thread.values(), key=lambda r: r.tid):
        lines.append(
            f"  {record.name:<16} {record.epochs_total:>6} "
            f"{record.epochs_monitor:>5} {record.epochs_sync:>5} "
            f"{record.closes_skipped_min_epoch:>5} "
            f"{record.delay_injected_ns / 1e6:>11.3f} "
            f"{record.overhead_ns / 1e3:>11.1f}"
        )
    return lines


def render_report(stats: QuartzStats, config: QuartzConfig | None = None) -> str:
    """Render a full emulation report."""
    lines = ["=== Quartz emulation report ==="]
    if config is not None:
        if config.ladder is not None:
            # The tier ladder replaces the single NVM read target.
            target = "tiers " + ", ".join(
                f"{tier.name} {tier.read_latency_ns:.0f}/"
                f"{tier.write_latency_ns:.0f} ns"
                for tier in config.ladder.tiers
            ) + " (read/write latency)"
        else:
            target = f"{config.nvm_read_latency_ns:.0f} ns read latency"
        lines.append(
            f"target: {target}"
            + (
                f", {config.nvm_bandwidth_gbps:.1f} GB/s bandwidth"
                if config.nvm_bandwidth_gbps is not None
                else ""
            )
            + (
                f", {config.nvm_write_latency_ns:.0f} ns write latency"
                if config.nvm_write_latency_ns is not None
                else ""
            )
        )
        lines.append(
            f"epochs: max {ns_to_ms(config.max_epoch_ns):.2f} ms, "
            f"min {ns_to_ms(config.min_epoch_ns):.2f} ms, "
            f"monitor every "
            f"{ns_to_ms(config.effective_monitor_interval_ns):.2f} ms, "
            f"{config.counter_backend} counters"
        )
    lines.append(
        f"threads registered: {stats.threads_registered}; "
        f"epochs closed: {stats.epochs_total}; "
        f"monitor wakeups: {stats.monitor_wakeups}; "
        f"signals posted: {stats.signals_posted}"
    )
    lines.append(
        f"delay: computed {stats.delay_computed_ns / 1e6:.3f} ms, "
        f"injected {stats.delay_injected_ns / 1e6:.3f} ms"
    )
    lines.append(
        f"overhead: {stats.overhead_ns / 1e6:.3f} ms total, "
        f"{stats.overhead_amortized_ns / 1e6:.3f} ms amortized, "
        f"{stats.overhead_residual_ns / 1e6:.3f} ms residual"
    )
    if stats.per_thread:
        lines.append("per-thread:")
        lines.extend(_per_thread_lines(stats))
    lines.append(f"feedback: {stats.feedback()}")
    return "\n".join(lines)
