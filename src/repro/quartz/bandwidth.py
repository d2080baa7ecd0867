"""The bandwidth emulation model (Section 2.1).

NVM bandwidth is emulated entirely in hardware: the kernel module programs
the thermal-control registers so the memory controller services at the
target rate.  The register value for a requested bandwidth comes from the
calibration table (register -> measured bandwidth), inverting the linear
relationship Figure 8 validates.

In PM mode every node is throttled (all memory *is* NVM); in tiered
mode only the virtual-NVM node is throttled, leaving local DRAM at full
speed (Section 3.3).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import QuartzError
from repro.quartz.calibration import CalibrationData
from repro.quartz.config import QuartzConfig
from repro.quartz.kernel_module import QuartzKernelModule


class BandwidthThrottler:
    """Programs throttle registers to hit a target NVM bandwidth."""

    def __init__(
        self,
        kernel_module: QuartzKernelModule,
        calibration: CalibrationData,
        config: QuartzConfig,
        nvm_node: int,
    ):
        self.kernel_module = kernel_module
        self.calibration = calibration
        self.config = config
        self.nvm_node = nvm_node
        self.applied_register: Optional[int] = None
        #: Tier name -> register value each tier's bandwidth target maps
        #: to (tier ladder only).  The sibling node only has one physical
        #: throttle register, so the *tightest* (lowest-bandwidth) tier's
        #: register is the one actually programmed; the rest are recorded
        #: so exports can show what each tier asked for.
        self.tier_registers: dict[str, int] = {}

    def apply(self) -> None:
        """Program the registers for the configured target bandwidth."""
        target = self.config.nvm_bandwidth_gbps
        if self.config.ladder is not None:
            tier_target = self._tightest_tier_bandwidth()
            if tier_target is not None:
                target = (
                    tier_target if target is None else min(target, tier_target)
                )
        if target is not None:
            if target > self.calibration.peak_bandwidth:
                raise QuartzError(
                    f"target bandwidth {target} GB/s exceeds attainable "
                    f"{self.calibration.peak_bandwidth:.1f} GB/s"
                )
            register = self.calibration.register_for_bandwidth(target)
            for node in self._throttled_nodes():
                self.kernel_module.set_throttle_register(node, register)
            self.applied_register = register
        read_target = self.config.nvm_read_bandwidth_gbps
        write_target = self.config.nvm_write_bandwidth_gbps
        if read_target is not None and write_target is not None:
            # The asymmetric extension (Section 2.1): separate read/write
            # registers; raises UnsupportedFeatureError on parts without
            # them, exactly the paper's footnote-2 situation.
            read_register = self.calibration.register_for_bandwidth(read_target)
            write_register = self.calibration.register_for_bandwidth(write_target)
            for node in self._throttled_nodes():
                self.kernel_module.set_rw_throttle_registers(
                    node, read_register, write_register
                )
            self.applied_register = self.applied_register or max(
                read_register, write_register
            )

    def reset(self) -> None:
        """Restore full bandwidth on every node we touched."""
        if self.applied_register is None:
            return
        for node in self._throttled_nodes():
            self.kernel_module.reset_throttle(node)
        self.applied_register = None

    def _tightest_tier_bandwidth(self) -> Optional[float]:
        """Lowest emulated-tier bandwidth target; fills ``tier_registers``."""
        tightest: Optional[float] = None
        self.tier_registers = {}
        for tier in self.config.ladder.tiers[1:]:
            if tier.bandwidth_gbps is None:
                continue
            if tier.bandwidth_gbps > self.calibration.peak_bandwidth:
                raise QuartzError(
                    f"tier '{tier.name}' bandwidth {tier.bandwidth_gbps} "
                    f"GB/s exceeds attainable "
                    f"{self.calibration.peak_bandwidth:.1f} GB/s"
                )
            self.tier_registers[tier.name] = (
                self.calibration.register_for_bandwidth(tier.bandwidth_gbps)
            )
            if tightest is None or tier.bandwidth_gbps < tightest:
                tightest = tier.bandwidth_gbps
        return tightest

    def _throttled_nodes(self) -> list[int]:
        if self.config.ladder is not None:
            return [self.nvm_node]
        return list(range(len(self.kernel_module.machine.controllers)))
