"""NVM technology presets.

The paper motivates Quartz with the spread of candidate NVM technologies
(phase-change memory, memristors, STT-MRAM) whose latency/bandwidth
characteristics were still unsettled.  These presets capture the
projected envelopes commonly used in the NVM systems literature of the
period, so studies can be phrased as *"run this under PCM"* instead of
raw numbers.  Each preset converts into a ready
:class:`~repro.quartz.config.QuartzConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import QuartzError
from repro.quartz.config import QuartzConfig, WriteModel


@dataclass(frozen=True)
class NvmTechnology:
    """Projected performance envelope of one NVM technology."""

    name: str
    description: str
    read_latency_ns: float
    write_latency_ns: float
    #: Aggregate bandwidth in GB/s; None = DRAM-class (unthrottled).
    bandwidth_gbps: Optional[float]

    def __post_init__(self) -> None:
        if self.read_latency_ns <= 0 or self.write_latency_ns <= 0:
            raise QuartzError(f"latencies must be positive: {self}")
        if self.bandwidth_gbps is not None and self.bandwidth_gbps <= 0:
            raise QuartzError(f"bandwidth must be positive: {self}")

    def quartz_config(
        self,
        write_model: WriteModel = WriteModel.PFLUSH,
        **overrides,
    ) -> QuartzConfig:
        """A QuartzConfig emulating this technology."""
        config = QuartzConfig(
            nvm_read_latency_ns=self.read_latency_ns,
            nvm_write_latency_ns=self.write_latency_ns,
            nvm_bandwidth_gbps=self.bandwidth_gbps,
            write_model=write_model,
        )
        if overrides:
            config = replace(config, **overrides)
            config.validate()
        return config


#: Phase-change memory: the paper era's leading candidate — reads a few
#: times DRAM, writes ~1 us, bandwidth well below DRAM.
PCM = NvmTechnology(
    name="pcm",
    description="phase-change memory (projected)",
    read_latency_ns=300.0,
    write_latency_ns=1000.0,
    bandwidth_gbps=5.0,
)

#: STT-MRAM: near-DRAM reads, moderately slower writes, good bandwidth.
STT_MRAM = NvmTechnology(
    name="stt-mram",
    description="spin-transfer-torque MRAM (projected)",
    read_latency_ns=150.0,
    write_latency_ns=300.0,
    bandwidth_gbps=15.0,
)

#: Memristor / ReRAM: the HP "The Machine" target technology.
MEMRISTOR = NvmTechnology(
    name="memristor",
    description="memristor / ReRAM (projected)",
    read_latency_ns=200.0,
    write_latency_ns=500.0,
    bandwidth_gbps=10.0,
)

#: A pessimistic far-NVM point (the paper sweeps latency out to 2 us).
SLOW_NVM = NvmTechnology(
    name="slow-nvm",
    description="pessimistic far-memory NVM",
    read_latency_ns=1000.0,
    write_latency_ns=2000.0,
    bandwidth_gbps=2.0,
)

ALL_TECHNOLOGIES: tuple[NvmTechnology, ...] = (
    STT_MRAM,
    MEMRISTOR,
    PCM,
    SLOW_NVM,
)

_BY_NAME = {technology.name: technology for technology in ALL_TECHNOLOGIES}


def technology_by_name(name: str) -> NvmTechnology:
    """Look up a preset by name."""
    key = name.strip().lower()
    if key not in _BY_NAME:
        known = ", ".join(sorted(_BY_NAME))
        raise QuartzError(f"unknown NVM technology {name!r}; known: {known}")
    return _BY_NAME[key]
