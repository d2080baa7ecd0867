"""Assembly of a full simulated testbed machine.

A :class:`Machine` wires together the pieces of one of the paper's
dual-socket servers (Figure 9): per-socket cores with PMC files (each
built on first use), one memory controller + DRAM node per socket, a
shared DVFS governor, and per-socket analytic cache models.  NUMA node
*i* is the DRAM directly attached to socket *i*; accesses from socket
*s* to node *n != s* pay the remote latency of Table 2.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import HardwareError
from repro.hw.arch import ArchSpec
from repro.hw.cache import AnalyticCacheModel
from repro.hw.core import Core
from repro.hw.dvfs import DvfsGovernor
from repro.hw.memory import MemoryController
from repro.hw.pmc import PmcFile
from repro.hw.topology import MemoryRegion, NodeAddressSpace, PageSize
from repro.sim import Simulator
from repro.units import GIB


class Machine:
    """One dual-socket simulated server."""

    def __init__(
        self,
        sim: Simulator,
        arch: ArchSpec,
        dram_per_node_bytes: int = 256 * GIB,
        latency_jitter: bool = False,
        loaded_latency_alpha: float = 0.0,
        rw_throttle_supported: bool = False,
    ):
        self.sim = sim
        self.arch = arch
        # Section 6 of the paper notes that *loaded* memory latency rises
        # with memory-system utilisation; alpha > 0 enables a quadratic
        # queueing penalty on top of the unloaded Table 2 latencies.
        if loaded_latency_alpha < 0:
            raise HardwareError(
                f"loaded-latency alpha cannot be negative: {loaded_latency_alpha}"
            )
        self.loaded_latency_alpha = loaded_latency_alpha
        # Real testbeds measure slightly different latencies run to run
        # (the min/avg/max columns of Table 2).  With jitter enabled the
        # machine instance draws its actual latencies from those ranges.
        if latency_jitter:
            rng = sim.random.stream("machine-latency")
            self._dram_local_ns = rng.triangular(
                arch.dram_local.min_ns, arch.dram_local.max_ns,
                arch.dram_local.avg_ns,
            )
            self._dram_remote_ns = rng.triangular(
                arch.dram_remote.min_ns, arch.dram_remote.max_ns,
                arch.dram_remote.avg_ns,
            )
        else:
            self._dram_local_ns = arch.dram_local.avg_ns
            self._dram_remote_ns = arch.dram_remote.avg_ns
        self.nodes = [
            NodeAddressSpace(node, dram_per_node_bytes)
            for node in range(arch.sockets)
        ]
        # rw_throttle_supported models hypothetical future silicon with
        # the separate read/write registers actually wired up (the paper
        # found them non-functional on all three testbeds, footnote 2).
        self.controllers = [
            MemoryController(
                sim,
                node,
                peak_bw_bytes_per_ns=arch.peak_bw_bytes_per_ns,
                channels=arch.memory_channels,
                rw_throttle_supported=rw_throttle_supported,
            )
            for node in range(arch.sockets)
        ]
        self.dvfs = DvfsGovernor(nominal_ghz=arch.freq_ghz)
        self.dvfs.disable()  # the paper's required configuration
        self._cache_models = [AnalyticCacheModel(arch) for _ in range(arch.sockets)]
        # One Core/PmcFile per *logical* CPU (hyperthread); the paper's
        # testbeds are all two-way hyper-threaded (Section 4.1).  Each is
        # built on first use: a run touches only the cores its threads are
        # pinned to, often 2 or 3 of 40.
        total_logical = arch.sockets * arch.cores_per_socket * arch.smt
        self._cores: list[Optional[Core]] = [None] * total_logical
        self._pmcs: list[Optional[PmcFile]] = [None] * total_logical
        #: Events a PMC file built after :meth:`program_counters` starts with.
        self._counter_events: tuple[str, ...] = ()

    def close(self) -> None:
        """End the run: drop the cores' references back to the machine and
        the flows still in service, which would otherwise keep the
        finished run alive as a cycle.  Core stats and PMC counts stay
        readable."""
        for controller in self.controllers:
            controller.close()
        for core in self._cores:
            if core is not None:
                core.machine = None

    # ------------------------------------------------------------------
    # Component lookup
    # ------------------------------------------------------------------
    @property
    def logical_cores_per_socket(self) -> int:
        """Hardware thread contexts per socket (cores x SMT)."""
        return self.arch.cores_per_socket * self.arch.smt

    @property
    def cores(self) -> list[Core]:
        """Every logical core in id order (builds those not yet used)."""
        return [self.core(core_id) for core_id in range(len(self._cores))]

    @property
    def pmcs(self) -> list[PmcFile]:
        """Every core's PMC file in id order (builds those not yet used)."""
        return [self.pmc(core_id) for core_id in range(len(self._pmcs))]

    def core(self, core_id: int) -> Core:
        """Logical core by global id."""
        core = self._cores[core_id]
        if core is None:
            core_id = range(len(self._cores))[core_id]  # a negative id counts from the end
            core = self._cores[core_id] = Core(self, core_id)
        return core

    def physical_core_of(self, core_id: int) -> int:
        """Physical core index behind a logical core id."""
        within = core_id % self.logical_cores_per_socket
        return within % self.arch.cores_per_socket

    def pmc(self, core_id: int) -> PmcFile:
        """PMC file of one core."""
        pmc = self._pmcs[core_id]
        if pmc is None:
            core_id = range(len(self._pmcs))[core_id]
            pmc = self._pmcs[core_id] = PmcFile(self.sim, self.arch, core_id)
            if self._counter_events:
                pmc.program(self._counter_events, privileged=True)
        return pmc

    def program_counters(self, events: tuple[str, ...], *, privileged: bool) -> None:
        """Select *events* on every core's PMC file, built now or later.

        Core 0's file is programmed first, so an unprivileged caller or an
        event the family lacks raises before any file changes.
        """
        self.pmc(0).program(events, privileged=privileged)
        for pmc in self._pmcs[1:]:
            if pmc is not None:
                pmc.program(events, privileged=privileged)
        self._counter_events = tuple(events)

    def controller(self, node: int) -> MemoryController:
        """Memory controller of one NUMA node."""
        return self.controllers[node]

    def cache_model(self, socket: int) -> AnalyticCacheModel:
        """The analytic cache model of one socket's hierarchy."""
        return self._cache_models[socket]

    def cores_of_socket(self, socket: int) -> list[Core]:
        """All logical cores on one socket."""
        per = self.logical_cores_per_socket
        return [self.core(core_id) for core_id in range(socket * per, (socket + 1) * per)]

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def allocate(
        self,
        size_bytes: int,
        node: int,
        page_size: PageSize = PageSize.SMALL_4K,
        label: str = "",
        persistent: bool = False,
    ) -> MemoryRegion:
        """Allocate a region on a specific node (numa_alloc_onnode)."""
        if not 0 <= node < len(self.nodes):
            raise HardwareError(f"no such NUMA node: {node}")
        return self.nodes[node].allocate(
            size_bytes, page_size=page_size, label=label, persistent=persistent
        )

    def free(self, region: MemoryRegion) -> None:
        """Release a region back to its node."""
        self.nodes[region.node].free(region)

    def dram_latency_ns(self, socket: int, node: int) -> float:
        """DRAM access latency from *socket* to *node*.

        The unloaded Table 2 value, optionally inflated by the
        loaded-latency model: ``lat * (1 + alpha * utilization^2)`` of the
        target node's memory controller (Section 6's observation that
        measured latency rises with memory-system load).
        """
        base = self._dram_local_ns if socket == node else self._dram_remote_ns
        if self.loaded_latency_alpha > 0:
            utilization = self.controllers[node].utilization
            base *= 1.0 + self.loaded_latency_alpha * utilization * utilization
        return base

    # ------------------------------------------------------------------
    # LLC sharing
    # ------------------------------------------------------------------
    def set_llc_sharers(self, socket: int, sharers: int) -> None:
        """Tell the cache model how many threads compete for socket's LLC."""
        if sharers < 1:
            raise HardwareError(f"sharers must be >= 1: {sharers}")
        self._cache_models[socket].llc_sharers = sharers
