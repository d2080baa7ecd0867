"""Assembly of a full simulated testbed machine.

A :class:`Machine` wires together the pieces of one of the paper's
dual-socket servers (Figure 9): per-socket cores with PMC files, one
memory controller + DRAM node per socket, a shared DVFS governor, and
per-socket analytic cache models.  NUMA node *i* is the DRAM directly
attached to socket *i*; accesses from socket *s* to node *n != s* pay the
remote latency of Table 2.
"""

from __future__ import annotations

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
        # testbeds are all two-way hyper-threaded (Section 4.1).  A core
        # keeps its socket's cache model, so the models come first.
        total_logical = arch.sockets * arch.cores_per_socket * arch.smt
        self.pmcs = [PmcFile(sim, arch, core_id) for core_id in range(total_logical)]
        self.cores = [Core(self, core_id) for core_id in range(total_logical)]

    # ------------------------------------------------------------------
    # Component lookup
    # ------------------------------------------------------------------
    @property
    def logical_cores_per_socket(self) -> int:
        """Hardware thread contexts per socket (cores x SMT)."""
        return self.arch.cores_per_socket * self.arch.smt

    def core(self, core_id: int) -> Core:
        """Logical core by global id."""
        return self.cores[core_id]

    def physical_core_of(self, core_id: int) -> int:
        """Physical core index behind a logical core id."""
        within = core_id % self.logical_cores_per_socket
        return within % self.arch.cores_per_socket

    def pmc(self, core_id: int) -> PmcFile:
        """PMC file of one core."""
        return self.pmcs[core_id]

    def controller(self, node: int) -> MemoryController:
        """Memory controller of one NUMA node."""
        return self.controllers[node]

    def cache_model(self, socket: int) -> AnalyticCacheModel:
        """The analytic cache model of one socket's hierarchy."""
        return self._cache_models[socket]

    def cores_of_socket(self, socket: int) -> list[Core]:
        """All logical cores on one socket."""
        per = self.logical_cores_per_socket
        return self.cores[socket * per : (socket + 1) * per]

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
