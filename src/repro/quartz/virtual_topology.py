"""The Virtual Topology of Section 3.3 (Figure 7), as a tier ladder.

The emulator partitions sockets into *sibling sets* of two.  Application
threads run on the first socket of each set and use its local DRAM via
plain ``malloc``; the sibling socket's DRAM backs every emulated memory
tier, reached through ``pmalloc`` (implemented with ``numa_alloc_onnode``).
The sibling socket's cores do no computation — the price paid for being
able to split LLC misses into local vs. remote via hardware counters.

The paper's DRAM + virtual NVM system is the two-tier case of the ladder
(tier 0 the local DRAM, tier 1 the NVM); more tiers share the same
sibling DRAM and differ only in their emulated latencies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import QuartzError
from repro.hw.machine import Machine
from repro.hw.topology import MemoryRegion, PageSize
from repro.quartz.tiers import TierDirectory, TierLadder

if TYPE_CHECKING:
    from repro.os.thread import SimThread


class TieredTopology:
    """Sibling-set socket partitioning with a tiered virtual-NVM allocator.

    Every emulated tier lives on the sibling socket's DRAM, because that
    is the only memory whose LLC misses the local/remote counters can
    separate.  The ladder's placement policy assigns each pmalloc'd
    region to one of the emulated tiers, the
    :class:`~repro.quartz.tiers.TierDirectory` remembers the assignment,
    and the epoch engine charges each tier's share of the measured
    remote stalls at that tier's own read/write latencies.
    """

    def __init__(self, machine: Machine, ladder: TierLadder):
        sockets = machine.arch.sockets
        if sockets < 2 or sockets % 2 != 0:
            raise QuartzError(
                f"tiered emulation needs an even number of sockets "
                f"(>= 2), got {sockets}"
            )
        machine.arch.require_local_remote_counters()
        self.machine = machine
        #: (compute socket, virtual-NVM socket) pairs.
        self.sibling_sets = tuple(
            (socket, socket + 1) for socket in range(0, sockets, 2)
        )
        self.tiers = ladder.tiers
        self.policy = ladder.new_policy()
        self.directory = TierDirectory(tiers=self.tiers)
        self.pmalloc_count = 0

    @property
    def compute_sockets(self) -> tuple[int, ...]:
        """Sockets application threads may run on."""
        return tuple(pair[0] for pair in self.sibling_sets)

    def nvm_node_for(self, socket: int) -> int:
        """The virtual-NVM node of *socket*'s sibling set."""
        for compute, nvm in self.sibling_sets:
            if socket == compute:
                return nvm
        raise QuartzError(
            f"socket {socket} is a virtual-NVM socket; application threads "
            f"must run on one of {self.compute_sockets}"
        )

    # -- pmalloc/pfree sync hooks -------------------------------------------
    def pmalloc_hook(
        self,
        thread: "SimThread",
        size_bytes: int,
        page_size: PageSize,
        label: str,
    ) -> MemoryRegion:
        """Allocate on the caller's sibling socket and file under a tier."""
        tier_index = self.policy.place(size_bytes, self.directory)
        node = self.nvm_node_for(thread.core.socket)
        self.pmalloc_count += 1
        region = self.machine.allocate(
            size_bytes,
            node=node,
            page_size=page_size,
            label=label or f"tier-{self.tiers[tier_index].name}",
            persistent=True,
        )
        self.directory.register(region, tier_index)
        return region

    def pfree_hook(self, thread: "SimThread", region: MemoryRegion) -> None:
        """Release a tiered region and drop its directory entry."""
        if not region.persistent:
            raise QuartzError("pfree of a non-persistent region")
        self.directory.unregister(region)
        self.machine.free(region)
