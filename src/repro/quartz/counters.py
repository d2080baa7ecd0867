"""Counter access backends: direct ``rdpmc`` vs. trapping frameworks.

Section 3.2: reading all required counters costs ~2000 cycles with direct
``rdpmc`` (half of the ~4000-cycle epoch processing) but ~30,000 cycles
through PAPI-style frameworks that virtualise counters and trap into the
kernel per access — 8x more, enough to make the epoch overhead impossible
to amortise.  Both backends read the same simulated PMC file; only the
cycle cost (charged by the epoch engine as compute) differs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QuartzError
from repro.hw.arch import CounterEventSet
from repro.hw.pmc import PmcFile


@dataclass(frozen=True)
class CounterBackend:
    """A way of reading performance counters and its cycle cost."""

    name: str
    #: Cycles to read one counter.
    cost_per_event_cycles: float
    #: Fixed per-read-batch cycles (framework entry/exit).
    fixed_cost_cycles: float
    #: True if user-mode reads are possible (rdpmc); PAPI traps instead.
    user_mode: bool

    def read_all(
        self, pmc: PmcFile, events: CounterEventSet
    ) -> tuple[dict[str, float], float]:
        """Read every Table 1 event; returns (values, cost_cycles)."""
        names = events.all_events()
        values = {name: pmc.read(name) for name in names}
        cost = self.fixed_cost_cycles + self.cost_per_event_cycles * len(names)
        return values, cost

    def read_values(
        self, pmc: PmcFile, names: tuple[str, ...]
    ) -> tuple[list[float], float]:
        """Batched read: values as a list aligned with *names*.

        The epoch engine's hot path uses this with a cached name tuple and
        precomputed event indices, so each close builds one list instead of
        a dict.  Reads still go through :meth:`PmcFile.read` one event at a
        time — that per-event call raises the ``pmc_read`` hook event.
        """
        read = pmc.read
        values = [read(name) for name in names]
        cost = self.fixed_cost_cycles + self.cost_per_event_cycles * len(names)
        return values, cost


#: Direct rdpmc reads from user mode (the paper's choice).
RDPMC_BACKEND = CounterBackend(
    name="rdpmc",
    cost_per_event_cycles=450.0,
    fixed_cost_cycles=200.0,
    user_mode=True,
)

#: PAPI-style virtualised counters: kernel trap per access (Section 3.2:
#: ~30,000 cycles for all required counters, ~8x rdpmc).
PAPI_BACKEND = CounterBackend(
    name="papi",
    cost_per_event_cycles=7_000.0,
    fixed_cost_cycles=2_000.0,
    user_mode=False,
)


def backend_by_name(name: str) -> CounterBackend:
    """Look up a backend by configuration name."""
    if name == "rdpmc":
        return RDPMC_BACKEND
    if name == "papi":
        return PAPI_BACKEND
    raise QuartzError(f"unknown counter backend: {name!r}")
