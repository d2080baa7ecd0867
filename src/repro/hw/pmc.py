"""Per-core performance monitoring counters (PMCs).

The simulated hardware increments *true* event counts as the core executes;
readers observe those counts through a measurement layer that models the
per-family counter fidelity of real Xeons:

* a **systematic bias** per (family, core, event) — event definitions
  over/under-count consistently (Section 4.4 footnote 6 notes Sandy
  Bridge counters are "less reliable", the paper's explanation for its
  larger emulation error).  It is a fixed property of the part, so it is
  derived once per process into :data:`_BIAS_TABLE` and shared by every
  machine of the family;
* **white read noise** applied to each read delta, drawn from the core's
  ``pmc-read-core{n}`` stream, which is created on the first noisy read;
* monotonicity is preserved (a real counter never runs backwards).

Only the events of Table 1 exist per family; programming or reading any
other event raises, mirroring a bad ``PERFEVTSEL`` programming.
"""

from __future__ import annotations

import random
import zlib
from types import MappingProxyType
from typing import Mapping

from repro.errors import HardwareError
from repro.hw.arch import ArchSpec
from repro.sim import Simulator

#: (family, core id, event, bias sigma) -> systematic bias factor.
_BIAS_TABLE: dict[tuple[str, int, str, float], float] = {}
#: (family, core id, bias sigma, event names) -> (valid events, read-only
#: bias per event): one core's fixed counter layout, shared by every
#: :class:`PmcFile` of that core of the family.
_LAYOUTS: dict[tuple, tuple[frozenset, Mapping[str, float]]] = {}


def systematic_bias(family: str, core_id: int, event: str, sigma: float) -> float:
    """The fixed miscount factor of one counter of one part.

    A *hardware property* of the family — identical on every run of the
    same testbed (which is why the paper's per-family error bands persist
    across its 20 trials) — so it is derived deterministically from
    (family, core, event), independent of the run seed, and computed once
    per process.  ``sigma`` is part of the key, so an arch whose
    ``bias_sigma`` was replaced never shares an entry with the original.
    """
    key = (family, core_id, event, sigma)
    bias = _BIAS_TABLE.get(key)
    if bias is None:
        seed = zlib.crc32(f"pmc/{family}/core{core_id}/{event}".encode("utf-8"))
        bias = _BIAS_TABLE[key] = 1.0 + random.Random(seed).gauss(0.0, sigma)
    return bias


def _layout(arch: ArchSpec, core_id: int) -> tuple[frozenset, Mapping[str, float]]:
    """The valid events and bias factors of one core of *arch*, derived
    once per process like the biases themselves."""
    events = arch.counter_events.all_events()
    sigma = arch.counter_fidelity.bias_sigma
    key = (arch.name, core_id, sigma, events)
    layout = _LAYOUTS.get(key)
    if layout is None:
        bias = {name: systematic_bias(arch.name, core_id, name, sigma) for name in events}
        layout = _LAYOUTS[key] = (frozenset(events), MappingProxyType(bias))
    return layout


class PmcFile:
    """The PMC register file of one core."""

    def __init__(self, sim: Simulator, arch: ArchSpec, core_id: int):
        self.sim = sim
        self.arch = arch
        self.core_id = core_id
        self._valid_events, self._bias = _layout(arch, core_id)
        #: True (hardware-side) counts.  A core's batch plans add to this
        #: dict directly, for the core's own events (``repro.hw.core``).
        self._true: dict[str, float] = dict.fromkeys(self._valid_events, 0.0)
        self._programmed: set[str] = set()
        # Measurement state per event: (true value at last read, last
        # reported value).
        self._read_state: dict[str, tuple[float, float]] = {}
        # Created on the first noisy read: a stream's seed depends only on
        # its name, so the draws are the same whenever it is created.
        self._noise_rng: random.Random | None = None
        self._hooks = sim.hooks

    # ------------------------------------------------------------------
    # Programming (privileged; done by the Quartz kernel module)
    # ------------------------------------------------------------------
    def program(self, events: tuple[str, ...], *, privileged: bool) -> None:
        """Select the events this core's counters track."""
        if not privileged:
            raise HardwareError("programming PERFEVTSEL requires ring 0")
        for name in events:
            self._require_valid(name)
        self._programmed = set(events)

    @property
    def programmed_events(self) -> frozenset[str]:
        """Events currently selected."""
        return frozenset(self._programmed)

    # ------------------------------------------------------------------
    # Hardware side: true increments
    # ------------------------------------------------------------------
    def increment(self, event: str, delta: float) -> None:
        """Advance the true count of *event* (hardware side)."""
        self._require_valid(event)
        if delta < 0:
            raise HardwareError(f"counter {event} cannot decrease (delta={delta})")
        self._true[event] += delta

    def true_value(self, event: str) -> float:
        """The exact event count, bypassing measurement error (test hook)."""
        self._require_valid(event)
        return self._true[event]

    # ------------------------------------------------------------------
    # Software side: rdpmc-style reads
    # ------------------------------------------------------------------
    def read(self, event: str) -> float:
        """Read the counter as software sees it (bias + noise, monotonic).

        The *cost* of the read (rdpmc vs. PAPI trap) is charged by the
        counter backend in ``repro.quartz.counters``, not here.
        ``pmc_read`` subscribers (the fault layer's stale-read and
        register-wrap injectors) fold over the *reported* value only:
        internal read state keeps the unfaulted truth, so faults never
        compound across reads.
        """
        self._require_valid(event)
        if event not in self._programmed:
            raise HardwareError(
                f"event {event} is not programmed on core {self.core_id}"
            )
        true_now = self._true[event]
        true_prev, reported_prev = self._read_state.get(event, (0.0, 0.0))
        delta = true_now - true_prev
        fidelity = self.arch.counter_fidelity
        observed_delta = delta * self._bias[event]
        if delta > 0 and fidelity.read_noise_sigma > 0:
            if self._noise_rng is None:
                self._noise_rng = self.sim.random.stream(
                    f"pmc-read-core{self.core_id}"
                )
            observed_delta *= 1.0 + self._noise_rng.gauss(
                0.0, fidelity.read_noise_sigma
            )
        reported = max(reported_prev, reported_prev + observed_delta)
        self._read_state[event] = (true_now, reported)
        for perturb in self._hooks.pmc_read:
            reported = perturb(self.core_id, event, reported)
        return reported

    def _require_valid(self, event: str) -> None:
        if event not in self._valid_events:
            raise HardwareError(
                f"event {event!r} does not exist on {self.arch.name} "
                f"(Table 1 events: {sorted(self._valid_events)})"
            )
