"""Per-socket memory controllers with thermal throttling and fluid flows.

Two responsibilities, matching the paper:

* **Thermal-control throttling (Section 2.1).**  Each controller exposes a
  12-bit register modelled on ``THRT_PWR_DIMM_[0:2]``.  Programming it
  scales the controller's service bandwidth *linearly* in register space —
  the property the paper verifies in Figure 8.  The register requires
  privileged access, which the simulated kernel module enforces.

* **Bandwidth arbitration.**  Concurrent memory activities are *flows*
  sharing the controller with max-min fairness (progressive filling).
  Each flow carries a rate cap — the fastest its issuing core could
  consume data given access latency and MLP — so uncontended latency-bound
  traffic finishes in exactly its latency-bound time, while streaming
  traffic saturates the (possibly throttled) controller.  This is how
  bandwidth throttling slows applications down without any explicit
  latency model, mirroring real DRAM thermal throttling.
"""

from __future__ import annotations

import itertools
import math
from functools import partial
from typing import Callable, Optional, TYPE_CHECKING

from repro.errors import HardwareError
from repro.sim import Condition, Simulator

if TYPE_CHECKING:
    from repro.sim.events import ScheduledEvent

#: Width of the thermal throttle register (12 bits, per Intel datasheet).
THROTTLE_REGISTER_BITS = 12
#: Maximum programmable register value.
THROTTLE_REGISTER_MAX = (1 << THROTTLE_REGISTER_BITS) - 1

_flow_ids = itertools.count(1)


class MemoryFlow:
    """A byte stream being serviced by a controller.

    ``rate_cap`` (bytes/ns) bounds how fast the issuer can consume data;
    the controller may assign any rate up to the cap.  ``done`` fires (with
    no value, so the condition does not refer back to the flow) when all
    bytes have been transferred.
    """

    def __init__(self, sim: Simulator, total_bytes: float, rate_cap: float,
                 label: str = "flow", kind: str = "read"):
        # NaN fails both range checks: a NaN size would fire ``done`` at
        # once with nothing served, a NaN cap a NaN completion time.
        if not 0 <= total_bytes < math.inf:
            raise HardwareError(
                f"flow size must be finite and non-negative: {total_bytes}"
            )
        if not 0 < rate_cap < math.inf:
            raise HardwareError(f"flow rate cap must be finite and positive: {rate_cap}")
        if kind not in ("read", "write"):
            raise HardwareError(f"flow kind must be read/write: {kind!r}")
        self.flow_id = next(_flow_ids)
        self.label = label
        self.kind = kind
        self.total_bytes = float(total_bytes)
        self.rate_cap = float(rate_cap)
        self.transferred = 0.0
        self.assigned_rate = 0.0
        self.done = Condition(sim, name=f"{label}.done")
        self._last_update_ns = sim.now
        self._completion_event: Optional["ScheduledEvent"] = None
        #: The controller's completion callback for this flow, bound once
        #: when it is admitted, reused by every reschedule and dropped
        #: when the flow completes or is withdrawn.
        self._on_complete: Optional[Callable[[], None]] = None
        self.withdrawn = False

    @property
    def remaining_bytes(self) -> float:
        """Bytes not yet transferred."""
        return max(0.0, self.total_bytes - self.transferred)

    @property
    def fraction_done(self) -> float:
        """Progress in [0, 1]; empty flows count as complete."""
        if self.total_bytes <= 0:
            return 1.0
        return min(1.0, self.transferred / self.total_bytes)

    def __repr__(self) -> str:
        return (
            f"MemoryFlow({self.label!r}, {self.transferred:.0f}/"
            f"{self.total_bytes:.0f}B @cap {self.rate_cap:.3f}B/ns)"
        )


class MemoryController:
    """One socket's integrated memory controller."""

    def __init__(
        self,
        sim: Simulator,
        node: int,
        peak_bw_bytes_per_ns: float,
        channels: int,
        rw_throttle_supported: bool = False,
    ):
        if peak_bw_bytes_per_ns <= 0:
            raise HardwareError("peak bandwidth must be positive")
        if channels <= 0:
            raise HardwareError("need at least one channel")
        self.sim = sim
        self.node = node
        self.peak_bw = float(peak_bw_bytes_per_ns)
        self.channels = channels
        self._throttle_register = THROTTLE_REGISTER_MAX
        #: Separate read/write throttle registers (Section 2.1 describes
        #: them in the Intel manuals; footnote 2: "not yet broadly
        #: available in many latest processors" — so programming them on
        #: the paper-era parts raises UnsupportedFeatureError).
        self.rw_throttle_supported = rw_throttle_supported
        self._read_register = THROTTLE_REGISTER_MAX
        self._write_register = THROTTLE_REGISTER_MAX
        self._flows: list[MemoryFlow] = []
        self.total_bytes_served = 0.0
        self._update_bandwidths()

    # ------------------------------------------------------------------
    # Thermal throttling (Section 2.1)
    # ------------------------------------------------------------------
    @property
    def throttle_register(self) -> int:
        """Current value of the (modelled) THRT_PWR_DIMM register."""
        return self._throttle_register

    def program_throttle_register(self, value: int, *, privileged: bool) -> None:
        """Program the 12-bit thermal-control register.

        The register lives in PCI configuration space, so only the kernel
        module analogue (``repro.quartz.kernel_module``) may pass
        ``privileged=True``.
        """
        if not privileged:
            raise HardwareError(
                "thermal control registers are in PCI config space and "
                "require privileged (kernel) access"
            )
        if not 0 <= value <= THROTTLE_REGISTER_MAX:
            raise HardwareError(
                f"throttle register value {value} outside 12-bit range"
            )
        self._throttle_register = value
        self._update_bandwidths()
        self._reallocate()

    @property
    def effective_bandwidth(self) -> float:
        """Service bandwidth in bytes/ns after (combined) throttling.

        Linear in register space (the property Figure 8 validates), with a
        tiny floor so a zero register still makes forward progress.
        """
        return self._effective_bandwidth

    # -- separate read/write throttling (the footnote-2 extension) --------
    def program_rw_throttle_registers(
        self, read_value: int, write_value: int, *, privileged: bool
    ) -> None:
        """Program the separate read and write throttle registers.

        Raises :class:`UnsupportedFeatureError` on parts where the
        registers are not wired up — the condition the paper hit
        (Section 2.1, footnote 2).
        """
        from repro.errors import UnsupportedFeatureError

        if not privileged:
            raise HardwareError(
                "thermal control registers are in PCI config space and "
                "require privileged (kernel) access"
            )
        if not self.rw_throttle_supported:
            raise UnsupportedFeatureError(
                "separate read/write bandwidth throttle registers are "
                "documented but not functional on this part "
                "(paper Section 2.1, footnote 2)"
            )
        for value in (read_value, write_value):
            if not 0 <= value <= THROTTLE_REGISTER_MAX:
                raise HardwareError(
                    f"throttle register value {value} outside 12-bit range"
                )
        self._read_register = read_value
        self._write_register = write_value
        self._update_bandwidths()
        self._reallocate()

    @property
    def rw_throttle_registers(self) -> tuple[int, int]:
        """Current (read, write) register values."""
        return self._read_register, self._write_register

    def _update_bandwidths(self) -> None:
        """Recompute the throttled capacities; only a register write moves them.

        ``_kind_bandwidths[kind]`` is one flow kind's capacity: its own
        register, under the combined one.  Every flow submit, reallocation
        and completion reads these, so they are stored, not derived per read.
        """
        fraction = (self._throttle_register + 1) / (THROTTLE_REGISTER_MAX + 1)
        effective = max(self.peak_bw * fraction, 1e-6)
        self._effective_bandwidth = effective
        self._kind_bandwidths = {}
        for kind, register in (
            ("read", self._read_register),
            ("write", self._write_register),
        ):
            fraction = (register + 1) / (THROTTLE_REGISTER_MAX + 1)
            self._kind_bandwidths[kind] = max(
                min(self.peak_bw * fraction, effective), 1e-6
            )

    # ------------------------------------------------------------------
    # Flow service
    # ------------------------------------------------------------------
    def submit(self, total_bytes: float, rate_cap: float,
               label: str = "flow", kind: str = "read") -> MemoryFlow:
        """Start servicing a new flow; returns immediately."""
        flow = MemoryFlow(self.sim, total_bytes, rate_cap, label=label, kind=kind)
        if flow.remaining_bytes <= 0.0:
            flow.done.fire()
            return flow
        flow._on_complete = partial(self._complete, flow)
        self._flows.append(flow)
        self._reallocate()
        return flow

    def withdraw(self, flow: MemoryFlow) -> float:
        """Stop servicing *flow* (e.g. its core took a signal).

        Returns the bytes still outstanding.  The flow's ``done`` condition
        never fires; the caller resubmits the remainder later.
        """
        if flow not in self._flows:
            raise HardwareError(f"cannot withdraw unknown/finished flow {flow!r}")
        self._advance_all()
        self._detach(flow)
        flow.withdrawn = True
        self._reallocate()
        return flow.remaining_bytes

    @property
    def active_flow_count(self) -> int:
        """Flows currently being serviced."""
        return len(self._flows)

    @property
    def utilization(self) -> float:
        """Fraction of effective bandwidth currently assigned."""
        if not self._flows:
            return 0.0
        return min(
            1.0, sum(f.assigned_rate for f in self._flows) / self.effective_bandwidth
        )

    # ------------------------------------------------------------------
    # Internals: progressive-filling allocation
    # ------------------------------------------------------------------
    def _advance_all(self) -> None:
        """Credit every active flow for time elapsed at its assigned rate."""
        now = self.sim.now
        for flow in self._flows:
            elapsed = now - flow._last_update_ns
            if elapsed > 0:
                moved = min(flow.remaining_bytes, elapsed * flow.assigned_rate)
                flow.transferred += moved
                self.total_bytes_served += moved
            flow._last_update_ns = now

    def _detach(self, flow: MemoryFlow) -> None:
        """Stop servicing *flow* and drop its completion callback and
        event, which refer back to it, so a finished flow is freed by
        reference counting."""
        if flow._completion_event is not None:
            flow._completion_event.cancel()
            flow._completion_event = None
        flow._on_complete = None
        self._flows.remove(flow)

    def close(self) -> None:
        """Drop the flows still in service when the run ends."""
        for flow in self._flows:
            flow._completion_event = flow._on_complete = None
        self._flows.clear()

    @staticmethod
    def _water_fill(
        flows: list[MemoryFlow], caps: dict[int, float], capacity: float
    ) -> dict[int, float]:
        """Progressive filling: per-flow rate within a shared capacity."""
        assigned: dict[int, float] = {}
        pending = sorted(flows, key=lambda f: caps[f.flow_id])
        remaining = capacity
        count = len(pending)
        for index, flow in enumerate(pending):
            fair_share = remaining / (count - index)
            rate = min(caps[flow.flow_id], fair_share)
            assigned[flow.flow_id] = rate
            remaining -= rate
        return assigned

    def _reallocate(self) -> None:
        """Recompute max-min fair rates and reschedule completions.

        Two-stage allocation: first each kind (read/write) water-fills
        within its own register-scaled capacity, then the results become
        rate caps in a combined fill against the overall capacity — so
        the combined register still binds when the per-kind registers are
        left open.  A lone flow skips the fills: each stage gives it
        ``min(cap, capacity / 1)``, which is the nested ``min`` below.
        With no flow active there is nothing to credit or reschedule.
        """
        if not self._flows:
            return
        self._advance_all()
        if len(self._flows) == 1:
            flow = self._flows[0]
            flow.assigned_rate = min(
                min(flow.rate_cap, self._kind_bandwidths[flow.kind]),
                self._effective_bandwidth,
            )
        else:
            kind_limits: dict[int, float] = {}
            for kind in ("read", "write"):
                kind_flows = [flow for flow in self._flows if flow.kind == kind]
                if not kind_flows:
                    continue
                caps = {flow.flow_id: flow.rate_cap for flow in kind_flows}
                kind_limits.update(
                    self._water_fill(kind_flows, caps, self._kind_bandwidths[kind])
                )
            assigned = self._water_fill(
                self._flows, kind_limits, self._effective_bandwidth
            )
            for flow in self._flows:
                flow.assigned_rate = assigned[flow.flow_id]
        for flow in self._flows:
            if flow._completion_event is not None:
                flow._completion_event.cancel()
                flow._completion_event = None
            if flow.assigned_rate <= 0:
                continue
            eta = flow.remaining_bytes / flow.assigned_rate
            flow._completion_event = self.sim.schedule(eta, flow._on_complete)

    def _complete(self, flow: MemoryFlow) -> None:
        self._advance_all()
        # Guard against float drift: snap to done.
        self.total_bytes_served += flow.remaining_bytes
        flow.transferred = flow.total_bytes
        self._detach(flow)
        flow.done.fire()
        if self._flows:
            self._reallocate()
