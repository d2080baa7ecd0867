"""The Quartz kernel module analogue.

The paper implements Quartz as *"a pair of a simple kernel module and a
user-mode library"* (Section 3.1).  The kernel module:

* programs the ``THRT_PWR_DIMM_[0:2]`` thermal-control registers (PCI
  config space, privileged) to throttle DRAM bandwidth per channel;
* programs the performance events of Table 1 into each core's PMCs;
* enables direct user-mode counter access via ``rdpmc`` so the library
  avoids trapping on every read.

This class is the only code in the reproduction allowed to pass
``privileged=True`` to the hardware — the same trust boundary as ring 0.
"""

from __future__ import annotations

from repro.errors import QuartzError
from repro.hw.machine import Machine
from repro.hw.memory import THROTTLE_REGISTER_MAX


class QuartzKernelModule:
    """Privileged services for the user-mode library."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self._loaded = False
        self._user_rdpmc_enabled = False
        self._saved_throttle: dict[int, int] = {}

    def load(self) -> None:
        """insmod: snapshot hardware state for clean unload."""
        if self._loaded:
            raise QuartzError("kernel module already loaded")
        self._saved_throttle = {
            node: controller.throttle_register
            for node, controller in enumerate(self.machine.controllers)
        }
        self._loaded = True

    def unload(self) -> None:
        """rmmod: restore throttle registers to their pre-load values."""
        self._require_loaded()
        for node, value in self._saved_throttle.items():
            self.machine.controller(node).program_throttle_register(
                value, privileged=True
            )
        self._loaded = False
        self._user_rdpmc_enabled = False

    @property
    def loaded(self) -> bool:
        """True while the module is inserted."""
        return self._loaded

    # ------------------------------------------------------------------
    # Performance counters
    # ------------------------------------------------------------------
    def setup_counters(self) -> None:
        """Program the Table 1 events on every core and enable rdpmc."""
        self._require_loaded()
        events = self.machine.arch.counter_events.all_events()
        self.machine.program_counters(events, privileged=True)
        self._user_rdpmc_enabled = True

    @property
    def user_rdpmc_enabled(self) -> bool:
        """True once CR4.PCE has been set for user-mode rdpmc."""
        return self._user_rdpmc_enabled

    # ------------------------------------------------------------------
    # Bandwidth throttling
    # ------------------------------------------------------------------
    def set_throttle_register(self, node: int, value: int) -> None:
        """Program a node's thermal-control register (all channels)."""
        self._require_loaded()
        if not 0 <= value <= THROTTLE_REGISTER_MAX:
            raise QuartzError(
                f"throttle value {value} outside 12-bit register range"
            )
        self.machine.controller(node).program_throttle_register(
            value, privileged=True
        )

    def set_rw_throttle_registers(
        self, node: int, read_value: int, write_value: int
    ) -> None:
        """Program a node's separate read/write throttle registers.

        Only works on parts with the registers wired up (the paper's
        footnote-2 extension); raises UnsupportedFeatureError otherwise.
        """
        self._require_loaded()
        self.machine.controller(node).program_rw_throttle_registers(
            read_value, write_value, privileged=True
        )

    def reset_throttle(self, node: int) -> None:
        """Restore a node's register to full bandwidth."""
        self._require_loaded()
        self.machine.controller(node).program_throttle_register(
            THROTTLE_REGISTER_MAX, privileged=True
        )

    def _require_loaded(self) -> None:
        if not self._loaded:
            raise QuartzError("kernel module not loaded")
