"""One run's testbed: Simulator → Machine → SimOS, built and freed together.

Every simulated run in the reproduction — a validation configuration
(:func:`repro.validation.configs.run_testbed`), one explored schedule
(:class:`repro.explore.Explorer`) and each calibration measurement
(:mod:`repro.quartz.calibration`) — builds its three layers through a
:class:`Testbed` and closes it once the run's results have been read::

    with Testbed(arch, seed=1) as testbed:
        testbed.os.create_thread(body)
        testbed.os.run_to_completion()
        elapsed = testbed.sim.now

The layers refer to one another (cores to their machine, threads to
their OS, queued events and hook subscribers to the simulator), so a
finished run is a web of reference cycles.  :meth:`Testbed.close` breaks
them: the simulator empties its event heap and pool and drops every hook
subscriber; the OS drops its interposers and signal handlers, finalizes
the threads left suspended (their ``finally`` blocks run, with no
subscriber left to notify) and lets go of its threads; the cores drop
their machine and the memory controllers their in-service flows.  Reference counting then
frees the whole run at once, without waiting for the cyclic garbage
collector.
"""

from __future__ import annotations

from typing import Optional

from repro.hw.arch import ArchSpec
from repro.hw.machine import Machine
from repro.os.system import SimOS
from repro.sim import Simulator


class Testbed:
    """A fresh simulated machine and its OS for one run.

    Threads run on socket 0 unless created elsewhere; ``mem_node`` is the
    OS's default memory node (``None``: first-touch local), and
    ``machine_options`` go to :class:`~repro.hw.machine.Machine`.
    """

    def __init__(
        self,
        arch: ArchSpec,
        seed: int = 0,
        mem_node: Optional[int] = None,
        **machine_options,
    ):
        self.sim = Simulator(seed=seed)
        self.machine = Machine(self.sim, arch, **machine_options)
        self.os = SimOS(self.machine, default_mem_node=mem_node)

    def close(self) -> None:
        """Break the run's reference cycles (see the module docstring).

        Read the results first: afterwards threads have no context, cores
        no machine and the simulator no pending events.  The clock,
        :attr:`~repro.sim.Simulator.events_dispatched`, core stats and
        PMC counts stay readable.
        """
        self.sim.close()
        self.os.close()
        self.machine.close()

    def __enter__(self) -> "Testbed":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
