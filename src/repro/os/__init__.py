"""Simulated operating system layer.

Provides the process/thread machinery the Quartz user-mode library hooks
into on a real system: threads bound to cores (:mod:`repro.os.thread`),
pthread-style mutexes and condition variables (:mod:`repro.os.sync`),
POSIX-style signals, NUMA allocation policy (numactl/numa_alloc_onnode),
and an ``LD_PRELOAD`` analogue — the interposition table of
:mod:`repro.os.interpose` through which Quartz intercepts
``pthread_create``, ``pthread_mutex_unlock``, ``pmalloc`` and ``pflush``.
A :class:`~repro.os.testbed.Testbed` builds one run's simulator, machine
and OS and frees them together when the run ends.
"""

from repro.os.interpose import ORIGINAL, InterpositionTable
from repro.os.sync import Barrier, CondVar, Mutex
from repro.os.system import SimOS
from repro.os.testbed import Testbed
from repro.os.thread import Signal, SimThread, ThreadContext, ThreadState

__all__ = [
    "Barrier",
    "CondVar",
    "InterpositionTable",
    "Mutex",
    "ORIGINAL",
    "Signal",
    "SimOS",
    "SimThread",
    "Testbed",
    "ThreadContext",
    "ThreadState",
]
