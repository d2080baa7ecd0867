"""Function interposition — the simulated ``LD_PRELOAD`` mechanism.

The paper (Section 3.1): *"We implement function interposition by
leveraging the fact that system library functions are usually defined as
weak symbols and define a new function with the same name and signature
that intercepts the original function call."*

Here the same idea is expressed as a registry of hooks keyed by symbol
name.  Two kinds exist:

* **Op hooks** wrap a timed operation (``pthread_mutex_unlock``,
  ``pthread_cond_notify``, ``pflush``).  A hook is a generator function
  ``hook(os, thread, op)`` that yields ops to run around the call and the
  :data:`ORIGINAL` sentinel exactly where the intercepted function should
  execute.  This is how Quartz closes an epoch and injects its delay
  *before* releasing a contended lock (Figure 4b).

* **Sync hooks** replace an untimed library call (``pmalloc``/``pfree``),
  plain callables invoked in place of the default implementation.

At most one interposer per symbol may be active — like symbol resolution,
the first preloaded definition wins and a second preload is a conflict.

Interposers *replace* behaviour.  Tools that only *watch* it subscribe
to the simulator's :class:`~repro.sim.hooks.Hooks` instead, which admits
any number of subscribers per event in a fixed order.  Its ``op`` event
fires once for every op the OS actually routes to the hardware or sync
layer (interposed calls notify for the ops their hooks emit, not for the
intercepted symbol itself).  This is the zero-overhead seam shadow-memory
tools sit on — the persistence-domain model of :mod:`repro.pmem` watches
``Flush`` / ``FlushOpt`` / ``Commit`` traffic through it without
perturbing a single simulated timestamp.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import OsError


class _OriginalSentinel:
    """Yielded by an op hook where the intercepted call should run."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<ORIGINAL>"


#: Sentinel: "now call the real function".
ORIGINAL = _OriginalSentinel()

#: Symbol names with defined interposition points.
OP_SYMBOLS = (
    "pthread_create",
    "pthread_mutex_lock",
    "pthread_mutex_unlock",
    "pthread_cond_notify",
    "barrier_wait",
    "pflush",
    "pcommit",
    "thread_begin",
    "thread_end",
)
SYNC_SYMBOLS = (
    "pmalloc",
    "pfree",
)


class InterpositionTable:
    """Registry of active interposers, one per symbol."""

    def __init__(self) -> None:
        self._op_hooks: dict[str, Callable] = {}
        self._sync_hooks: dict[str, Callable] = {}

    # -- op hooks -------------------------------------------------------
    def register_op_hook(self, symbol: str, hook: Callable) -> None:
        """Install an op hook for *symbol* (see module docstring)."""
        if symbol not in OP_SYMBOLS:
            raise OsError(f"no interposition point for symbol {symbol!r}")
        if symbol in self._op_hooks:
            raise OsError(f"symbol {symbol!r} already interposed")
        self._op_hooks[symbol] = hook

    def op_hook(self, symbol: str) -> Optional[Callable]:
        """The active op hook for *symbol*, if any."""
        return self._op_hooks.get(symbol)

    # -- sync hooks -------------------------------------------------------
    def register_sync_hook(self, symbol: str, hook: Callable) -> None:
        """Install a sync (untimed call) hook for *symbol*."""
        if symbol not in SYNC_SYMBOLS:
            raise OsError(f"no interposition point for symbol {symbol!r}")
        if symbol in self._sync_hooks:
            raise OsError(f"symbol {symbol!r} already interposed")
        self._sync_hooks[symbol] = hook

    def sync_hook(self, symbol: str) -> Optional[Callable]:
        """The active sync hook for *symbol*, if any."""
        return self._sync_hooks.get(symbol)

    def unregister_all(self) -> None:
        """Drop every interposer (library unload)."""
        self._op_hooks.clear()
        self._sync_hooks.clear()
