"""A bounded, per-process memo for pure host-side functional work.

The validation experiments run the same application on the reference
memory and on emulated NVM (Section 4.3), and several experiments ask
for the same graph or the same key sequence.  The host-side functional
part of that work (building a graph, the B+-tree's inserts and lookups,
PageRank's rank iterations) is a pure function of the inputs it reads,
so it is computed once per process for equal inputs and replayed.  A
run's simulated cost is never memoized: every op is still yielded and
charged on every run.

Each user holds one :class:`Memo` with its own module-constant bound.
There is no switch to turn one off; a miss is the compute path, so
clearing a memo gives the oracle.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, TypeVar

T = TypeVar("T")


def typed(*args) -> tuple:
    """*args* as ``(type, value)`` pairs, for use in a key.

    Typing each part keeps ``True`` from aliasing ``1`` and ``1.0``, so
    a value that would compute differently never hits another's entry.
    """
    return tuple((type(arg), arg) for arg in args)


class Memo:
    """At most *limit* entries, the least recently used dropped first."""

    def __init__(self, limit: int):
        self.limit = limit
        self._entries: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, build: Callable[[], T]) -> T:
        """The entry under *key*, from ``build()`` on a miss."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            return entries[key]
        value = build()
        entries[key] = value
        if len(entries) > self.limit:
            entries.popitem(last=False)
        return value

    def clear(self) -> None:
        self._entries.clear()
