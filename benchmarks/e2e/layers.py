"""Split a cProfile of the driver calls across the ``repro`` packages.

A layer is a package under ``src/repro`` (``ops`` is the one top-level
module that counts as a layer).  A function's self time belongs to its
layer.  Self time of everything else -- the standard library, builtins,
shared helper modules -- is charged to the nearest calling layer: split
over the function's callers by the time spent along each caller edge,
and, where a caller is itself unowned, on up through its callers in
proportion to their edges' cumulative time.  Time with no owned caller
anywhere above it stays unattributed, so ``sum(layers) + unattributed``
equals the profiled total.
"""

from __future__ import annotations

import pstats
from pathlib import PurePath
from typing import Optional

LAYERS = (
    "sim", "os", "hw", "quartz", "workloads", "service", "pmem", "explore",
    "faults", "validation", "ops",
)

#: Call-count metric -> the functions (path under ``src/``, name) it sums.
#: Each counts work that one layer does, exactly and repeatably.
COUNTED = {
    "sim.schedule_calls": (
        ("repro/sim/kernel.py", "schedule"),
        ("repro/sim/kernel.py", "schedule_at"),
    ),
    "os.ops_dispatched": (("repro/os/system.py", "_dispatch"),),
    "hw.ops_executed": (("repro/hw/core.py", "execute"),),
    "hw.cache_resolves": (("repro/hw/cache.py", "resolve"),),
    "hw.flow_submits": (("repro/hw/memory.py", "submit"),),
    "hw.flow_reallocations": (("repro/hw/memory.py", "_reallocate"),),
    "hw.frequency_queries": (("repro/hw/core.py", "frequency_ghz"),),
    "quartz.epoch_closes": (("repro/quartz/epoch.py", "close_and_reopen"),),
    "workloads.input_builds": (
        ("repro/workloads/graphs.py", "synthetic_scale_free"),
        ("repro/workloads/graphs.py", "synthetic_power_law"),
    ),
}


def layer_of(filename: str) -> Optional[str]:
    """The layer owning a source file, or ``None`` outside every layer."""
    parts = PurePath(filename).parts
    for index in range(len(parts) - 2, 0, -1):
        if parts[index] == "repro" and parts[index - 1] == "src":
            head = parts[index + 1]
            name = head[:-3] if head.endswith(".py") else head
            return name if name in LAYERS else None
    return None


def _matches(func: tuple, suffix: str, name: str) -> bool:
    return func[2] == name and PurePath(func[0]).as_posix().endswith(suffix)


def attribute(stats: dict) -> tuple[dict, float]:
    """Charge every function's self time to a layer.

    *stats* is ``pstats.Stats(...).stats``: function -> ``(cc, nc, tt, ct,
    callers)``, each caller edge ``(nc, cc, tt, ct)``.  Returns
    ``({layer: seconds}, unattributed seconds)``.
    """
    owner = {func: layer_of(func[0]) for func in stats}
    memo: dict = {}

    def shares(func: tuple, path: set) -> tuple[dict, bool]:
        """Fractions of *func*'s time owned by each layer above it, and
        whether no recursive edge had to be cut to compute them."""
        layer = owner.get(func)
        if layer is not None:
            return {layer: 1.0}, True
        if func in memo:
            return memo[func], True
        if func in path or func not in stats:
            return {}, False
        path.add(func)
        weighted: dict = {}
        total, complete = 0.0, True
        for caller, edge in stats[func][4].items():
            above, caller_complete = shares(caller, path)
            complete = complete and caller_complete
            if not above:
                continue
            total += edge[3]
            for name, fraction in above.items():
                weighted[name] = weighted.get(name, 0.0) + fraction * edge[3]
        path.discard(func)
        result = (
            {name: value / total for name, value in weighted.items()}
            if total > 0 else {}
        )
        if complete:
            memo[func] = result
        return result, complete

    charged = dict.fromkeys(LAYERS, 0.0)
    unattributed = 0.0
    for func, (_cc, _nc, self_s, _ct, callers) in stats.items():
        if owner[func] is not None:
            charged[owner[func]] += self_s
            continue
        spent = 0.0
        for caller, edge in callers.items():
            for name, fraction in shares(caller, set())[0].items():
                charged[name] += edge[2] * fraction
                spent += edge[2] * fraction
        unattributed += self_s - spent
    return charged, unattributed


def summarize(profiler) -> dict:
    """Layer self times, exact call counts, and input-build time."""
    stats = pstats.Stats(profiler).stats
    charged, unattributed = attribute(stats)
    counts = {
        metric: sum(
            row[1]
            for func, row in stats.items()
            if any(_matches(func, suffix, name) for suffix, name in targets)
        )
        for metric, targets in COUNTED.items()
    }
    input_build_s = sum(
        row[3]
        for func, row in stats.items()
        if any(
            _matches(func, suffix, name)
            for suffix, name in COUNTED["workloads.input_builds"]
        )
    )
    return {
        "total_s": sum(row[2] for row in stats.values()),
        "unattributed_s": unattributed,
        "layers": charged,
        "counts": counts,
        "input_build_s": input_build_s,
    }
