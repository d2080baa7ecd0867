"""Offline calibration: measured latencies and the bandwidth table.

The paper's kernel-module helper *measures* the machine rather than
trusting datasheets: it estimates the maximum bandwidth for each throttle
register value by timing streaming accesses ("saves these values for
later use by the user-mode library", Section 3.1), and the library needs
measured DRAM and L3 latencies for Eqs. (2)-(4).

We reproduce that honestly: calibration runs short measurement workloads
on a *private* simulated machine of the same architecture and derives all
constants from observed timings.  The small systematic errors this
introduces (residual LLC hits in the latency chase, issue overhead in the
streaming kernel) flow into the emulator's accuracy exactly as they do on
metal.

Results are cached per (architecture, seed): calibration is a one-time,
per-machine step, like the paper's helper program.  Two cache layers
exist: a process-local dict, and a versioned on-disk JSON cache under
``~/.cache/quartz-repro/`` (override with ``QUARTZ_REPRO_CACHE_DIR``)
keyed by (architecture fingerprint, seed, bandwidth points, schema
version).  The disk cache is what lets parallel experiment workers share
one calibration pass instead of each re-measuring every testbed; writes
are atomic (write-temp-then-rename) and corrupted files are treated as
misses, never errors.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.errors import CalibrationError
from repro.hw.arch import ArchSpec
from repro.hw.memory import THROTTLE_REGISTER_MAX
from repro.hw.topology import PageSize
from repro.ops import MemBatch, PatternKind
from repro.os.system import SimOS
from repro.os.testbed import Testbed
from repro.units import GIB, MIB


@dataclass(frozen=True)
class CalibrationData:
    """Measured machine constants consumed by the Quartz library."""

    arch_name: str
    dram_local_ns: float
    dram_remote_ns: float
    l3_ns: float
    #: (register value, achieved bytes/ns), ascending in register value.
    bandwidth_table: tuple[tuple[int, float], ...] = field(repr=False)

    @property
    def w_local(self) -> float:
        """W ratio (local DRAM / L3 latency) for Eq. (3)."""
        return self.dram_local_ns / self.l3_ns

    @property
    def w_remote(self) -> float:
        """W ratio for remote-DRAM-backed (virtual NVM) accesses."""
        return self.dram_remote_ns / self.l3_ns

    @property
    def peak_bandwidth(self) -> float:
        """Highest measured bandwidth (bytes/ns)."""
        return max(rate for _, rate in self.bandwidth_table)

    def register_for_bandwidth(self, target_bytes_per_ns: float) -> int:
        """Smallest register value achieving *target* bandwidth.

        Interpolates linearly between measured points (the linearity
        Figure 8 establishes).  A target above the attainable maximum
        returns the unthrottled register.
        """
        if target_bytes_per_ns <= 0:
            raise CalibrationError(f"target bandwidth must be positive: {target_bytes_per_ns}")
        previous_register, previous_rate = None, None
        for register, rate in self.bandwidth_table:
            if rate >= target_bytes_per_ns:
                if previous_register is None or previous_rate is None:
                    return register
                span = rate - previous_rate
                if span <= 0:
                    return register
                fraction = (target_bytes_per_ns - previous_rate) / span
                return min(
                    THROTTLE_REGISTER_MAX,
                    int(round(previous_register + fraction * (register - previous_register))),
                )
            previous_register, previous_rate = register, rate
        return THROTTLE_REGISTER_MAX


def _run_threads(os: SimOS, bodies: list, cpu_node: int = 0) -> float:
    """Run bodies to completion; returns elapsed simulated ns."""
    start = os.sim.now
    for index, body in enumerate(bodies):
        os.create_thread(body, name=f"calibrate{index}", cpu_node=cpu_node)
    os.run_to_completion()
    return os.sim.now - start


def _measure_chase_latency(
    arch: ArchSpec, node: int, footprint_bytes: int, accesses: int, seed: int
) -> float:
    """Pointer-chase latency measurement (the MemLat idea, Section 4.4)."""
    durations: dict[str, float] = {}

    def body(ctx):
        region = ctx.malloc(
            footprint_bytes, page_size=PageSize.HUGE_2M, label="calibration-chase"
        )
        start = ctx.now_ns
        yield MemBatch(region, accesses, PatternKind.CHASE)
        durations["elapsed"] = ctx.now_ns - start

    with Testbed(arch, seed, latency_jitter=True) as testbed:
        testbed.os.create_thread(body, cpu_node=0, mem_node=node)
        testbed.os.run_to_completion()
    return durations["elapsed"] / accesses


def _measure_bandwidth(arch: ArchSpec, register: int, seed: int) -> float:
    """Saturating streaming-store bandwidth at one register setting.

    Forks several threads, each streaming through part of a region with
    non-temporal stores — the paper's SSE-streaming helper (Section 3.1).
    """
    stream_threads = 4
    bytes_per_thread = 64 * MIB
    lines = bytes_per_thread // 64

    def body(ctx):
        region = ctx.malloc(bytes_per_thread, label="calibration-stream")
        yield MemBatch(
            region,
            accesses=lines * 8,
            pattern=PatternKind.SEQUENTIAL,
            stride_bytes=8,
            is_store=True,
            non_temporal=True,
        )

    with Testbed(arch, seed) as testbed:
        testbed.machine.controller(0).program_throttle_register(
            register, privileged=True
        )
        elapsed = _run_threads(testbed.os, [body] * stream_threads)
    if elapsed <= 0:
        raise CalibrationError("streaming measurement produced zero duration")
    return stream_threads * bytes_per_thread / elapsed


#: Bump when the measurement methodology or the file layout changes;
#: older cache files are then ignored (treated as misses).
CALIBRATION_CACHE_SCHEMA = 1

_CACHE: dict[tuple[str, int, int], CalibrationData] = {}


@dataclass
class CalibrationCacheCounters:
    """Observability for the two calibration cache layers."""

    #: Served from the process-local dict.
    memory_hits: int = 0
    #: Served from the on-disk JSON cache.
    disk_hits: int = 0
    #: Full measurement runs (cold or refreshed).
    measurements: int = 0
    #: Disk files rejected (corrupt, stale schema, fingerprint mismatch).
    rejected_files: int = 0

    def snapshot(self) -> tuple[int, int, int, int]:
        return (
            self.memory_hits, self.disk_hits,
            self.measurements, self.rejected_files,
        )


#: Process-global counters; reset with :func:`reset_cache_counters`.
cache_counters = CalibrationCacheCounters()


def reset_cache_counters() -> None:
    """Zero the calibration-cache counters (test/CLI hook).

    Mutates in place so references imported elsewhere stay live.
    """
    cache_counters.memory_hits = 0
    cache_counters.disk_hits = 0
    cache_counters.measurements = 0
    cache_counters.rejected_files = 0


def calibration_cache_dir() -> Path:
    """Directory holding persisted calibration files.

    ``QUARTZ_REPRO_CACHE_DIR`` overrides; otherwise XDG semantics
    (``$XDG_CACHE_HOME/quartz-repro`` or ``~/.cache/quartz-repro``).
    """
    override = os.environ.get("QUARTZ_REPRO_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "quartz-repro"


def arch_fingerprint(arch: ArchSpec) -> str:
    """Stable digest of everything that feeds the measurement.

    Any change to the architecture spec (latencies, cache geometry,
    counter fidelity, ...) changes the fingerprint and invalidates the
    persisted calibration for that testbed.
    """
    payload = json.dumps(dataclasses.asdict(arch), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _cache_path(arch: ArchSpec, seed: int, bandwidth_points: int) -> Path:
    return calibration_cache_dir() / (
        f"calibration-{arch.name}-{arch_fingerprint(arch)}"
        f"-s{seed}-b{bandwidth_points}"
        f".v{CALIBRATION_CACHE_SCHEMA}.json"
    )


def _load_cached(
    arch: ArchSpec, seed: int, bandwidth_points: int
) -> Optional[CalibrationData]:
    """Load one persisted calibration; any defect is a miss, not a crash."""
    path = _cache_path(arch, seed, bandwidth_points)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except (OSError, ValueError, UnicodeDecodeError):
        cache_counters.rejected_files += 1
        return None
    try:
        if payload["schema"] != CALIBRATION_CACHE_SCHEMA:
            raise ValueError("schema mismatch")
        if payload["fingerprint"] != arch_fingerprint(arch):
            raise ValueError("fingerprint mismatch")
        if payload["seed"] != seed or payload["bandwidth_points"] != bandwidth_points:
            raise ValueError("key mismatch")
        table = tuple(
            (int(register), float(rate))
            for register, rate in payload["bandwidth_table"]
        )
        if not table:
            raise ValueError("empty bandwidth table")
        return CalibrationData(
            arch_name=str(payload["arch_name"]),
            dram_local_ns=float(payload["dram_local_ns"]),
            dram_remote_ns=float(payload["dram_remote_ns"]),
            l3_ns=float(payload["l3_ns"]),
            bandwidth_table=table,
        )
    except (KeyError, TypeError, ValueError):
        cache_counters.rejected_files += 1
        return None


def _store_cached(
    arch: ArchSpec, seed: int, bandwidth_points: int, data: CalibrationData
) -> None:
    """Persist atomically; an unwritable cache dir is not an error."""
    path = _cache_path(arch, seed, bandwidth_points)
    payload = {
        "schema": CALIBRATION_CACHE_SCHEMA,
        "fingerprint": arch_fingerprint(arch),
        "arch_name": data.arch_name,
        "seed": seed,
        "bandwidth_points": bandwidth_points,
        "dram_local_ns": data.dram_local_ns,
        "dram_remote_ns": data.dram_remote_ns,
        "l3_ns": data.l3_ns,
        "bandwidth_table": [list(point) for point in data.bandwidth_table],
    }
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        # Temp file in the same directory so os.replace stays atomic.
        handle = tempfile.NamedTemporaryFile(
            mode="w", encoding="utf-8", dir=path.parent,
            prefix=path.name + ".", suffix=".tmp", delete=False,
        )
        with handle:
            json.dump(payload, handle)
        os.replace(handle.name, path)
    except OSError:
        return


def calibrate_arch(
    arch: ArchSpec,
    seed: int = 0,
    bandwidth_points: int = 9,
    use_cache: bool = True,
    refresh: bool = False,
) -> CalibrationData:
    """Measure one architecture's constants (cached per seed).

    ``use_cache=False`` bypasses both cache layers and stores nothing;
    ``refresh=True`` ignores existing entries but overwrites them with
    the fresh measurement (the ``quartz-repro calibrate --refresh``
    escape hatch).
    """
    key = (arch.name, seed, bandwidth_points)
    if use_cache and not refresh:
        if key in _CACHE:
            cache_counters.memory_hits += 1
            return _CACHE[key]
        cached = _load_cached(arch, seed, bandwidth_points)
        if cached is not None:
            cache_counters.disk_hits += 1
            _CACHE[key] = cached
            return cached
    cache_counters.measurements += 1
    dram_local = _measure_chase_latency(
        arch, node=0, footprint_bytes=4 * GIB, accesses=20_000, seed=seed
    )
    dram_remote = _measure_chase_latency(
        arch, node=1, footprint_bytes=4 * GIB, accesses=20_000, seed=seed + 1
    )
    # L3 latency: a chase footprint far beyond L2 but well inside LLC.
    l3 = _measure_chase_latency(
        arch, node=0, footprint_bytes=8 * MIB, accesses=20_000, seed=seed + 2
    )
    if not dram_local < dram_remote:
        raise CalibrationError(
            f"calibration nonsense: local {dram_local} >= remote {dram_remote}"
        )
    registers = [
        round(index * THROTTLE_REGISTER_MAX / (bandwidth_points - 1))
        for index in range(bandwidth_points)
    ]
    table = tuple(
        (register, _measure_bandwidth(arch, register, seed=seed + 10 + register))
        for register in registers
    )
    data = CalibrationData(
        arch_name=arch.name,
        dram_local_ns=dram_local,
        dram_remote_ns=dram_remote,
        l3_ns=l3,
        bandwidth_table=table,
    )
    if use_cache:
        _CACHE[key] = data
        _store_cached(arch, seed, bandwidth_points, data)
    return data
