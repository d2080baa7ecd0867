"""Seeded, streaming operation traces for the KV service.

One :class:`TraceConfig` describes the whole offered load: how many
tenants, each tenant's (disjoint) key space, the key popularity
distribution (YCSB-style zipfian or uniform), the operation mix (the
YCSB A-F presets), and optional open-loop arrival pacing.

:func:`operation_stream` generates one client's operations lazily — a
trace over millions of keys never materialises; memory use is O(1) in
the operation count.  Streams are pure functions of
``(config.seed, tenant, client)`` using arithmetic seed derivation (no
string hashing, which Python salts per process), so the same config
yields byte-identical operations in every worker of a parallel run.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

from repro.errors import WorkloadError

#: Operation kinds a trace can emit.
OP_KINDS = ("read", "update", "insert", "scan", "rmw")

#: The YCSB core workload mixes (kind -> probability), A through F.
#: D's "latest" and E's "scan" distributions are approximated with the
#: configured key distribution; the *mix* ratios are the YCSB ones.
MIXES: dict[str, tuple] = {
    "ycsb-a": (("read", 0.5), ("update", 0.5)),
    "ycsb-b": (("read", 0.95), ("update", 0.05)),
    "ycsb-c": (("read", 1.0),),
    "ycsb-d": (("read", 0.95), ("insert", 0.05)),
    "ycsb-e": (("scan", 0.95), ("insert", 0.05)),
    "ycsb-f": (("read", 0.5), ("rmw", 0.5)),
}

DISTRIBUTIONS = ("zipfian", "uniform")


class TraceOp(NamedTuple):
    """One service operation, fully determined by the trace stream.

    ``scan_len`` is 1 for point operations; ``gap_ns`` is the open-loop
    inter-arrival think time before issuing (0.0 under closed loop).
    """

    tenant: int
    kind: str
    key: int
    scan_len: int
    gap_ns: float


@dataclass(frozen=True)
class TraceConfig:
    """The offered load of one service run."""

    tenants: int = 2
    #: Operations per tenant (split across the tenant's clients).
    ops_per_tenant: int = 2_000
    #: Size of each tenant's private key space; tenant *t* owns global
    #: keys ``[t * keys_per_tenant, (t+1) * keys_per_tenant)``.
    keys_per_tenant: int = 100_000
    distribution: str = "zipfian"
    #: Zipfian skew (YCSB's theta; 0 -> uniform, 0.99 -> YCSB default).
    zipf_theta: float = 0.99
    mix: str = "ycsb-a"
    max_scan_len: int = 64
    #: Open-loop arrival rate per client (ops/s); ``None`` = closed loop.
    arrival_rate_ops_s: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise WorkloadError(f"need at least one tenant: {self.tenants}")
        if self.ops_per_tenant < 1:
            raise WorkloadError("ops_per_tenant must be positive")
        if self.keys_per_tenant < 1:
            raise WorkloadError("keys_per_tenant must be positive")
        if self.distribution not in DISTRIBUTIONS:
            raise WorkloadError(
                f"unknown distribution {self.distribution!r} "
                f"(choose from {', '.join(DISTRIBUTIONS)})"
            )
        if not 0.0 <= self.zipf_theta < 1.0:
            raise WorkloadError(
                f"zipf theta must be in [0, 1): {self.zipf_theta}"
            )
        if self.mix not in MIXES:
            raise WorkloadError(
                f"unknown mix {self.mix!r} "
                f"(choose from {', '.join(sorted(MIXES))})"
            )
        if self.max_scan_len < 1:
            raise WorkloadError("max_scan_len must be positive")
        if self.arrival_rate_ops_s is not None and not (
            0 < self.arrival_rate_ops_s < math.inf
        ):
            raise WorkloadError(
                f"arrival rate must be finite and positive: {self.arrival_rate_ops_s}"
            )

    def to_dict(self) -> dict:
        return {
            "tenants": self.tenants,
            "ops_per_tenant": self.ops_per_tenant,
            "keys_per_tenant": self.keys_per_tenant,
            "distribution": self.distribution,
            "zipf_theta": self.zipf_theta,
            "mix": self.mix,
            "max_scan_len": self.max_scan_len,
            "arrival_rate_ops_s": self.arrival_rate_ops_s,
            "seed": self.seed,
        }


# ----------------------------------------------------------------------
# Zipfian sampling (the YCSB generator)
# ----------------------------------------------------------------------

#: (n, theta) -> zeta(n, theta); the harmonic sum is O(n) once and the
#: grids reuse a handful of (n, theta) pairs thousands of times.
_ZETA_CACHE: dict[tuple, float] = {}


def _zeta(n: int, theta: float) -> float:
    key = (n, theta)
    value = _ZETA_CACHE.get(key)
    if value is None:
        value = 0.0
        for i in range(1, n + 1):
            value += 1.0 / i**theta
        _ZETA_CACHE[key] = value
    return value


def rank_probability(rank: int, n: int, theta: float) -> float:
    """P(key of popularity rank *rank*) under zipfian(``n``, ``theta``).

    The analytic mass function behind the sampler: decreasing in rank,
    and (for rank 0) increasing in theta — the monotonicity properties
    the trace tests pin down.
    """
    if not 0 <= rank < n:
        raise WorkloadError(f"rank {rank} outside [0, {n})")
    return (1.0 / (rank + 1) ** theta) / _zeta(n, theta)


class ZipfianSampler:
    """YCSB's bounded zipfian generator over ranks ``[0, n)``.

    Rank 0 is the most popular key.  Draws exactly one ``random()`` per
    sample from the supplied stream, so interleaving with other draws
    stays deterministic.
    """

    def __init__(self, n: int, theta: float, rng: random.Random):
        if n < 1:
            raise WorkloadError(f"key space must be positive: {n}")
        self.n = n
        self.theta = theta
        self.rng = rng
        self.zetan = _zeta(n, theta)
        self.alpha = 1.0 / (1.0 - theta)
        self.eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (
            1.0 - _zeta(2, theta) / self.zetan
        )

    def sample(self) -> int:
        u = self.rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5**self.theta:
            return min(1, self.n - 1)
        rank = int(self.n * (self.eta * u - self.eta + 1.0) ** self.alpha)
        return min(rank, self.n - 1)


# ----------------------------------------------------------------------
# Stream generation
# ----------------------------------------------------------------------


def _stream_seed(config: TraceConfig, tenant: int, client: int) -> int:
    # Arithmetic derivation (cf. committed_key_sequence): stable across
    # processes, unlike hashing strings or tuples-of-strings.
    return config.seed * 1_000_003 + tenant * 8_191 + client + 1


def client_ops(config: TraceConfig, clients_per_tenant: int, client: int) -> int:
    """How many of a tenant's operations client *client* issues.

    The tenant's budget splits evenly, remainder to the first clients,
    so any client count conserves total operations per tenant.
    """
    if clients_per_tenant < 1:
        raise WorkloadError(f"need at least one client: {clients_per_tenant}")
    if not 0 <= client < clients_per_tenant:
        raise WorkloadError(f"client {client} outside [0, {clients_per_tenant})")
    base, remainder = divmod(config.ops_per_tenant, clients_per_tenant)
    return base + (1 if client < remainder else 0)


def operation_stream(
    config: TraceConfig,
    tenant: int,
    client: int = 0,
    ops: Optional[int] = None,
) -> Iterator[TraceOp]:
    """Generate one client's operations, lazily.

    ``ops`` defaults to the tenant's whole per-tenant budget; the
    service passes each client its :func:`client_ops` share.  The stream
    is a pure function of ``(config, tenant, client)``.
    """
    if not 0 <= tenant < config.tenants:
        raise WorkloadError(f"tenant {tenant} outside [0, {config.tenants})")
    if ops is None:
        ops = config.ops_per_tenant
    rng = random.Random(_stream_seed(config, tenant, client))
    sampler = None
    if config.distribution == "zipfian" and config.zipf_theta > 0.0:
        sampler = ZipfianSampler(config.keys_per_tenant, config.zipf_theta, rng)
    mix = MIXES[config.mix]
    base_key = tenant * config.keys_per_tenant
    for _ in range(ops):
        choice = rng.random()
        kind = mix[-1][0]
        for candidate, probability in mix:
            if choice < probability:
                kind = candidate
                break
            choice -= probability
        if sampler is not None:
            rank = sampler.sample()
        else:
            rank = rng.randrange(config.keys_per_tenant)
        scan_len = 1
        if kind == "scan":
            scan_len = rng.randint(1, config.max_scan_len)
        gap_ns = 0.0
        if config.arrival_rate_ops_s is not None:
            gap_ns = rng.expovariate(config.arrival_rate_ops_s) * 1e9
        yield TraceOp(tenant, kind, base_key + rank, scan_len, gap_ns)


def stream_digest(config: TraceConfig, clients_per_tenant: int = 1) -> str:
    """SHA-256 over every tenant's full operation stream.

    The byte-identity witness the determinism tests pin: two configs
    produce the same digest iff they produce the same operations in the
    same order for every (tenant, client).  Streams are consumed lazily;
    nothing is materialised.
    """
    digest = hashlib.sha256()
    for tenant in range(config.tenants):
        for client in range(clients_per_tenant):
            count = client_ops(config, clients_per_tenant, client)
            for op in operation_stream(config, tenant, client, count):
                digest.update(repr(op).encode("ascii"))
    return digest.hexdigest()
