"""Recovery validation: replaying crash images against invariants.

A :class:`RecoverableWorkload` pairs a workload body with the two things
crash-consistency checking needs and performance emulation never did:

* a declared set of **invariants** the durable image must satisfy at any
  instant (e.g. "every committed key has a durable value");
* a pure ``recover(image)`` routine that inspects one
  :class:`~repro.pmem.domain.CrashImage` exactly as a restart would read
  real NVM, and reports every invariant violation it finds.

The built-in **mutant modes** are the subsystem's own regression oracle:
``missing-flush`` drops the data flush (values stay dirty forever while
the header claims them committed) and ``misordered-barrier`` commits the
header *before* the data it indexes.  A correct checker reports zero
violations on the unmutated workload and at least one on each mutant —
that asymmetry is asserted in CI, so the checker cannot silently decay
into a rubber stamp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Protocol, TYPE_CHECKING

from repro.errors import WorkloadError
from repro.pmem.crash import CrashInjector, CrashPlan
from repro.pmem.domain import CrashImage, PersistenceDomain
from repro.workloads.graph500 import RecoverableGraph500
from repro.workloads.kvstore import RecoverableKvStore

if TYPE_CHECKING:
    from repro.os.system import SimOS

#: Mutant modes every recoverable workload must implement (plus ``None``
#: for the correct protocol).
MUTANTS = ("missing-flush", "misordered-barrier")

#: Violation records stored verbatim per run; the full count is always
#: reported, the records are capped so exports stay small.
MAX_RECORDED_VIOLATIONS = 20


class RecoverableWorkload(Protocol):
    """What the checker requires of a crash-checkable workload."""

    workload_id: str

    def invariants(self) -> tuple:
        """Names of the durable-state invariants ``recover`` enforces."""

    def body_factory(
        self, domain: PersistenceDomain, out: dict
    ) -> Callable[..., Iterator]:
        """The workload body, wired to record content into *domain*."""

    def recover(self, image: CrashImage) -> list:
        """Replay recovery against one crash image.

        Returns one ``{"invariant": ..., "detail": ...}`` dict per
        violation (empty list = recovery succeeds at this point).
        """


#: Workload id -> ``builder(config, mutant)`` for crash-checkable bodies.
PM_WORKLOADS: dict[str, Callable] = {
    "kvstore": RecoverableKvStore,
    "graph500": RecoverableGraph500,
}


def build_recoverable(
    workload_id: str, config: Any, mutant: Optional[str] = None
) -> RecoverableWorkload:
    """Instantiate a registered recoverable workload."""
    if workload_id not in PM_WORKLOADS:
        raise WorkloadError(
            f"no recoverable implementation for workload {workload_id!r} "
            f"(have: {sorted(PM_WORKLOADS)})"
        )
    if mutant is not None and mutant not in MUTANTS:
        raise WorkloadError(
            f"unknown mutant {mutant!r} (have: {MUTANTS})"
        )
    return PM_WORKLOADS[workload_id](config, mutant)


@dataclass
class CrashCheckReport:
    """Picklable result of one crash-checked run (or one shard of it)."""

    workload: str
    mutant: Optional[str]
    #: Crash points enumerated (identical in every shard of a run).
    points: int
    #: Crash images this shard stored and replayed recovery against.
    checked: int
    #: Whether enumeration hit the plan's ``max_points`` cap.
    capped: bool
    invariants: tuple = ()
    #: Total violations across every checked image.
    violation_total: int = 0
    #: First :data:`MAX_RECORDED_VIOLATIONS` violation records, each
    #: ``{crash_index, time_ns, trigger, invariant, detail}``.
    violations: list = field(default_factory=list)
    domain_stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "mutant": self.mutant,
            "points": self.points,
            "checked": self.checked,
            "capped": self.capped,
            "invariants": list(self.invariants),
            "violation_total": self.violation_total,
            "violations": list(self.violations),
            "domain_stats": dict(self.domain_stats),
        }


def check_workload(
    os: "SimOS",
    workload_id: str,
    config: Any,
    crash_plan: CrashPlan,
    run_seed: int = 0,
    shard: int = 0,
    shards: int = 1,
    mutant: Optional[str] = None,
    out: Optional[dict] = None,
) -> tuple[CrashCheckReport, Any, float]:
    """Drive one crash-checked run end to end.

    Attaches a fresh :class:`PersistenceDomain` and
    :class:`CrashInjector` to an already-built (and, if emulating,
    already-attached) OS, runs the recoverable workload body to
    completion, then replays recovery against every stored crash image.

    Returns ``(report, workload result, elapsed sim ns)``.
    """
    workload = build_recoverable(workload_id, config, mutant)
    domain = PersistenceDomain()
    domain.install(os.sim.hooks)
    injector = CrashInjector(
        domain, crash_plan, run_seed=run_seed, shard=shard, shards=shards
    )
    injector.install(os.sim)
    out = {} if out is None else out
    start = os.sim.now
    os.create_thread(workload.body_factory(domain, out), name="main")
    os.run_to_completion()
    elapsed = os.sim.now - start

    total = 0
    records: list = []
    for image in injector.images:
        for issue in workload.recover(image):
            total += 1
            if len(records) < MAX_RECORDED_VIOLATIONS:
                records.append(
                    {
                        "crash_index": image.index,
                        "time_ns": image.time_ns,
                        "trigger": image.trigger,
                        "invariant": issue["invariant"],
                        "detail": issue["detail"],
                    }
                )
    report = CrashCheckReport(
        workload=workload_id,
        mutant=mutant,
        points=injector.points,
        checked=len(injector.images),
        capped=injector.points >= crash_plan.max_points,
        invariants=tuple(workload.invariants()),
        violation_total=total,
        violations=records,
        domain_stats=domain.stats(),
    )
    return report, out.get("result"), elapsed
