"""DFS interleaving exploration crossed with exhaustive crash points.

The :class:`Explorer` enumerates the thread interleavings of one small
workload by stateless re-execution: every schedule is a list of *choices*
(candidate indices at each multi-candidate decision point), each explored
schedule is one fresh, fully deterministic simulation, and the DFS walks
the decision tree by replaying a prefix and branching on the next choice.
Points with a single enabled candidate are granted automatically and
consume no choice — only genuine scheduling decisions appear in a
schedule, which is what makes recorded schedules short, replayable, and
stable across equivalent runs.

**Pruning** (optional, on by default) uses sleep sets over the
:func:`~repro.explore.scheduler.boundary_footprint` independence
relation: after a subtree rooted at candidate ``t`` is fully explored,
``t`` sleeps for the remaining siblings and is skipped at equivalent
positions deeper down until a dependent op wakes it.  Sleep sets are also
filtered through *auto-granted* ops (they are transitions too), and a
subtree whose forced single candidate is asleep is terminated as
redundant — both required for soundness, both exercised by the
pruned-vs-unpruned equality tests.

**Crash oracle.**  Every execution runs with a fresh
:class:`~repro.pmem.domain.PersistenceDomain` and a
:class:`~repro.pmem.crash.CrashInjector` subscribed to every commit drain
and every durable persist (``CrashPlan.on_persist``), so each schedule is
checked at every reachable crash point.  Violations are canonicalized to
``(invariant, detail)`` pairs: recovery reads only persisted content, so
Mazurkiewicz-equivalent schedules (which differ in timestamps but not in
any persisted image) report the identical set — the property the
pruned-vs-unpruned tests pin.

**Sharding.**  Shard ``s`` of ``n`` owns the candidates with index
``i % n == s`` at the *first* decision point (shard 0 additionally owns
branch-free runs); subtrees are explored fully within a shard.  Shards
are fixed per invocation, so exports are byte-identical for any
``--jobs`` fan-out, and sleep sets stay intra-shard (less pruning,
still sound).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import WorkloadError
from repro.explore.litmus import build_explorable
from repro.explore.scheduler import (
    ControlledScheduler,
    boundary_footprint,
    describe_boundary,
    independent,
)
from repro.hw.arch import ArchSpec
from repro.hw.machine import Machine
from repro.os.system import SimOS
from repro.pmem.checker import MAX_RECORDED_VIOLATIONS
from repro.pmem.crash import CrashInjector, CrashPlan
from repro.pmem.domain import PersistenceDomain
from repro.sim import Simulator

#: The crash plan explore mode defaults to: exhaustive coverage of every
#: durability transition (no Quartz engine is attached, so epoch closes
#: and random points do not apply).
DEFAULT_EXPLORE_CRASH_PLAN = CrashPlan(
    on_epoch_close=False,
    on_commit=True,
    on_persist=True,
    seed=7,
    max_points=512,
)


@dataclass(frozen=True)
class ExplorePlan:
    """Declarative, picklable description of one exploration."""

    #: Sleep-set (DPOR-style) pruning; turn off for the soundness tests.
    prune: bool = True
    #: Hard cap on executions (re-runs), bounding the whole exploration.
    max_executions: int = 20_000
    #: Hard cap on decision depth per execution (runaway guard).
    max_decisions: int = 400
    #: Simulator event budget per execution.
    event_budget: int = 2_000_000
    #: Crash points checked per execution.
    crash_plan: CrashPlan = field(
        default_factory=lambda: DEFAULT_EXPLORE_CRASH_PLAN
    )
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_executions < 1:
            raise WorkloadError(
                f"need at least one execution: {self.max_executions}"
            )
        if self.max_decisions < 1:
            raise WorkloadError(
                f"need at least one decision: {self.max_decisions}"
            )

    def to_dict(self) -> dict:
        """JSON-safe form (feeds the export manifest)."""
        return {
            "prune": self.prune,
            "max_executions": self.max_executions,
            "max_decisions": self.max_decisions,
            "event_budget": self.event_budget,
            "seed": self.seed,
            "crash_plan": self.crash_plan.to_dict(),
        }


@dataclass
class DecisionNode:
    """One multi-candidate decision point of one execution."""

    #: Thread names offered, ordered by tid (deterministic).
    candidates: tuple
    #: Human-readable boundary labels, aligned with ``candidates``.
    labels: tuple
    #: Footprints, aligned with ``candidates``.
    footprints: tuple
    chosen: int
    #: ``(thread name, footprint)`` of every auto-granted (single
    #: candidate) op between this decision and the next.
    autos_after: list = field(default_factory=list)


@dataclass
class ExecutionRecord:
    """One complete controlled execution (one explored schedule)."""

    choices: list
    decisions: list
    outcome: str  # "completed" | "deadlock"
    #: Canonical ``(invariant, detail)`` pairs over all crash images.
    violations: set
    violation_records: list
    points: int
    images_checked: int
    capped_points: bool
    trace_digest: str
    elapsed_ns: float
    ops_granted: int
    result: Any

    def schedule_steps(self) -> list:
        """The replayable trace: who was chosen at each decision."""
        return [
            {
                "thread": node.candidates[node.chosen],
                "op": node.labels[node.chosen],
                "candidates": list(node.candidates),
            }
            for node in self.decisions
        ]


class _ExecutionBudget(Exception):
    """Raised internally when ``max_executions`` is reached."""


class Explorer:
    """Enumerates interleavings x crash points for one workload config."""

    def __init__(
        self,
        arch: ArchSpec,
        workload_id: str,
        config: Any,
        plan: Optional[ExplorePlan] = None,
        mutant: Optional[str] = None,
        shard: int = 0,
        shards: int = 1,
    ):
        if shards < 1 or not 0 <= shard < shards:
            raise WorkloadError(f"bad shard selector: {shard}/{shards}")
        self.arch = arch
        self.workload_id = workload_id
        self.config = config
        self.plan = plan or ExplorePlan()
        self.mutant = mutant
        self.shard = shard
        self.shards = shards
        # Validate workload id / mutant eagerly (before any execution).
        self._probe = build_explorable(workload_id, config, mutant)
        # Aggregates.
        self.executions = 0
        self.schedules = 0
        self.pruned = 0
        self.deadlocks = 0
        self.points = 0
        self.images_checked = 0
        self.capped = False
        self.decisions_max = 0
        self.violations: dict = {}  # (invariant, detail) -> first record
        self.minimal_failure: Optional[ExecutionRecord] = None
        self.root_result: Any = None
        self.root_elapsed_ns: float = 0.0

    # ------------------------------------------------------------------
    # One controlled execution
    # ------------------------------------------------------------------
    def _execute(self, choices: list, strict: bool = False) -> ExecutionRecord:
        """Run the workload once, following *choices* then defaulting to 0.

        ``strict`` replay raises on any divergence (an out-of-range
        choice or leftover choices); the default clamps indices modulo
        the candidate count, which is what the Hypothesis properties
        drive with arbitrary integer lists.
        """
        if self.executions >= self.plan.max_executions:
            raise _ExecutionBudget()
        self.executions += 1
        workload = build_explorable(self.workload_id, self.config, self.mutant)
        sim = Simulator(seed=self.plan.seed)
        machine = Machine(sim, self.arch, latency_jitter=False)
        os = SimOS(machine, default_cpu_node=0)
        domain = PersistenceDomain()
        domain.install(sim.hooks)
        injector = CrashInjector(
            domain, self.plan.crash_plan, run_seed=self.plan.seed
        )
        injector.install(sim)
        scheduler = ControlledScheduler(os)
        out: dict = {}
        start = sim.now
        os.create_thread(workload.body_factory(domain, out), name="main")

        decisions: list = []
        taken: list = []
        outcome = "completed"
        while True:
            reason = sim.run(max_events=self.plan.event_budget)
            if reason == "max-events":
                raise WorkloadError(
                    f"explore event budget exhausted "
                    f"({self.plan.event_budget} events)"
                )
            if not scheduler.unfinished():
                break
            candidates = scheduler.enabled()
            if not candidates:
                outcome = "deadlock"
                break
            if len(candidates) == 1:
                entry = candidates[0]
                if decisions:
                    decisions[-1].autos_after.append(
                        (entry.thread.name, boundary_footprint(entry.op))
                    )
                scheduler.grant(entry)
                continue
            position = len(taken)
            if position >= self.plan.max_decisions:
                raise WorkloadError(
                    f"decision depth exceeded {self.plan.max_decisions}"
                )
            if position < len(choices):
                index = choices[position]
                if strict:
                    if not 0 <= index < len(candidates):
                        raise WorkloadError(
                            f"schedule replay diverged: choice {index} at "
                            f"decision {position} but only "
                            f"{len(candidates)} candidate(s)"
                        )
                else:
                    index = index % len(candidates)
            else:
                if strict:
                    raise WorkloadError(
                        f"schedule replay diverged: execution needs a "
                        f"choice at decision {position} beyond the "
                        f"recorded schedule"
                    )
                index = 0
            decisions.append(
                DecisionNode(
                    candidates=tuple(e.thread.name for e in candidates),
                    labels=tuple(describe_boundary(e.op) for e in candidates),
                    footprints=tuple(
                        boundary_footprint(e.op) for e in candidates
                    ),
                    chosen=index,
                )
            )
            taken.append(index)
            scheduler.grant(candidates[index])
        if strict and len(choices) != len(taken):
            raise WorkloadError(
                f"schedule replay diverged: {len(choices)} recorded "
                f"choice(s) but only {len(taken)} decision(s) occurred"
            )

        violations: set = set()
        records: list = []
        for image in injector.images:
            for issue in workload.recover(image):
                key = (issue["invariant"], issue["detail"])
                violations.add(key)
                if len(records) < MAX_RECORDED_VIOLATIONS:
                    records.append(
                        {
                            "crash_index": image.index,
                            "trigger": image.trigger,
                            "invariant": issue["invariant"],
                            "detail": issue["detail"],
                        }
                    )
        if outcome == "deadlock":
            detail = "blocked: " + ", ".join(scheduler.blocked_summary())
            violations.add(("deadlock-free", detail))
            records.append(
                {
                    "crash_index": -1,
                    "trigger": "deadlock",
                    "invariant": "deadlock-free",
                    "detail": detail,
                }
            )
        self.decisions_max = max(self.decisions_max, len(decisions))
        return ExecutionRecord(
            choices=taken,
            decisions=decisions,
            outcome=outcome,
            violations=violations,
            violation_records=records,
            points=injector.points,
            images_checked=len(injector.images),
            capped_points=injector.points >= self.plan.crash_plan.max_points,
            trace_digest=scheduler.trace_digest(),
            elapsed_ns=sim.now - start,
            ops_granted=scheduler.ops_granted,
            result=out.get("result"),
        )

    # ------------------------------------------------------------------
    # DFS with sleep sets
    # ------------------------------------------------------------------
    def _finish_leaf(self, record: ExecutionRecord) -> None:
        self.schedules += 1
        self.points += record.points
        self.images_checked += record.images_checked
        if record.outcome == "deadlock":
            self.deadlocks += 1
        if record.capped_points:
            self.capped = True
        for key in record.violations:
            if key not in self.violations:
                matching = [
                    rec
                    for rec in record.violation_records
                    if (rec["invariant"], rec["detail"]) == key
                ]
                self.violations[key] = (
                    matching[0]
                    if matching
                    else {
                        "crash_index": -1,
                        "trigger": "uncaptured",
                        "invariant": key[0],
                        "detail": key[1],
                    }
                )
        if record.violations:
            best = self.minimal_failure
            if best is None or (len(record.choices), record.choices) < (
                len(best.choices),
                best.choices,
            ):
                self.minimal_failure = record

    def _explore_node(
        self, position: int, prefix: list, sleep: dict, record: ExecutionRecord
    ) -> None:
        if position >= len(record.decisions):
            self._finish_leaf(record)
            return
        node = record.decisions[position]
        local_sleep = dict(sleep)
        for index, name in enumerate(node.candidates):
            if (
                position == 0
                and self.shards > 1
                and index % self.shards != self.shard
            ):
                continue  # another shard's subtree
            footprint = node.footprints[index]
            if self.plan.prune and name in local_sleep:
                self.pruned += 1
                continue
            child_prefix = prefix + [index]
            if index == node.chosen:
                child = record
            else:
                child = self._execute(child_prefix)
                if (
                    len(child.decisions) <= position
                    or child.decisions[position].candidates != node.candidates
                ):
                    raise WorkloadError(
                        "nondeterministic candidate set under replay "
                        f"at decision {position} (determinism bug)"
                    )
            child_sleep: dict = {}
            redundant = False
            if self.plan.prune:
                child_sleep = {
                    thread: fp
                    for thread, fp in local_sleep.items()
                    if thread != name and independent(fp, footprint)
                }
                # Auto-granted ops are transitions too: they wake
                # dependent sleepers, and a forced (single-candidate)
                # move by a sleeping thread proves the whole subtree
                # was already covered by an earlier sibling.
                for auto_name, auto_fp in child.decisions[position].autos_after:
                    if auto_name in child_sleep:
                        redundant = True
                        break
                    child_sleep = {
                        thread: fp
                        for thread, fp in child_sleep.items()
                        if independent(fp, auto_fp)
                    }
            if redundant:
                self.pruned += 1
            else:
                self._explore_node(position + 1, child_prefix, child_sleep, child)
            if self.plan.prune:
                local_sleep[name] = footprint
        return

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(self) -> "ExploreReport":
        """Explore this shard's schedule subtree and aggregate the oracle."""
        try:
            root = self._execute([])
            self.root_result = root.result
            self.root_elapsed_ns = root.elapsed_ns
            if not root.decisions:
                if self.shard == 0:
                    self._finish_leaf(root)
            else:
                self._explore_node(0, [], {}, root)
        except _ExecutionBudget:
            self.capped = True
        return self._report()

    def replay(self, choices: list) -> ExecutionRecord:
        """Strictly replay one recorded schedule (raises on divergence)."""
        return self._execute(list(choices), strict=True)

    def _report(self) -> "ExploreReport":
        ordered = sorted(self.violations)
        records = [self.violations[key] for key in ordered]
        minimal = None
        if self.minimal_failure is not None:
            minimal = {
                "choices": list(self.minimal_failure.choices),
                "steps": self.minimal_failure.schedule_steps(),
                "outcome": self.minimal_failure.outcome,
                "violations": sorted(
                    f"{invariant}: {detail}"
                    for invariant, detail in self.minimal_failure.violations
                ),
            }
        return ExploreReport(
            workload=self.workload_id,
            mutant=self.mutant,
            prune=self.plan.prune,
            shard=self.shard,
            shards=self.shards,
            schedules=self.schedules,
            executions=self.executions,
            pruned=self.pruned,
            deadlocks=self.deadlocks,
            decisions_max=self.decisions_max,
            points=self.points,
            images_checked=self.images_checked,
            violation_total=len(self.violations),
            violations=records[:MAX_RECORDED_VIOLATIONS],
            invariants=tuple(self._probe.invariants()),
            minimal_trace=minimal,
            capped=self.capped,
            elapsed_ns=self.root_elapsed_ns,
            result=self.root_result,
        )


@dataclass
class ExploreReport:
    """Picklable result of one exploration (or one shard of it)."""

    workload: str
    mutant: Optional[str]
    prune: bool
    shard: int
    shards: int
    #: Distinct schedules whose full behaviour was checked (leaves).
    schedules: int
    #: Controlled executions performed (>= schedules under pruning).
    executions: int
    #: Branches skipped as redundant by sleep sets.
    pruned: int
    deadlocks: int
    decisions_max: int
    #: Crash points / images, summed over every counted schedule.
    points: int
    images_checked: int
    #: Distinct canonical ``(invariant, detail)`` violations.
    violation_total: int
    violations: list
    invariants: tuple
    #: The minimal failing interleaving as a replayable trace (None if
    #: every schedule passed): ``choices`` feed :meth:`Explorer.replay`.
    minimal_trace: Optional[dict]
    #: True if ``max_executions`` or a crash-point cap was hit — the
    #: exhaustiveness guarantee does NOT hold for a capped report.
    capped: bool
    elapsed_ns: float
    result: Any

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "mutant": self.mutant,
            "prune": self.prune,
            "shard": self.shard,
            "shards": self.shards,
            "schedules": self.schedules,
            "executions": self.executions,
            "pruned": self.pruned,
            "deadlocks": self.deadlocks,
            "decisions_max": self.decisions_max,
            "points": self.points,
            "images_checked": self.images_checked,
            "violation_total": self.violation_total,
            "violations": list(self.violations),
            "invariants": list(self.invariants),
            "minimal_trace": self.minimal_trace,
            "capped": self.capped,
            "elapsed_ns": self.elapsed_ns,
        }


def merge_shard_reports(reports: list) -> dict:
    """Fold one exploration's shard report dicts into a logical whole.

    Shards partition the first-decision candidates, so schedule counts
    and oracle results are disjoint unions; violations dedupe on the
    canonical pair.
    """
    if not reports:
        raise WorkloadError("no shard reports to merge")
    shards = {report["shards"] for report in reports}
    if len(shards) != 1 or len(reports) != shards.pop():
        raise WorkloadError(
            "explore shard reports do not form one partition"
        )
    merged_violations: dict = {}
    for report in reports:
        for record in report["violations"]:
            key = (record["invariant"], record["detail"])
            merged_violations.setdefault(key, record)
    ordered = [merged_violations[key] for key in sorted(merged_violations)]
    minimal = None
    for report in reports:
        trace = report["minimal_trace"]
        if trace is None:
            continue
        rank = (len(trace["choices"]), trace["choices"])
        if minimal is None or rank < (
            len(minimal["choices"]),
            minimal["choices"],
        ):
            minimal = trace
    return {
        "workload": reports[0]["workload"],
        "mutant": reports[0]["mutant"],
        "prune": reports[0]["prune"],
        "schedules": sum(report["schedules"] for report in reports),
        "executions": sum(report["executions"] for report in reports),
        "pruned": sum(report["pruned"] for report in reports),
        "deadlocks": sum(report["deadlocks"] for report in reports),
        "decisions_max": max(report["decisions_max"] for report in reports),
        "points": sum(report["points"] for report in reports),
        "images_checked": sum(
            report["images_checked"] for report in reports
        ),
        "violation_total": len(merged_violations),
        "violations": ordered[:MAX_RECORDED_VIOLATIONS],
        "invariants": reports[0]["invariants"],
        "minimal_trace": minimal,
        "capped": any(report["capped"] for report in reports),
    }
