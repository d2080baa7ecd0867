"""Command-line interface: regenerate any paper table or figure.

Examples::

    quartz-repro list
    quartz-repro run figure12
    quartz-repro run figure11 --arch ivy-bridge --trials 2
    quartz-repro run figure16-latency -o fig16.txt
    quartz-repro run figure12 --format json --out fig12.json
    quartz-repro run figure12 --trace-out fig12-epochs.jsonl
    quartz-repro trace summarize fig12-epochs.jsonl
    quartz-repro run crash-check --workload graph500 --mutant missing-flush
    quartz-repro run explore-check --workload disjoint-locks --no-prune
    quartz-repro run service-latency --fast
    quartz-repro run sweep-latency-grid --scale smoke --journal grid
    quartz-repro status --journal grid
    quartz-repro calibrate --arch haswell

``run`` is the one verb for every registry experiment.  ``--fast``
starts from the experiment's minimum-scale preset (``FAST_KWARGS``);
every other flag overlays the keyword argument of the same name, and a
flag the driver has no parameter for prints a ``note:`` instead.
``--journal D`` checkpoints a sweep grid in D; the same command run
again resumes it, re-executing only the specs not yet checkpointed.

With ``--format json`` the experiment document (rows + provenance
manifest + runner telemetry; see ``repro.validation.export``) is the
*only* stdout output — progress and summary lines move to stderr — so
the command pipes cleanly into ``jq`` and friends.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import time
from dataclasses import replace
from typing import Optional, Sequence

from repro.errors import (
    FaultPlanError,
    InvariantViolation,
    QuartzError,
    RunInterrupted,
    ValidationError,
    WorkloadError,
)
from repro.faults import FaultPlan, clear_active_faults, set_active_faults
from repro.hw.arch import ArchSpec, arch_by_name
from repro.quartz.calibration import calibrate_arch
from repro.validation import export
from repro.validation.experiments import (
    DEFAULT_EXPLORE_PLAN,
    REGISTRY,
    manifest_sections,
)
from repro.validation.experiments.crash import MUTANT_AXIS
from repro.validation.experiments.fast import FAST_KWARGS
from repro.validation.experiments.sweeps import sweep_status
from repro.validation.reporting import render_table
from repro.validation.runner import (
    close_trace_out,
    consume_run_stats,
    default_cli_jobs,
    reset_run_stats,
    set_trace_out,
)


def _positive_int(text: str) -> int:
    """argparse type of every count flag (``--jobs``, ``--trials``, ...)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _arch(name: str) -> ArchSpec:
    """argparse type of ``--arch``: a processor family name or alias."""
    try:
        return arch_by_name(name)
    except KeyError as error:
        raise argparse.ArgumentTypeError(error.args[0]) from None


def _parse_tier_ladder(spec: str) -> tuple:
    """argparse type of ``--tiers``: 'read/write,read/write,...' ns pairs.

    A bare number is accepted per tier as symmetric read==write.
    """
    ladder = []
    for index, chunk in enumerate(spec.split(",")):
        chunk = chunk.strip()
        try:
            if "/" in chunk:
                read_text, write_text = chunk.split("/", 1)
                pair = (float(read_text), float(write_text))
            else:
                pair = (float(chunk), float(chunk))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"cannot parse tier {index + 1} from {chunk!r} "
                "(expected 'read/write' latencies in ns, e.g. '400/600')"
            ) from None
        ladder.append(pair)
    return tuple(ladder)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quartz-repro",
        description=(
            "Reproduction of 'Quartz: A Lightweight Performance Emulator "
            "for Persistent Memory Software' (Middleware 2015)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run = subparsers.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=sorted(REGISTRY), metavar="experiment")
    run.add_argument(
        "--jobs",
        type=_positive_int,
        help=(
            "worker processes for the run grid (default: QUARTZ_REPRO_JOBS "
            "or all cores; results are identical for any job count)"
        ),
    )
    run.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help=(
            "output format: the ASCII table, or the schema-versioned JSON "
            "export document (default: table)"
        ),
    )
    run.add_argument(
        "-o", "--output", "--out",
        dest="output",
        help="also write the rendered output (current --format) to a file",
    )
    run.add_argument(
        "--faults",
        help=(
            "run under deterministic fault injection; semicolon-separated "
            "clauses, e.g. 'seed(7); signal-delay(ns=2e6, p=1.0); "
            "timer-jitter(rel=0.01)' — see repro.faults.plan for the "
            "full grammar"
        ),
    )
    run.add_argument(
        "--check-invariants",
        action="store_true",
        help=(
            "attach the runtime invariant monitor (clock monotonicity, "
            "delay conservation, split proportionality); the run aborts "
            "with exit code 3 at the first violation"
        ),
    )
    run.add_argument(
        "--arch",
        type=_arch,
        help="restrict to one processor family (where the experiment allows)",
    )
    run.add_argument(
        "--trials", type=_positive_int, help="trial count (where the experiment allows)"
    )
    run.add_argument(
        "--trace-out",
        help=(
            "stream every emulated (Conf_1) run's epoch closes to this "
            "JSONL file (forces in-process execution; reload with "
            "'quartz-repro trace summarize')"
        ),
    )
    run.add_argument(
        "--tiers",
        type=_parse_tier_ladder,
        help=(
            "emulated memory-tier ladder for the multi-tier experiments: "
            "comma-separated read/write latency pairs in ns, fastest "
            "first, e.g. '250/350,400/600,700/1100' (tier 0, the local "
            "DRAM, is implicit)"
        ),
    )
    run.add_argument(
        "--fast",
        action="store_true",
        help=(
            "start from the experiment's minimum-scale preset (seconds, "
            "not minutes); the other flags overlay it"
        ),
    )
    run.add_argument(
        "--workload",
        help=(
            "workload to check (crash-check: kvstore, graph500; "
            "explore-check: also the mutex-log and disjoint-locks litmus "
            "tests)"
        ),
    )
    run.add_argument(
        "--mutant",
        choices=MUTANT_AXIS,
        help=(
            "run one protocol variant: the correct protocol ('none') or a "
            "seeded bug (default: the experiment's whole mutant axis)"
        ),
    )
    run.add_argument(
        "--shards",
        type=_positive_int,
        help=(
            "ways to split a crash or explore run (fixed per invocation, "
            "so results are identical for any --jobs value)"
        ),
    )
    run.add_argument("--seed", type=int, help="run seed")
    run.add_argument(
        "--no-prune",
        action="store_true",
        default=None,
        help=(
            "explore-check: walk the full interleaving tree without "
            "sleep-set pruning (the soundness baseline; slower, same "
            "verdict)"
        ),
    )
    run.add_argument(
        "--scale", help="sweep grid scale: smoke, small or large (default: small)"
    )
    run.add_argument(
        "--journal",
        help=(
            "checkpoint a sweep grid in this directory (journal.jsonl + "
            "results.jsonl); re-running the same command resumes it"
        ),
    )
    run.add_argument(
        "--interrupt-after",
        type=_positive_int,
        help=(
            "with --journal: interrupt the sweep after N fresh "
            "completions are checkpointed (exit 130; a deterministic "
            "crash point for resume tests)"
        ),
    )

    calibrate = subparsers.add_parser(
        "calibrate", help="print the calibration data for a testbed"
    )
    calibrate.add_argument("--arch", type=_arch, default="ivy-bridge")
    calibrate.add_argument(
        "--refresh",
        action="store_true",
        help="re-measure even when a cached calibration exists",
    )

    status = subparsers.add_parser(
        "status", help="print a journaled sweep's progress"
    )
    status.add_argument(
        "--journal", required=True, help="sweep journal directory"
    )

    trace = subparsers.add_parser(
        "trace", help="inspect a JSONL epoch trace (--trace-out output)"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="reload a JSONL trace and reprint the Section 3.2 summary",
    )
    summarize.add_argument("path", help="JSONL trace file")
    summarize.add_argument(
        "--max-records",
        type=_positive_int,
        default=None,
        help=(
            "apply an in-memory record cap while reloading (matches a "
            "live EpochTrace's max_records)"
        ),
    )
    return parser


#: ``run`` flags that set one driver parameter each, when given:
#: ``(flag dest, parameter, value -> argument or None for as-is)``.
_PARAMETER_FLAGS = (
    ("scale", "scale", None),
    ("trials", "trials", None),
    ("workload", "workload", None),
    ("mutant", "mutants", lambda mutant: (mutant,)),
    ("shards", "shards", None),
    ("seed", "seed", None),
    ("no_prune", "explore_plan",
     lambda _: replace(DEFAULT_EXPLORE_PLAN, prune=False)),
    ("journal", "sweep_dir", None),
    ("interrupt_after", "interrupt_after", None),
)

#: Flags that say where a run checkpoints, not what it computes: the
#: knobs leave them out, as they leave out ``--jobs``, so a journaled,
#: a resumed and an inline export of one grid are the same document.
_UNRECORDED_FLAGS = ("journal", "interrupt_after")


def _driver_kwargs(
    experiment: str, driver, args: argparse.Namespace
) -> dict:
    """Map CLI flags onto whichever keyword arguments the driver accepts.

    Flags a driver has no parameter for produce a stderr note instead of
    a ``TypeError`` mid-run.
    """
    parameters = inspect.signature(driver).parameters
    kwargs: dict = {}
    if args.tiers:
        # The sweep takes named ladders; the policy study takes one.
        if "tier_sets" in parameters:
            kwargs["tier_sets"] = {"cli": args.tiers}
        elif "read_write_ns" in parameters:
            kwargs["read_write_ns"] = args.tiers
        else:
            print(
                f"note: {experiment} does not take --tiers",
                file=sys.stderr,
            )
    if args.arch:
        # Drivers take either a single arch or a sequence of them.
        if "arch" in parameters:
            kwargs["arch"] = args.arch
        elif "archs" in parameters:
            kwargs["archs"] = [args.arch]
        else:
            print(
                f"note: {experiment} does not take an architecture",
                file=sys.stderr,
            )
    for flag, parameter, convert in _PARAMETER_FLAGS:
        value = getattr(args, flag)
        if value is None:
            continue
        if parameter in parameters:
            kwargs[parameter] = convert(value) if convert else value
        else:
            print(
                f"note: {experiment} does not take --{flag.replace('_', '-')}",
                file=sys.stderr,
            )
    if "jobs" in parameters:
        kwargs["jobs"] = args.run_jobs
        if args.trace_out:
            if kwargs["jobs"] != 1:
                print(
                    "note: --trace-out streams from in-process runs; "
                    "forcing --jobs 1",
                    file=sys.stderr,
                )
            kwargs["jobs"] = 1
    elif args.jobs is not None:
        print(
            f"note: {experiment} does not take --jobs (runs in-process)",
            file=sys.stderr,
        )
    return kwargs


def _run_kwargs(args: argparse.Namespace) -> tuple[str, dict, dict]:
    """``run <experiment>``: the registry driver under the CLI flags,
    which overlay the experiment's fast preset with ``--fast``."""
    experiment = args.experiment
    kwargs = FAST_KWARGS[experiment]() if args.fast else {}
    kwargs.update(_driver_kwargs(experiment, REGISTRY[experiment], args))
    knobs = {
        "command": "run",
        "experiment": experiment,
        "preset": "fast" if args.fast else None,
        "arch": args.arch and args.arch.name,
        **{
            flag: getattr(args, flag)
            for flag, _, _ in _PARAMETER_FLAGS
            if flag not in _UNRECORDED_FLAGS
        },
        "check_invariants": bool(args.check_invariants),
    }
    return experiment, kwargs, knobs


def _render(args: argparse.Namespace, result, stats, **manifest) -> str:
    """Write *result* to stdout in ``--format``; returns the text."""
    if args.format == "json":
        document = export.build_document(
            result,
            export.build_manifest(stats=stats, **manifest),
            telemetry=stats.telemetry() if stats is not None else None,
        )
        rendered = export.dumps_document(document)
    else:
        rendered = render_table(result) + "\n"
    sys.stdout.write(rendered)
    return rendered


def _finish(args: argparse.Namespace, rendered: str, lines: list) -> None:
    """Print the trailing info *lines*, then honour ``--out``."""
    # In JSON mode stdout carries the document and nothing else.
    info = sys.stderr if args.format == "json" else sys.stdout
    for line in lines:
        print(line, file=info)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"written to {args.output}", file=info)


def _summary(stats) -> list:
    # A resume that reuses every checkpoint runs nothing but still has
    # its sweep counts to report.
    if stats is None or not (stats.runs or stats.specs_skipped):
        return []
    return [stats.summary()]


def _check_writable(path: str) -> None:
    """Raise ``OSError`` before the run, not after it, if *path* cannot
    be written; leaves the file system as it found it."""
    existed = os.path.exists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


def _emit(
    args: argparse.Namespace, experiment_id: str, kwargs: dict, knobs: dict
) -> int:
    """Run one registry experiment and emit it (``run``'s whole path).

    Reset stats → run the driver → build the manifest (its plan sections
    derived from the experiment id and kwargs) → render → summary →
    ``--out`` → verdict.  Exit codes: 0 success; 2 a malformed
    ``--faults`` plan, an unwritable ``--out``/``--trace-out`` path or
    ``--journal`` directory, a journal of another grid, or a
    configuration the run rejects (``ValidationError``,
    ``QuartzError``, ``WorkloadError``); 3 an invariant violated (the
    run aborts at the first one); 4 a result row failed its oracle
    (``ok`` false); 130 interrupted, after the partial runner summary
    (and, for a journaled sweep, the command that resumes it).
    """
    fault_plan = None
    if args.faults:
        try:
            fault_plan = FaultPlan.parse(args.faults)
        except FaultPlanError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    check_invariants = args.check_invariants
    try:
        if args.output:
            _check_writable(args.output)
        if args.trace_out:
            set_trace_out(args.trace_out)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if fault_plan is not None or check_invariants:
        set_active_faults(fault_plan, check_invariants)
    reset_run_stats()
    started = time.perf_counter()
    try:
        try:
            result = REGISTRY[experiment_id](**kwargs)
        finally:
            trace_info = close_trace_out()
            clear_active_faults()
    except InvariantViolation as error:
        print(f"error: {error}", file=sys.stderr)
        hint = (
            "; re-run without --check-invariants to observe the raw "
            "(faulted) behaviour" if check_invariants else ""
        )
        print(
            f"the run aborted at the first violated invariant{hint}",
            file=sys.stderr,
        )
        return 3
    except (ValidationError, QuartzError, WorkloadError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except RunInterrupted as interrupt:
        print(f"interrupted: {interrupt}", file=sys.stderr)
        for line in _summary(consume_run_stats()):
            print(line, file=sys.stderr)
        if "sweep_dir" in kwargs:
            scale = kwargs.get("scale") or inspect.signature(
                REGISTRY[experiment_id]
            ).parameters["scale"].default
            print(
                f"resume with: quartz-repro run {experiment_id} --scale "
                f"{scale} --journal {kwargs['sweep_dir']}",
                file=sys.stderr,
            )
        return 130
    wall_s = time.perf_counter() - started
    stats = consume_run_stats()
    rendered = _render(
        args, result, stats, knobs=knobs,
        faults=fault_plan.to_dict() if fault_plan is not None else None,
        **manifest_sections(experiment_id, kwargs, knobs.get("preset")),
    )
    lines = [f"\n(completed in {wall_s:.1f}s wall time)", *_summary(stats)]
    if trace_info is not None:
        path, runs, records = trace_info
        lines.append(
            f"epoch trace: {records} record(s) across {runs} emulated "
            f"run(s) written to {path}"
        )
    _finish(args, rendered, lines)
    failed = [row for row in result.rows if not row.get("ok", True)]
    for row in failed:
        print(
            f"error: {experiment_id} expectation failed for "
            f"{row['workload']}/{row['mutant']}: expected "
            f"{row['expected']} violation(s), got {row['violations']}",
            file=sys.stderr,
        )
    return 4 if failed else 0


def _journal_status(args: argparse.Namespace) -> int:
    """``status``: a journaled sweep's progress (exit 2 if none)."""
    try:
        status = sweep_status(args.journal)
    except ValidationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"sweep: {status['name']} (knobs: {status['knobs']})")
    print(
        f"progress: {status['done']}/{status['total']} spec(s) "
        f"checkpointed, {status['remaining']} remaining"
    )
    print(f"grid digest: {status['grid_digest']}")
    print(f"journal: {status['journal']}")
    return 0


def _list_experiments() -> int:
    print("available experiments (see DESIGN.md for the paper mapping):")
    for name in sorted(REGISTRY):
        doc = (REGISTRY[name].__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"  {name:24s} {summary}")
    return 0


def _calibrate(args: argparse.Namespace) -> int:
    data = calibrate_arch(args.arch, refresh=args.refresh)
    print(f"calibration for {args.arch.model} ({args.arch.family}):")
    print(f"  local DRAM latency : {data.dram_local_ns:8.2f} ns")
    print(f"  remote DRAM latency: {data.dram_remote_ns:8.2f} ns")
    print(f"  L3 latency         : {data.l3_ns:8.2f} ns")
    print(f"  W ratio (local)    : {data.w_local:8.2f}")
    print(f"  peak bandwidth     : {data.peak_bandwidth:8.2f} GB/s")
    print("  throttle-register bandwidth table:")
    for register, rate in data.bandwidth_table:
        print(f"    {register:5d} -> {rate:6.2f} GB/s")
    return 0


def _trace_summarize(args: argparse.Namespace) -> int:
    from repro.quartz.trace import summarize_trace_jsonl

    try:
        print(summarize_trace_jsonl(args.path, max_records=args.max_records))
    except QuartzError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        # --jobs stays as given, for the drivers that note it; the count
        # every run uses is resolved once, here.
        try:
            args.run_jobs = args.jobs or default_cli_jobs()
        except ValidationError as error:
            parser.error(str(error))
        if args.interrupt_after is not None and args.journal is None:
            # Without a journal an interrupt only throws the runs away.
            parser.error("--interrupt-after needs --journal")
        return _emit(args, *_run_kwargs(args))
    if args.command == "status":
        return _journal_status(args)
    if args.command == "list":
        return _list_experiments()
    if args.command == "calibrate":
        return _calibrate(args)
    if args.command == "trace":
        return _trace_summarize(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
