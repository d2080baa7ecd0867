"""Checkpointed sweeps: journal a grid's results so a cut run resumes.

A sweep runs its grid through the same executor as
:func:`~repro.validation.runner.run_specs` (``runner._run_grid``: one
future per spec, rows merged in submission order through a bounded
out-of-order buffer, ``--jobs``-invariant output).  What this module
adds is the journal:

* **Fingerprinted specs.**  Every :class:`RunSpec` digests to a
  canonical-form fingerprint (:func:`spec_fingerprint` — the export
  machinery's sorted-key minified-JSON convention applied to the spec
  itself), and the ordered fingerprints name the grid
  (:func:`grid_digest`).
* **Checkpoint/resume.**  Each finished run is pickled, digested and
  appended to the journal the moment it completes.  An interrupted
  sweep restarts — the same ``quartz-repro run <id> --journal D``
  again, through :meth:`SweepJournal.open_or_create` — by loading the
  journal's completed-spec records, re-verifying each shard record's
  digest (a tampered or torn record is re-executed, never trusted), and
  running only the remainder.  The
  merged output — and therefore the export digest — is byte-identical
  to an uninterrupted run.

The journal is two append-only JSONL files in a sweep directory:
``journal.jsonl`` (a header record naming the grid, then one ``done``
record per finished spec) and ``results.jsonl`` (one record per finished
spec carrying the pickled :class:`RunResult` base64-encoded plus its
SHA-256).  Append-only means a crash at any point leaves at worst one
torn trailing record, which verification discards.
"""

from __future__ import annotations

import base64
import enum
import hashlib
import json
import pickle
import sys
from dataclasses import dataclass, fields as dataclass_fields, is_dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro.errors import ValidationError
from repro.validation.runner import (
    RunResult,
    RunSpec,
    _run_grid,
    current_run_stats,
)

#: Schema identity of the sweep journal.
SWEEP_SCHEMA = "quartz-repro/sweep-journal"
#: Bump when the journal layout changes incompatibly.
SWEEP_SCHEMA_VERSION = 2

#: Pinned pickle protocol: shard records must verify across interpreter
#: invocations, so the encoding cannot float with the default.
_PICKLE_PROTOCOL = 4

JOURNAL_FILENAME = "journal.jsonl"
SHARD_FILENAME = "results.jsonl"


# ----------------------------------------------------------------------
# Canonical spec fingerprints
# ----------------------------------------------------------------------


def _canonical_value(value) -> object:
    """Encode one spec field as a JSON-stable value.

    Dataclasses and enums keep their identity (class path + fields), so
    two configs that merely *compare* equal but mean different things
    never collide; anything unencodable falls back to the SHA-256 of its
    pinned-protocol pickle (deterministic for deterministically built
    objects — a seeded synthetic graph, a crash plan).
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, enum.Enum):
        return {
            "__enum__": f"{type(value).__module__}.{type(value).__qualname__}",
            "value": _canonical_value(value.value),
        }
    if is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": (
                f"{type(value).__module__}.{type(value).__qualname__}"
            ),
            "fields": {
                spec_field.name: _canonical_value(
                    getattr(value, spec_field.name)
                )
                for spec_field in dataclass_fields(value)
            },
        }
    if isinstance(value, (list, tuple)):
        return [_canonical_value(item) for item in value]
    if isinstance(value, (set, frozenset)):
        encoded = [_canonical_value(item) for item in value]
        return {"__set__": sorted(encoded, key=_sort_key)}
    if isinstance(value, dict):
        pairs = [
            [_canonical_value(key), _canonical_value(item)]
            for key, item in value.items()
        ]
        return {"__mapping__": sorted(pairs, key=lambda pair: _sort_key(pair[0]))}
    if isinstance(value, bytes):
        return {"__bytes__": base64.b64encode(value).decode("ascii")}
    payload = pickle.dumps(value, _PICKLE_PROTOCOL)
    return {"__pickle_sha256__": hashlib.sha256(payload).hexdigest()}


def _sort_key(encoded) -> str:
    return json.dumps(encoded, sort_keys=True, separators=(",", ":"))


def canonical_spec(spec: RunSpec) -> dict:
    """The canonical (JSON-stable) form of one spec."""
    encoded = _canonical_value(spec)
    assert isinstance(encoded, dict)
    return encoded


def spec_fingerprint(spec: RunSpec) -> str:
    """SHA-256 hex digest over the canonical form of one spec."""
    text = json.dumps(
        canonical_spec(spec), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def grid_digest(fingerprints: Sequence[str]) -> str:
    """Identity of a whole ordered grid (order matters: it is the merge
    order, and therefore part of what the output bytes mean)."""
    return hashlib.sha256("\n".join(fingerprints).encode("ascii")).hexdigest()


# ----------------------------------------------------------------------
# The journal
# ----------------------------------------------------------------------


@dataclass
class ShardRecord:
    """One completed spec as the journal knows it."""

    index: int
    fingerprint: str
    digest: str
    offset: int


class SweepJournal:
    """Append-only on-disk state of one sweep (see module docstring).

    ``journal.jsonl`` line 1 is the header; every further line is a
    ``done`` record ``{index, fingerprint, digest, offset}`` pointing at
    the byte offset of the matching record in ``results.jsonl``.  The
    class never rewrites either file; resuming appends.
    """

    def __init__(self, directory: Union[str, Path], header: dict,
                 completed: dict):
        self.directory = Path(directory)
        self.header = header
        #: fingerprint -> :class:`ShardRecord` (latest wins).
        self.completed = completed
        self._journal_handle = None
        self._shard_append = None
        self._shard_read = None

    # -- paths ---------------------------------------------------------
    @property
    def journal_path(self) -> Path:
        return self.directory / JOURNAL_FILENAME

    @property
    def shard_path(self) -> Path:
        return self.directory / SHARD_FILENAME

    # -- lifecycle -----------------------------------------------------
    @classmethod
    def create(
        cls,
        directory: Union[str, Path],
        fingerprints: Sequence[str],
        name: str = "sweep",
        knobs: Optional[dict] = None,
    ) -> "SweepJournal":
        """Start a fresh sweep directory; refuses to clobber one."""
        directory = Path(directory)
        journal_path = directory / JOURNAL_FILENAME
        if journal_path.exists():
            raise ValidationError(
                f"{journal_path}: sweep journal already exists "
                "(open it to resume, or point --journal at a fresh "
                "directory)"
            )
        header = {
            "type": "header",
            "schema": SWEEP_SCHEMA,
            "schema_version": SWEEP_SCHEMA_VERSION,
            "name": name,
            "total": len(fingerprints),
            "grid_digest": grid_digest(fingerprints),
            "knobs": dict(knobs or {}),
        }
        try:
            directory.mkdir(parents=True, exist_ok=True)
            with open(journal_path, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(header, sort_keys=True) + "\n")
            (directory / SHARD_FILENAME).touch()
        except OSError as error:
            raise ValidationError(f"cannot create sweep journal: {error}")
        return cls(directory, header, {})

    @classmethod
    def open(cls, directory: Union[str, Path]) -> "SweepJournal":
        """Load an existing journal (header + completed records).

        A torn trailing line — the signature of a crash mid-append — is
        skipped; shard digests are *not* verified here (that happens
        per-record before reuse, see :meth:`verify`).
        """
        directory = Path(directory)
        journal_path = directory / JOURNAL_FILENAME
        try:
            lines = journal_path.read_text(encoding="utf-8").splitlines()
        except OSError as error:
            raise ValidationError(f"cannot open sweep journal: {error}")
        if not lines:
            raise ValidationError(f"{journal_path}: empty sweep journal")
        try:
            header = json.loads(lines[0])
        except ValueError as error:
            raise ValidationError(f"{journal_path}: corrupt header: {error}")
        if not isinstance(header, dict) or header.get("schema") != SWEEP_SCHEMA:
            raise ValidationError(
                f"{journal_path}: not a {SWEEP_SCHEMA} journal"
            )
        if header.get("schema_version") != SWEEP_SCHEMA_VERSION:
            raise ValidationError(
                f"{journal_path}: unsupported journal version "
                f"{header.get('schema_version')!r} "
                f"(supported: {SWEEP_SCHEMA_VERSION})"
            )
        total = header.get("total")
        if type(total) is not int or total < 0:
            raise ValidationError(
                f"{journal_path}: corrupt header: bad spec total {total!r}"
            )
        completed: dict = {}
        for line in lines[1:]:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict) or record.get("type") != "done":
                    continue
                shard = ShardRecord(
                    index=int(record["index"]),
                    fingerprint=str(record["fingerprint"]),
                    digest=str(record["digest"]),
                    offset=int(record["offset"]),
                )
            except (KeyError, TypeError, ValueError):
                continue  # torn trailing record: the spec just re-runs
            completed[shard.fingerprint] = shard
        return cls(directory, header, completed)

    @classmethod
    def open_or_create(
        cls,
        directory: Union[str, Path],
        fingerprints: Sequence[str],
        name: str = "sweep",
        knobs: Optional[dict] = None,
    ) -> "SweepJournal":
        """Resume the journal in *directory*, or start a fresh one."""
        if (Path(directory) / JOURNAL_FILENAME).exists():
            return cls.open(directory)
        return cls.create(directory, fingerprints, name, knobs)

    def close(self) -> None:
        for handle in (
            self._journal_handle, self._shard_append, self._shard_read
        ):
            if handle is not None:
                handle.close()
        self._journal_handle = None
        self._shard_append = None
        self._shard_read = None

    # -- recording -----------------------------------------------------
    def record_result(
        self, index: int, fingerprint: str, result: RunResult
    ) -> ShardRecord:
        """Append one finished run: shard record first, then the journal
        ``done`` line — so a crash between the two loses nothing (an
        unreferenced shard line is dead weight, not corruption)."""
        payload = pickle.dumps(result, _PICKLE_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest()
        if self._shard_append is None:
            self._shard_append = open(self.shard_path, "a", encoding="utf-8")
        self._shard_append.seek(0, 2)
        offset = self._shard_append.tell()
        self._shard_append.write(
            json.dumps(
                {
                    "index": index,
                    "fingerprint": fingerprint,
                    "digest": digest,
                    "payload": base64.b64encode(payload).decode("ascii"),
                },
                sort_keys=True,
            )
            + "\n"
        )
        self._shard_append.flush()
        if self._journal_handle is None:
            self._journal_handle = open(
                self.journal_path, "a", encoding="utf-8"
            )
        record = ShardRecord(
            index=index, fingerprint=fingerprint, digest=digest, offset=offset
        )
        self._journal_handle.write(
            json.dumps(
                {
                    "type": "done",
                    "index": index,
                    "fingerprint": fingerprint,
                    "digest": digest,
                    "offset": offset,
                },
                sort_keys=True,
            )
            + "\n"
        )
        self._journal_handle.flush()
        self.completed[fingerprint] = record
        return record

    # -- reuse ---------------------------------------------------------
    def _read_shard_entry(self, record: ShardRecord) -> Optional[dict]:
        if self._shard_read is None:
            try:
                self._shard_read = open(
                    self.shard_path, "r", encoding="utf-8"
                )
            except OSError:
                return None
        try:
            self._shard_read.seek(record.offset)
            line = self._shard_read.readline()
            entry = json.loads(line)
        except (OSError, ValueError):
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("fingerprint") != record.fingerprint
            or entry.get("digest") != record.digest
        ):
            return None
        try:
            payload = base64.b64decode(entry["payload"], validate=True)
        except (KeyError, ValueError):
            return None
        if hashlib.sha256(payload).hexdigest() != record.digest:
            return None
        entry["_payload_bytes"] = payload
        return entry

    def verify(self, record: ShardRecord) -> bool:
        """Tamper check: does the shard record still match its digest?"""
        return self._read_shard_entry(record) is not None

    def load_result(self, record: ShardRecord) -> RunResult:
        """Load one checkpointed result, verifying before unpickling."""
        entry = self._read_shard_entry(record)
        if entry is None:
            raise ValidationError(
                f"{self.shard_path}: shard record for "
                f"{record.fingerprint[:12]} failed its digest check "
                "(tampered or torn)"
            )
        result = pickle.loads(entry["_payload_bytes"])
        if not isinstance(result, RunResult):
            raise ValidationError(
                f"{self.shard_path}: shard record for "
                f"{record.fingerprint[:12]} is not a RunResult"
            )
        return result

    # -- introspection -------------------------------------------------
    def status(self) -> dict:
        """Progress snapshot for ``quartz-repro status --journal D``."""
        total = self.header["total"]
        done = len(self.completed)
        return {
            "name": self.header.get("name"),
            "knobs": dict(self.header.get("knobs", {})),
            "total": total,
            "done": done,
            "remaining": max(0, total - done),
            "grid_digest": self.header.get("grid_digest"),
            "journal": str(self.journal_path),
            "shards": str(self.shard_path),
        }


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


def run_sweep(
    specs: Sequence[RunSpec],
    journal: Optional[SweepJournal] = None,
    jobs: Optional[int] = None,
    consume: Optional[Callable[[RunSpec, RunResult], None]] = None,
    interrupt_after: Optional[int] = None,
) -> None:
    """Execute a grid as a streaming, checkpointed work queue.

    ``consume(spec, result)`` is called exactly once per spec, in
    submission order, as soon as each result is mergeable — never with
    the full list in memory.  With a ``journal``, finished specs are
    checkpointed as they complete and verified checkpoints from earlier
    invocations are reused instead of re-executed.

    ``interrupt_after`` is the deterministic crash point the resume
    tests and the CI smoke ride on: after that many fresh completions
    are journaled the sweep raises
    :class:`~repro.errors.RunInterrupted`, exactly as Ctrl-C would —
    with the partial runner stats recorded and every completed spec
    journaled.  The :class:`~repro.validation.runner.RunnerStats` window
    counts the specs queued for execution (``queue_depth``), those
    reused from the journal (``specs_skipped``) and the checkpoints that
    failed verification and re-ran (``specs_tampered``).
    """
    specs = list(specs)
    stats = current_run_stats()
    reuse: dict = {}
    record = None
    if journal is not None:
        fingerprints = [spec_fingerprint(spec) for spec in specs]
        expected = journal.header.get("grid_digest")
        if expected != grid_digest(fingerprints):
            raise ValidationError(
                "sweep journal does not match this grid (grid digest "
                f"{grid_digest(fingerprints)[:12]} != journal "
                f"{str(expected)[:12]}); was the journal created for a "
                "different preset/scale?"
            )
        verified: dict = {}
        for fingerprint in dict.fromkeys(fingerprints):
            shard = journal.completed.get(fingerprint)
            if shard is None:
                continue
            if journal.verify(shard):
                verified[fingerprint] = shard
            else:
                stats.specs_tampered += 1
                print(
                    f"note: checkpointed result {fingerprint[:12]} failed "
                    "its digest check; re-executing that spec",
                    file=sys.stderr,
                )
        reuse = {
            index: partial(journal.load_result, verified[fingerprint])
            for index, fingerprint in enumerate(fingerprints)
            if fingerprint in verified
        }

        def record(result: RunResult) -> None:
            journal.record_result(
                result.index, fingerprints[result.index], result
            )

    stats.specs_skipped += len(reuse)
    stats.queue_depth += len(specs) - len(reuse)
    try:
        _run_grid(
            specs, jobs, consume or (lambda spec, result: None),
            reuse, record, interrupt_after,
        )
    finally:
        if journal is not None:
            journal.close()
