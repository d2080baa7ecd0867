"""Exception hierarchy for the Quartz reproduction.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch simulator problems without masking genuine Python bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """The discrete-event kernel was used incorrectly (e.g. negative delay)."""


class HardwareError(ReproError):
    """The simulated hardware was configured or driven incorrectly."""


class UnsupportedFeatureError(HardwareError):
    """The requested feature does not exist on this processor family.

    Mirrors real-world gaps the paper calls out: e.g. Sandy Bridge lacks
    separate local/remote LLC-miss events (Table 1), so the DRAM + NVM
    tier ladder of Section 3.3 cannot run there.
    """


class OsError(ReproError):
    """The simulated OS layer was driven incorrectly (e.g. double unlock)."""


class DeadlockError(OsError):
    """Every runnable entity is blocked and no events remain."""


class QuartzError(ReproError):
    """The Quartz emulator was misconfigured or misused."""


class CalibrationError(QuartzError):
    """A calibration step (latency or bandwidth) produced unusable data."""


class FaultPlanError(ReproError):
    """A fault-injection plan was malformed or inconsistent.

    Raised while *parsing or validating* a plan (e.g. the CLI ``--faults``
    spec) — never during injection, which is always well-defined once a
    plan validates.
    """


class InvariantViolation(ReproError):
    """A machine-checked runtime invariant failed during a run.

    Carries structured context so violations are actionable: which
    invariant, where in simulated time, and the epoch bookkeeping that
    broke it.  The message renders all of it; the attributes let tests
    and tooling dispatch without parsing strings.
    """

    def __init__(self, invariant: str, message: str, context: dict | None = None):
        self.invariant = invariant
        self.context = dict(context or {})
        details = ", ".join(
            f"{key}={value}" for key, value in sorted(self.context.items())
        )
        rendered = f"invariant {invariant!r} violated: {message}"
        if details:
            rendered += f" [{details}]"
        super().__init__(rendered)


class RunInterrupted(ReproError):
    """A run grid or sweep stopped before every spec finished.

    Raised by the runner's one grid executor when a grid is cut short
    (Ctrl-C, a worker pool breaking mid-grid, or a sweep's deterministic
    ``interrupt_after`` crash point).  Completed work is never lost: the
    partial :class:`~repro.validation.runner.RunnerStats` (stop reason
    ``"interrupted"``) already folds every finished run when this
    propagates, and a checkpointed sweep has journaled each of them.
    ``completed`` (finished or reused runs) and ``total`` let callers
    print progress without parsing the message.
    """

    def __init__(self, message: str, completed: int = 0, total: int = 0):
        self.completed = completed
        self.total = total
        super().__init__(message)


class WorkloadError(ReproError):
    """A benchmark workload was configured incorrectly."""


class ValidationError(ReproError):
    """A validation experiment was configured incorrectly."""
