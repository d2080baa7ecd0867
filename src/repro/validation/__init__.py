"""Validation methodology of Section 4.3 and the per-figure experiments.

``repro.validation.configs`` builds every run with one function,
:func:`run_testbed`, and names the paper's two testbed configurations
as one call each: **Conf_1** (:func:`run_conf1`: local memory + Quartz
emulating a slower latency) and **Conf_2** (:func:`run_conf2`: memory
physically bound to the remote socket via the numactl analogue).
Emulation error compares the two.

``repro.validation.experiments`` has one module per table/figure; see
DESIGN.md's experiment index.  ``repro.validation.runner`` executes
declarative grids of runs (:class:`RunSpec`), optionally across worker
processes, with byte-identical results for any job count; its mode
table ``MODES`` maps each run mode onto the builder, and each run's
attachment reports come back in ``RunResult.reports``.
``repro.validation.sweep`` runs the same grid executor with a journal
(resume-after-crash, same digest guarantee).
"""

from repro.validation.configs import RunOutcome, run_conf1, run_conf2, run_native
from repro.validation.metrics import TrialStats, relative_error, summarize
from repro.validation.reporting import ExperimentResult, render_table
from repro.validation.runner import RunResult, RunSpec, RunnerStats, run_specs
from repro.validation.sweep import SweepJournal, run_sweep, spec_fingerprint

__all__ = [
    "ExperimentResult",
    "RunOutcome",
    "RunResult",
    "RunSpec",
    "RunnerStats",
    "SweepJournal",
    "TrialStats",
    "relative_error",
    "render_table",
    "run_conf1",
    "run_conf2",
    "run_native",
    "run_specs",
    "run_sweep",
    "spec_fingerprint",
    "summarize",
]
