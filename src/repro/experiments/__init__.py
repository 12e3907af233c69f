"""Experiment harness: one module per paper table/figure.

Every figure module exposes a pure function that computes the
experiment's data and a renderer for the paper-style rows.  Every
figure builds its cells as
:class:`~repro.experiments.sweep.Job` lists (a config variant is a job
with ``overrides``) and resolves them with one
:func:`~repro.experiments.sweep.run_jobs` call, through the
content-addressed :mod:`repro.experiments.store`: experiments that need
the same (benchmark, config) pair — e.g. Figure 5 and Figure 8 — pay
for it once *ever* per machine, not once per process, and ``REPRO_JOBS``
shards every figure across worker processes.  See docs/experiments.md.

The artifacts are listed once, in :mod:`repro.experiments.figures`:
one record per EXPERIMENTS.md section, with the paper's sentence, the
compute and render calls, and the claims the benchmark suite checks
(DESIGN.md Section 4).  This package does not import that module:
pool workers import this package, and the table loads every figure
module.
"""

from repro.experiments.runner import run, run_suite
from repro.experiments.store import ResultStore, get_store
from repro.experiments.sweep import Job, SweepOutcome, SweepStats, run_jobs

__all__ = [
    "Job",
    "ResultStore",
    "SweepOutcome",
    "SweepStats",
    "get_store",
    "run",
    "run_jobs",
    "run_suite",
]
