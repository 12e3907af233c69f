"""Two-fidelity sweep orchestration: fast everywhere, exact where it counts.

This module is the policy layer above :func:`repro.experiments.sweep.
run_jobs`, and the only code that decides the fast tier's evidence.
The sweep engine executes *per-job* tiers ("exact" or "fast"); the
orchestrator lowers the user-facing *sweep* fidelity into per-job
tiers:

``exact``
    Every job runs the cycle-accurate simulator (the historical path —
    byte-identical job keys, no calibration overhead).

``fast``
    Every job runs the :mod:`repro.fastsim.model`; a
    :class:`~repro.fastsim.gate.FidelityGate` sample additionally runs
    exact, and the measured error distribution is attached to every
    fast result as validated error bars.

``auto``
    Like ``fast``, then points the model cannot decide are escalated:
    the gate's validation sample is replaced by its exact results
    outright, and any point whose predicted gain over the sweep's
    baseline config lies inside the calibrated error band re-runs
    exact too (see :func:`repro.fastsim.gate.near_decision_boundary`).
    A job with ``overrides`` runs exact: the fast model takes presets
    only.  It is an exact job in the plan with no twin, outside the
    gate's sample and escalation.  (Under ``fast`` such a job raises
    ``ValueError``.)

Two functions hold the policy, and both execution planes call them:
:func:`validation_plan` lists the jobs to run (the sweep, then the
exact twin of each fast job the gate samples), and
:func:`calibrate_plan` pairs the finished plan's results into the
sweep's :class:`~repro.fastsim.gate.CalibrationRecord`.  A local
``fast`` sweep is one :func:`run_jobs` call over the plan; the fabric
client submits the same plan and calibrates the rows it fetches back,
so a fleet ``fast`` sweep returns what a local one does.

All tiers flow through the same store + observability path;
fast results are persisted *with* their error bars, so a later session
loading them from the store still sees the calibration.
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments import store
from repro.experiments.sweep import Job, SweepStats, prepare, run_jobs
from repro.fastsim.gate import CalibrationRecord, FidelityGate, near_decision_boundary
from repro.fastsim.version import SWEEP_FIDELITIES
from repro.system.results import RunResult

#: The config whose runs anchor gain-vs-baseline escalation decisions.
BASELINE_CONFIG = "NP"


@dataclasses.dataclass
class FidelityOutcome:
    """A two-fidelity sweep's results plus its calibration evidence."""

    results: List[RunResult]
    stats: SweepStats
    #: the gate's measured error distribution (None for exact sweeps)
    record: Optional[CalibrationRecord] = None
    #: positions in ``results`` that were cross-validated exactly
    validated_indices: List[int] = dataclasses.field(default_factory=list)
    #: positions escalated to exact by the decision-boundary rule
    escalated_indices: List[int] = dataclasses.field(default_factory=list)


def _twin(job: Job) -> Job:
    """The job's exact twin: the same job with its tier set to exact."""
    return replace(job, fidelity="exact")


def validation_plan(jobs: Sequence[Job]) -> List[Job]:
    """The jobs, then the exact twin of each fast job the gate samples.

    The gate samples by store job key, so every process that plans the
    same jobs agrees on the twins.
    """
    fast = [job for job in jobs if job.fidelity == "fast"]
    keys = [store.job_key(prepare(job)[1]) for job in fast]
    sample = FidelityGate().select(keys)
    return list(jobs) + [_twin(fast[i]) for i in sample]


def calibrate_plan(
    jobs: Sequence[Job],
    results: Sequence[Optional[RunResult]],
) -> Optional[CalibrationRecord]:
    """Calibrate a finished plan and stamp its fast results.

    ``results`` align with ``jobs`` (None for a job that failed).  Each
    fast result pairs with the exact result of its twin, found by job
    identity; the pairs keep plan order.  Returns None when nothing
    pairs.
    """
    exact = {
        job: result for job, result in zip(jobs, results)
        # a twin is a preset: fast jobs take no overrides
        if job.fidelity == "exact" and not job.overrides and result is not None
    }
    fast = [
        (job, result) for job, result in zip(jobs, results)
        if job.fidelity == "fast" and result is not None
    ]
    pairs = [
        (result, exact[_twin(job)]) for job, result in fast
        if _twin(job) in exact
    ]
    if not pairs:
        return None
    record = FidelityGate().calibrate(pairs)
    for _job, result in fast:
        FidelityGate.attach(result, record)
    return record


def run_fidelity_sweep(
    specs: Sequence[Job],
    fidelity: str = "exact",
    jobs: int = 1,
    use_store: Optional[bool] = None,
    **run_kwargs: object,
) -> FidelityOutcome:
    """Execute a sweep at the requested fidelity tier.

    ``specs`` are sweep jobs in any tier (their per-job ``fidelity``
    is overridden by the sweep policy).  ``run_kwargs`` pass through to
    :func:`~repro.experiments.sweep.run_jobs` (timeout, retries,
    progress, metrics, recorder).  A ``fast`` sweep is one ``run_jobs``
    call; ``auto`` adds a second for the escalated points.
    """
    if fidelity not in SWEEP_FIDELITIES:
        raise ValueError(
            f"unknown sweep fidelity {fidelity!r}: expected one of "
            f"{SWEEP_FIDELITIES}"
        )
    if fidelity == "exact":
        outcome = run_jobs(
            [replace(job, fidelity="exact") for job in specs],
            jobs=jobs, use_store=use_store, **run_kwargs,
        )
        return FidelityOutcome(results=outcome.results, stats=outcome.stats)

    tiered = [
        replace(job, fidelity="exact" if fidelity == "auto" and job.overrides
                else "fast")
        for job in specs
    ]
    plan = validation_plan(tiered)
    outcome = run_jobs(plan, jobs=jobs, use_store=use_store, **run_kwargs)
    stats = outcome.stats
    record = calibrate_plan(plan, outcome.results)
    if record is not None:
        # The sweep persisted the fast results before calibration
        # existed; re-put them stamped so stored entries carry the bars.
        active_store = store.active_store(use_store)
        for job, result in zip(plan, outcome.results):
            if result.fidelity is not None:
                active_store.put(prepare(job)[1], result)

    results = outcome.results[:len(tiered)]
    twins = dict(zip(plan[len(tiered):], outcome.results[len(tiered):]))
    validated = [
        i for i, job in enumerate(tiered)
        if job.fidelity == "fast" and _twin(job) in twins
    ]
    stats.validated = len(validated)

    escalated: List[int] = []
    if fidelity == "auto" and record is not None:
        # The validation sample's exact results are already paid for —
        # serve them instead of their fast twins.
        for i in validated:
            results[i] = twins[_twin(tiered[i])]
        escalated = _escalate_boundary_points(tiered, results, record)
        if escalated:
            rerun = run_jobs(
                [_twin(tiered[i]) for i in escalated],
                jobs=jobs, use_store=use_store, **run_kwargs,
            )
            stats.merge(rerun.stats)
            for pos, i in enumerate(escalated):
                results[i] = rerun.results[pos]

    return FidelityOutcome(
        results=results,
        stats=stats,
        record=record,
        validated_indices=validated,
        escalated_indices=escalated,
    )


def _escalate_boundary_points(
    specs: Sequence[Job],
    results: Sequence[RunResult],
    record: CalibrationRecord,
) -> List[int]:
    """Indices of fast points too close to the gain decision boundary.

    A point is undecidable when its predicted gain over the sweep's
    own baseline run (same benchmark/trace shape, :data:`BASELINE_CONFIG`)
    is smaller than the calibrated cycle-error band — the fast model
    cannot even sign the comparison there, so ``auto`` buys the exact
    answer.  Only fast-tier jobs take part: an exact job (a variant) is
    neither a point nor a baseline, and a validated slot already holds
    its exact result.  Sweeps without a baseline config escalate
    nothing.
    """
    def cell(job: Job) -> Tuple[str, Optional[int], Optional[int], int]:
        return (job.benchmark, job.accesses, job.seed, job.threads)

    fast = [i for i, job in enumerate(specs) if job.fidelity == "fast"]
    baselines: Dict[Tuple, RunResult] = {
        cell(specs[i]): results[i] for i in fast
        if specs[i].config_name == BASELINE_CONFIG
    }
    return [
        i for i in fast
        if specs[i].config_name != BASELINE_CONFIG
        and results[i].fidelity is not None
        and cell(specs[i]) in baselines
        and near_decision_boundary(results[i], baselines[cell(specs[i])],
                                   record)
    ]
