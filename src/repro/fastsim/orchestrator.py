"""Two-fidelity sweep orchestration: fast everywhere, exact where it counts.

This module is the policy layer above :func:`repro.experiments.sweep.
run_jobs`.  The sweep engine executes *per-job* tiers ("exact" or
"fast"); the orchestrator lowers the user-facing *sweep* fidelity into
per-job tiers:

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
    only.  It stays out of the fast sub-sweep, the gate's sample and
    escalation.  (Under ``fast`` such a job raises ``ValueError``.)

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
DEFAULT_BASELINE_CONFIG = "NP"


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


def _job_keys(specs: Sequence[Job]) -> List[str]:
    """The store job key of every spec (the gate's sampling domain)."""
    return [store.job_key(prepare(job)[1]) for job in specs]


def _attach_and_persist(
    specs: Sequence[Job],
    results: Sequence[RunResult],
    record: CalibrationRecord,
    use_store: Optional[bool],
) -> None:
    """Stamp calibrated error bars onto fast results and store them.

    The sweep persisted the fast results *before* calibration existed;
    re-putting the stamped results keeps the stored entries carrying
    their error bars for later reads and sessions.
    """
    active_store = store.active_store(use_store)
    for job, result in zip(specs, results):
        if result.fidelity is None:
            continue
        FidelityGate.attach(result, record)
        active_store.put(prepare(job)[1], result)


def run_fidelity_sweep(
    specs: Sequence[Job],
    fidelity: str = "exact",
    jobs: int = 1,
    gate: Optional[FidelityGate] = None,
    baseline_config: str = DEFAULT_BASELINE_CONFIG,
    use_store: Optional[bool] = None,
    **run_kwargs: object,
) -> FidelityOutcome:
    """Execute a sweep at the requested fidelity tier.

    ``specs`` are sweep jobs in any tier (their per-job ``fidelity``
    is overridden by the sweep policy).  ``run_kwargs`` pass through to
    :func:`~repro.experiments.sweep.run_jobs` (timeout, retries,
    progress, metrics, recorder).
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

    if fidelity == "auto" and any(job.overrides for job in specs):
        return _run_variants_exact(
            specs, jobs, gate, baseline_config, use_store, **run_kwargs
        )

    gate = gate or FidelityGate()
    fast_specs = [replace(job, fidelity="fast") for job in specs]
    fast = run_jobs(fast_specs, jobs=jobs, use_store=use_store, **run_kwargs)
    stats = fast.stats
    if not specs:
        return FidelityOutcome(results=[], stats=stats)

    # -- exact cross-validation on the deterministic sample ------------
    validated = gate.select(_job_keys(fast_specs))
    exact_specs = [replace(fast_specs[i], fidelity="exact") for i in validated]
    exact = run_jobs(exact_specs, jobs=jobs, use_store=use_store, **run_kwargs)
    stats.merge(exact.stats)
    pairs: List[Tuple[RunResult, RunResult]] = [
        (fast.results[i], exact.results[pos])
        for pos, i in enumerate(validated)
    ]
    record = gate.calibrate(pairs)
    stats.validated = len(validated)

    _attach_and_persist(fast_specs, fast.results, record, use_store)
    results = list(fast.results)

    escalated: List[int] = []
    if fidelity == "auto":
        # The validation sample's exact results are already paid for —
        # serve them instead of their fast twins.
        for pos, i in enumerate(validated):
            results[i] = exact.results[pos]
        escalated = _escalate_boundary_points(
            fast_specs, results, record, baseline_config,
            exclude=set(validated),
        )
        if escalated:
            rerun_specs = [
                replace(fast_specs[i], fidelity="exact") for i in escalated
            ]
            rerun = run_jobs(
                rerun_specs, jobs=jobs, use_store=use_store, **run_kwargs
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


def _run_variants_exact(
    specs: Sequence[Job],
    jobs: int,
    gate: Optional[FidelityGate],
    baseline_config: str,
    use_store: Optional[bool],
    **run_kwargs: object,
) -> FidelityOutcome:
    """An ``auto`` sweep whose jobs with overrides run exact, each result
    in its own slot; the preset jobs take the usual ``auto`` path."""
    presets = [i for i, job in enumerate(specs) if not job.overrides]
    variants = [i for i, job in enumerate(specs) if job.overrides]
    outcome = run_fidelity_sweep(
        [specs[i] for i in presets], "auto", jobs=jobs, gate=gate,
        baseline_config=baseline_config, use_store=use_store, **run_kwargs,
    )
    exact = run_jobs(
        [replace(specs[i], fidelity="exact") for i in variants],
        jobs=jobs, use_store=use_store, **run_kwargs,
    )
    outcome.stats.merge(exact.stats)
    results: List[Optional[RunResult]] = [None] * len(specs)
    for pos, i in enumerate(presets):
        results[i] = outcome.results[pos]
    for pos, i in enumerate(variants):
        results[i] = exact.results[pos]
    return FidelityOutcome(
        results=results,
        stats=outcome.stats,
        record=outcome.record,
        validated_indices=[presets[p] for p in outcome.validated_indices],
        escalated_indices=[presets[p] for p in outcome.escalated_indices],
    )


def _escalate_boundary_points(
    specs: Sequence[Job],
    results: Sequence[RunResult],
    record: CalibrationRecord,
    baseline_config: str,
    exclude: set,
) -> List[int]:
    """Indices of fast points too close to the gain decision boundary.

    A point is undecidable when its predicted gain over the sweep's
    own baseline run (same benchmark/trace shape, ``baseline_config``)
    is smaller than the calibrated cycle-error band — the fast model
    cannot even sign the comparison there, so ``auto`` buys the exact
    answer.  Sweeps without a baseline config escalate nothing.
    """
    baselines: Dict[Tuple[str, int, int, int], RunResult] = {}
    for job, result in zip(specs, results):
        if job.config_name == baseline_config:
            baselines[(job.benchmark, job.accesses, job.seed, job.threads)] = (
                result
            )
    escalated: List[int] = []
    for index, (job, result) in enumerate(zip(specs, results)):
        if index in exclude or job.config_name == baseline_config:
            continue
        if result.fidelity is None:  # already exact (validated slot)
            continue
        baseline = baselines.get(
            (job.benchmark, job.accesses, job.seed, job.threads)
        )
        if baseline is None:
            continue
        if near_decision_boundary(result, baseline, record):
            escalated.append(index)
    return escalated
