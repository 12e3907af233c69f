"""Per-trace fast-model calibration through the FidelityGate.

The fast model's error bars are calibrated per sweep
(docs/fidelity.md); a sweep over a *converted external trace* gives
that trace its own calibration record — evidence that the analytic
surrogate tracks this particular access pattern, not just the
synthetic profiles it was developed against.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.experiments.sweep import expand_grid
from repro.fastsim.gate import CalibrationRecord
from repro.fastsim.orchestrator import FidelityOutcome, run_fidelity_sweep
from repro.system.presets import CONFIG_NAMES
from repro.workloads.dynamic import trace_benchmark


def calibrate_trace(
    path: str,
    configs: Sequence[str] = CONFIG_NAMES,
    accesses: Optional[int] = None,
    seed: Optional[int] = None,
    jobs: int = 1,
    use_store: Optional[bool] = None,
) -> Tuple[CalibrationRecord, FidelityOutcome]:
    """Calibrate the fast model on one converted trace file.

    Runs the trace (as a content-addressed ``trace:`` benchmark)
    through a ``fast``-fidelity sweep over ``configs``: every config
    gets a fast prediction, the gate's deterministic sample re-runs on
    the cycle-accurate simulator, and the measured error distribution
    comes back as the trace's own :class:`CalibrationRecord` (also
    attached to the persisted fast results).  ``accesses`` caps the
    replayed prefix; ``seed`` only participates in job identity (file
    replay has no randomness).
    """
    benchmark = trace_benchmark(path)
    specs = expand_grid([benchmark], list(configs), accesses=accesses,
                        seed=seed)
    outcome = run_fidelity_sweep(
        specs, fidelity="fast", jobs=jobs, use_store=use_store,
    )
    assert outcome.record is not None  # fast sweeps always calibrate
    return outcome.record, outcome
