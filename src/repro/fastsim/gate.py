"""The FidelityGate: validated error bars for fast-model predictions.

A fast prediction without a quantified error is a guess.  The gate
turns a fast sweep into a *calibrated* one:

1. **Deterministic sampling** — a fixed fraction of the sweep's job
   keys is selected for validation by ranking SHA-256 digests of the
   keys (no RNG, no host state: the same sweep always validates the
   same points, on any machine);
2. **Cross-validation** — the selected points also run on the
   cycle-accurate simulator, and each gated metric's relative error is
   measured on every sample;
3. **Error bars** — the per-metric bound (worst observed error times a
   safety margin, plus a small floor) is attached to *every* fast
   result in the sweep as ``result.fidelity["error_bars"]``, together
   with the calibration summary it came from.

The bound is constructed to hold on the validation sample by
definition (``bound >= max observed error``); the margin and floor
cover the unsampled points.  ``tests/integration/test_fidelity.py``
asserts the in-sample property over the figure-5 grid, and
:mod:`repro.fastsim.orchestrator` re-checks it on every sweep.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.fastsim.version import FAST_MODEL_VERSION
from repro.system.results import RunResult

#: Metrics the gate calibrates, in report order.  Each is a property
#: of :class:`~repro.system.results.RunResult`, except ``energy_uj``
#: which reads the power report.
GATED_METRICS = (
    "cycles",
    "ipc",
    "coverage",
    "useful_prefetch_fraction",
    "energy_uj",
)

#: Relative-error denominators are floored per metric so near-zero
#: exact values (e.g. coverage of an NP run) don't explode the ratio:
#: below the floor, errors are measured in absolute units of the floor.
DENOMINATOR_FLOORS: Mapping[str, float] = {
    "cycles": 1.0,
    "ipc": 1e-3,
    "coverage": 0.02,
    "useful_prefetch_fraction": 0.02,
    "energy_uj": 1.0,
}

#: The advertised bound is the worst observed error times this margin
#: (covering unsampled points) plus :data:`BOUND_FLOOR`.
BOUND_MARGIN = 1.25
BOUND_FLOOR = 0.01

#: Validation-sample sizing: this fraction of a sweep's fast jobs, and
#: at least this many of them.
FRACTION = 0.2
MIN_SAMPLES = 3


def metric_value(result: RunResult, metric: str) -> float:
    """Extract one gated metric from a result (0.0 when absent)."""
    if metric == "energy_uj":
        return float(result.power.energy_uj) if result.power else 0.0
    value = getattr(result, metric)
    return float(value)


def relative_error(fast: RunResult, exact: RunResult, metric: str) -> float:
    """|fast - exact| over the floored magnitude of the exact value."""
    exact_value = metric_value(exact, metric)
    fast_value = metric_value(fast, metric)
    floor = DENOMINATOR_FLOORS.get(metric, 1e-9)
    return abs(fast_value - exact_value) / max(abs(exact_value), floor)


@dataclasses.dataclass(frozen=True)
class CalibrationRecord:
    """One sweep's measured fast-vs-exact error distribution.

    ``errors`` maps each gated metric to its observed ``max`` and
    ``mean`` relative error and the derived ``bound`` — the error bar
    advertised on every fast result of the sweep.
    """

    samples: int
    fraction: float
    model_version: int
    errors: Mapping[str, Mapping[str, float]]

    def bound(self, metric: str) -> float:
        """The advertised error bar for one metric."""
        return float(self.errors[metric]["bound"])

    def error_bars(self) -> Dict[str, float]:
        """All advertised bounds, keyed by metric."""
        return {metric: self.bound(metric) for metric in self.errors}

    def as_dict(self) -> Dict[str, object]:
        """JSON-shaped view (stored inside result payloads)."""
        return {
            "samples": self.samples,
            "fraction": self.fraction,
            "model_version": self.model_version,
            "errors": {
                metric: dict(stats) for metric, stats in self.errors.items()
            },
        }

    def summary(self) -> str:
        """One line per metric: ``metric: max err X% -> bar Y%``."""
        parts = [
            f"{metric} ±{self.bound(metric) * 100:.1f}%"
            for metric in GATED_METRICS
            if metric in self.errors
        ]
        return (
            f"calibrated on {self.samples} exact sample(s): "
            + ", ".join(parts)
        )


class FidelityGate:
    """Selects validation points and calibrates error bars.

    :data:`FRACTION` of a sweep's jobs (at least :data:`MIN_SAMPLES`,
    at most all of them) is validated against the exact simulator.
    """

    # ------------------------------------------------------------------
    def sample_size(self, population: int) -> int:
        """How many of ``population`` jobs get validated."""
        if population <= 0:
            return 0
        return min(
            population, max(MIN_SAMPLES, math.ceil(FRACTION * population))
        )

    def select(self, job_keys: Sequence[str]) -> List[int]:
        """Indices of the jobs chosen for exact validation.

        Jobs are ranked by the SHA-256 digest of their job key; the
        lowest digests win.  Pure function of the inputs — every
        process that prepares the same sweep agrees on the sample.
        """
        ranked = sorted(
            range(len(job_keys)),
            key=lambda index: (
                hashlib.sha256(str(job_keys[index]).encode("utf-8")).hexdigest(),
                index,
            ),
        )
        return sorted(ranked[: self.sample_size(len(job_keys))])

    # ------------------------------------------------------------------
    def calibrate(
        self, pairs: Sequence[Tuple[RunResult, RunResult]]
    ) -> CalibrationRecord:
        """Measure per-metric error distributions over (fast, exact) pairs."""
        if not pairs:
            raise ValueError("cannot calibrate on an empty validation set")
        errors: Dict[str, Dict[str, float]] = {}
        for metric in GATED_METRICS:
            observed = [
                relative_error(fast, exact, metric) for fast, exact in pairs
            ]
            worst = max(observed)
            errors[metric] = {
                "max": worst,
                "mean": sum(observed) / len(observed),
                "bound": worst * BOUND_MARGIN + BOUND_FLOOR,
            }
        return CalibrationRecord(
            samples=len(pairs),
            fraction=FRACTION,
            model_version=FAST_MODEL_VERSION,
            errors=errors,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def attach(result: RunResult, record: CalibrationRecord) -> RunResult:
        """Stamp a fast result with the sweep's calibration.

        Mutates (and returns) ``result``: its ``fidelity`` dict gains
        the per-metric ``error_bars`` and the calibration summary.
        Exact results pass through untouched — they carry no error.
        """
        if result.fidelity is None:
            return result
        result.fidelity = dict(result.fidelity)
        result.fidelity["error_bars"] = record.error_bars()
        result.fidelity["calibration"] = record.as_dict()
        return result


def near_decision_boundary(
    fast: RunResult,
    baseline: RunResult,
    record: CalibrationRecord,
) -> bool:
    """Is this point's gain-vs-baseline inside the model's error band?

    The sweeps' decision metric is the paper's performance gain
    (``fast.gain_vs(baseline)``, in percent).  With relative cycle
    errors up to ``b_f`` on the point and ``b_b`` on the baseline, the
    gain is uncertain by roughly ``(b_f + b_b) * 100`` percentage
    points; a fast prediction whose |gain| falls inside that band
    cannot be trusted to even *sign* the comparison — the auto tier
    escalates exactly these points to the exact simulator.
    """
    bound_fast = record.bound("cycles")
    bound_base = bound_fast if baseline.fidelity_tier == "fast" else 0.0
    band_pct = (bound_fast + bound_base) * 100.0
    return abs(fast.gain_vs(baseline)) <= band_pct
