"""Extensions the paper describes but does not evaluate.

* **Multi-line prefetching** — the generalised inequality (6) lets the
  prefetcher issue several consecutive prefetches at once (Section 3.1
  describes the two-line case); ``degree_sweep`` evaluates degrees 1-4.
* **ASD as the only prefetcher** — the paper's future work suggests
  applying Adaptive Stream Detection processor-side; ``asd_only``
  compares three single-prefetcher machines head to head: memory-side
  ASD (``ASD_PS``), the stock Power5 processor-side unit (``PS``), and
  ASD *as* the processor-side prefetcher (``PS_ASD``, the future-work
  idea implemented in :mod:`repro.prefetch.asd_processor_side`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.analysis.report import format_table
from repro.experiments.runner import run_suite
from repro.workloads.profiles import FOCUS_BENCHMARKS

DEGREES = (1, 2, 3, 4)


@dataclass
class DegreeSweep:
    benchmarks: Sequence[str]
    #: benchmark -> {degree: speedup over NP}
    speedups: Dict[str, Dict[int, float]] = field(default_factory=dict)

    def average(self, degree: int) -> float:
        values = [self.speedups[b][degree] for b in self.benchmarks]
        return sum(values) / len(values)


def degree_sweep(
    benchmarks: Sequence[str] = FOCUS_BENCHMARKS,
    accesses: Optional[int] = None,
    degrees: Sequence[int] = DEGREES,
) -> DegreeSweep:
    """Multi-line prefetching via inequality (6), degrees 1..4."""
    names = {d: "PMS" if d == 1 else f"PMS_DEGREE{d}" for d in degrees}
    runs = run_suite(benchmarks, ("NP", *names.values()), accesses=accesses)
    sweep = DegreeSweep(benchmarks)
    for benchmark in benchmarks:
        baseline = runs[benchmark]["NP"]
        row: Dict[int, float] = {}
        for degree in degrees:
            result = runs[benchmark][names[degree]]
            row[degree] = baseline.cycles / result.cycles if result.cycles else 0.0
        sweep.speedups[benchmark] = row
    return sweep


@dataclass
class ASDOnlyResult:
    benchmarks: Sequence[str]
    #: benchmark -> {"asd": MS-ASD, "ps": Power5 PS, "ps_asd": PS-side
    #: ASD}, each a gain over NP in percent
    gains: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def average(self, key: str) -> float:
        values = [self.gains[b][key] for b in self.benchmarks]
        return sum(values) / len(values)


def asd_only(
    benchmarks: Sequence[str] = FOCUS_BENCHMARKS,
    accesses: Optional[int] = None,
) -> ASDOnlyResult:
    """Single-prefetcher machines head to head (paper future work)."""
    keys = {"asd": "ASD_PS", "ps": "PS", "ps_asd": "PS_ASD"}
    runs = run_suite(benchmarks, ("NP", *keys.values()), accesses=accesses)
    result = ASDOnlyResult(benchmarks)
    for benchmark in benchmarks:
        by_config = runs[benchmark]
        result.gains[benchmark] = {
            key: by_config[name].gain_vs(by_config["NP"])
            for key, name in keys.items()
        }
    return result


def render_degree(sweep: DegreeSweep) -> str:
    """Render the experiment as the paper-style text table."""
    headers = ["benchmark"] + [f"degree {d}" for d in DEGREES]
    rows = [
        [b] + [sweep.speedups[b][d] for d in DEGREES] for b in sweep.benchmarks
    ]
    rows.append(["Average"] + [sweep.average(d) for d in DEGREES])
    return format_table(headers, rows, title="Multi-line prefetch (speedup over NP)")


def render_asd_only(result: ASDOnlyResult) -> str:
    """Render the experiment as the paper-style text table."""
    rows = [
        [b, result.gains[b]["asd"], result.gains[b]["ps"],
         result.gains[b]["ps_asd"]]
        for b in result.benchmarks
    ]
    rows.append(
        ["Average", result.average("asd"), result.average("ps"),
         result.average("ps_asd")]
    )
    return format_table(
        ["benchmark", "MS-ASD only", "Power5 PS", "PS-side ASD"],
        rows,
        title="Single-prefetcher machines (gain over NP, %)",
    )


def main() -> None:  # pragma: no cover - exercised via benchmarks
    """Print this experiment's paper-style output."""
    print(render_degree(degree_sweep()))
    print()
    print(render_asd_only(asd_only()))


if __name__ == "__main__":  # pragma: no cover
    main()
