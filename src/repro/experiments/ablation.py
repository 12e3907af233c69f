"""Figure 11: what Adaptive Stream Detection and Adaptive Scheduling buy.

Eight bars per focus benchmark, all with the processor-side prefetcher
active, normalised to the first (adaptive PMS) bar:

1. ASD + Adaptive Scheduling (the paper's PMS),
2-6. ASD + fixed scheduling policy 1 (most conservative) .. 5 (least),
7. next-line prefetcher in the MC + adaptive scheduling,
8. P5-style prefetcher in the MC + adaptive scheduling.

The paper finds adaptive scheduling ~2.3-3.6% better than the fixed
policies, ASD ~8.4% better than next-line, and — surprisingly — the
P5-style engine *worse* than plain next-line in this position, because
two-miss confirmation forfeits the short streams entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.report import format_table
from repro.experiments.runner import run_suite
from repro.system.presets import ABLATION_CONFIGS
from repro.workloads.profiles import FOCUS_BENCHMARKS

#: Human labels in the paper's legend order.
LABELS = {
    "PMS": "ASD + Adaptive Scheduling",
    "PMS_POLICY1": "ASD + policy 1 (most conservative)",
    "PMS_POLICY2": "ASD + policy 2",
    "PMS_POLICY3": "ASD + policy 3",
    "PMS_POLICY4": "ASD + policy 4",
    "PMS_POLICY5": "ASD + policy 5 (least conservative)",
    "PMS_NEXTLINE": "next-line + adaptive scheduling",
    "PMS_P5MC": "P5-style + adaptive scheduling",
}


@dataclass
class AblationFigure:
    """Normalised execution times per benchmark and configuration."""

    benchmarks: Sequence[str]
    #: benchmark -> config -> execution time normalised to adaptive PMS
    normalized: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def average(self, config: str) -> float:
        values = [self.normalized[b][config] for b in self.benchmarks]
        return sum(values) / len(values)

    def best_fixed_policy_gap(self) -> float:
        """How much adaptive scheduling beats the *best* fixed policy,
        in percent of execution time (paper: 2.3-3.6% vs each policy)."""
        best = min(
            self.average(f"PMS_POLICY{k}") for k in range(1, 6)
        )
        return (best - 1.0) * 100

    def asd_vs_nextline(self) -> float:
        """ASD's improvement over the next-line engine, % of exec time."""
        return (self.average("PMS_NEXTLINE") - 1.0) * 100

    def nextline_vs_p5(self) -> float:
        """Next-line's improvement over the P5-style engine (positive =
        next-line faster, the paper's surprising result)."""
        return (self.average("PMS_P5MC") - self.average("PMS_NEXTLINE")) * 100


def fig11_ablation(
    benchmarks: Sequence[str] = FOCUS_BENCHMARKS,
    accesses: Optional[int] = None,
) -> AblationFigure:
    """Compute Figure 11 over the focus benchmarks."""
    runs = run_suite(benchmarks, ABLATION_CONFIGS, accesses=accesses)
    figure = AblationFigure(benchmarks)
    for benchmark in benchmarks:
        base = runs[benchmark]["PMS"]
        figure.normalized[benchmark] = {
            config: result.normalized_time_vs(base)
            for config, result in runs[benchmark].items()
        }
    return figure


def render(figure: AblationFigure) -> str:
    """Render the experiment as the paper-style text table."""
    headers = ["benchmark"] + [c.replace("PMS_", "").lower() for c in ABLATION_CONFIGS]
    rows: List[List[object]] = []
    for benchmark in figure.benchmarks:
        rows.append(
            [benchmark] + [figure.normalized[benchmark][c] for c in ABLATION_CONFIGS]
        )
    rows.append(["Average"] + [figure.average(c) for c in ABLATION_CONFIGS])
    table = format_table(
        headers, rows, title="Normalized execution time (adaptive PMS = 1.0)"
    )
    extras = (
        f"\nadaptive vs best fixed policy: {figure.best_fixed_policy_gap():+.1f}%"
        f"\nASD vs next-line:              {figure.asd_vs_nextline():+.1f}%"
        f"\nnext-line vs P5-style:         {figure.nextline_vs_p5():+.1f}%"
    )
    return table + extras


def main() -> None:  # pragma: no cover - exercised via benchmarks
    """Print this experiment's paper-style output."""
    print(render(fig11_ablation()))


if __name__ == "__main__":  # pragma: no cover
    main()
