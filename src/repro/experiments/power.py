"""Figures 8, 9, 10: DRAM power and energy, PMS versus PS.

The paper compares the PMS configuration against PS: prefetch traffic
raises average DRAM power a little, while the shorter execution time
cuts total DRAM energy.  Background power dominates DRAM energy, so the
energy reduction roughly tracks the execution-time reduction — and for
the four non-memory-intensive SPEC benchmarks the power impact is
negligible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.metrics import power_energy_rows
from repro.analysis.report import format_table
from repro.experiments.runner import run_suite
from repro.workloads.profiles import get_profile, suite_benchmarks

#: Paper-reported suite averages: (power increase %, energy reduction %).
PAPER_AVERAGES = {
    "spec2006fp": (2.7, 9.8),
    "nas": (1.6, 7.9),
    "commercial": (2.8, 8.2),
}


@dataclass
class PowerFigure:
    suite: str
    rows: List[dict] = field(default_factory=list)

    @property
    def avg_power_increase(self) -> float:
        return sum(r["power_increase_pct"] for r in self.rows) / len(self.rows)

    @property
    def avg_energy_reduction(self) -> float:
        return sum(r["energy_reduction_pct"] for r in self.rows) / len(self.rows)

    def non_memory_intensive_avg_power(self) -> Optional[float]:
        """Average power increase over the suite's compute-bound members
        (the paper singles out gamess/namd/povray/calculix)."""
        light = [
            r
            for r in self.rows
            if not get_profile(r["benchmark"]).memory_intensive
        ]
        if not light:
            return None
        return sum(r["power_increase_pct"] for r in light) / len(light)


def power_figure(
    suite: str,
    accesses: Optional[int] = None,
    jobs: Optional[int] = None,
) -> PowerFigure:
    """Compute one of Figures 8/9/10 (``jobs`` > 1 runs in parallel)."""
    runs = run_suite(
        suite_benchmarks(suite), ("PS", "PMS"), accesses=accesses, jobs=jobs
    )
    return PowerFigure(suite, power_energy_rows(runs))


def fig8_power_spec(accesses: Optional[int] = None, jobs: Optional[int] = None) -> PowerFigure:
    """Figure 8: SPEC2006fp DRAM power/energy, PMS vs PS."""
    return power_figure("spec2006fp", accesses, jobs=jobs)


def fig9_power_nas(accesses: Optional[int] = None, jobs: Optional[int] = None) -> PowerFigure:
    """Figure 9: NAS DRAM power/energy, PMS vs PS."""
    return power_figure("nas", accesses, jobs=jobs)


def fig10_power_commercial(accesses: Optional[int] = None, jobs: Optional[int] = None) -> PowerFigure:
    """Figure 10: commercial DRAM power/energy, PMS vs PS."""
    return power_figure("commercial", accesses, jobs=jobs)


def render(figure: PowerFigure) -> str:
    """Render the experiment as the paper-style text table."""
    rows = [
        [r["benchmark"], r["power_increase_pct"], r["energy_reduction_pct"]]
        for r in figure.rows
    ]
    rows.append(["Average", figure.avg_power_increase, figure.avg_energy_reduction])
    paper = PAPER_AVERAGES.get(figure.suite)
    title = f"DRAM power/energy (PMS vs PS), {figure.suite}"
    if paper:
        title += f"   [paper averages: power +{paper[0]:.1f}%, energy -{paper[1]:.1f}%]"
    return format_table(
        ["benchmark", "power increase %", "energy reduction %"], rows, title=title
    )
