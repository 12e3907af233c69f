"""Figure 13: effectiveness of the memory-side prefetcher under PMS.

Three measures per focus benchmark:

* **useful prefetches** — fraction of prefetched lines consumed by a
  read before displacement (paper: 82-91%);
* **coverage** — fraction of all Read commands (including processor-
  side prefetches) served by the Prefetch Buffer, counting reads that
  merged with an in-flight prefetch (paper: 19-34%);
* **delayed regular commands** — fraction of regular commands delayed
  by a memory-side prefetch's memory-system footprint (paper: 1-3%).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.analysis.report import format_table
from repro.experiments.runner import run_suite
from repro.workloads.profiles import FOCUS_BENCHMARKS


@dataclass
class EfficiencyRow:
    benchmark: str
    useful_pct: float
    coverage_pct: float
    delayed_pct: float


@dataclass
class EfficiencyFigure:
    rows: Dict[str, EfficiencyRow] = field(default_factory=dict)

    def averages(self) -> EfficiencyRow:
        n = len(self.rows) or 1
        return EfficiencyRow(
            "Average",
            sum(r.useful_pct for r in self.rows.values()) / n,
            sum(r.coverage_pct for r in self.rows.values()) / n,
            sum(r.delayed_pct for r in self.rows.values()) / n,
        )


def fig13_efficiency(
    benchmarks: Sequence[str] = FOCUS_BENCHMARKS,
    accesses: Optional[int] = None,
    config: str = "PMS",
) -> EfficiencyFigure:
    """Compute Figure 13 over the focus benchmarks."""
    runs = run_suite(benchmarks, (config,), accesses=accesses)
    figure = EfficiencyFigure()
    for benchmark in benchmarks:
        result = runs[benchmark][config]
        stats = result.stats
        reads = stats.get("mc.reads_arrived", 0) or 1
        covered = result.pb_hits + stats.get("mc.merged_responses", 0)
        # useful: consumed lines (hits + merges) over lines fetched
        inserts = stats.get("pb.inserts", 0) or 1
        consumed = stats.get("pb.read_hits", 0)
        figure.rows[benchmark] = EfficiencyRow(
            benchmark=benchmark,
            useful_pct=100.0 * consumed / inserts,
            coverage_pct=100.0 * covered / reads,
            delayed_pct=100.0 * result.delayed_regular_fraction,
        )
    return figure


def render(figure: EfficiencyFigure) -> str:
    """Render the experiment as the paper-style text table."""
    rows = [
        [r.benchmark, r.useful_pct, r.coverage_pct, r.delayed_pct]
        for r in figure.rows.values()
    ]
    avg = figure.averages()
    rows.append([avg.benchmark, avg.useful_pct, avg.coverage_pct, avg.delayed_pct])
    return format_table(
        ["benchmark", "useful %", "coverage %", "delayed %"],
        rows,
        title="Prefetch effectiveness (PMS)   "
        "[paper: useful 82-91%, coverage 19-34%, delayed 1-3%]",
    )
