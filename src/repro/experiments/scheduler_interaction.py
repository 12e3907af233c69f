"""Section 5.3: interaction with the memory scheduler.

The paper re-runs the prefetcher under two weaker reorder-queue
schedulers: with a simple in-order scheduler the prefetcher's gain
drops by about 5 percentage points, with the memoryless (first-ready)
scheduler by about 1 — i.e. the benefit of prefetching *increases* as
other memory-subsystem bottlenecks are removed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.analysis.report import format_table
from repro.experiments.runner import default_jobs
from repro.experiments.sweep import expand_grid, run_jobs
from repro.workloads.profiles import FOCUS_BENCHMARKS

SCHEDULER_ORDER = ("ahb", "memoryless", "in_order")


@dataclass
class SchedulerInteraction:
    benchmarks: Sequence[str]
    #: scheduler -> benchmark -> PMS-vs-NP gain (%)
    gains: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def average(self, scheduler: str) -> float:
        values = [self.gains[scheduler][b] for b in self.benchmarks]
        return sum(values) / len(values)

    def reduction_vs_ahb(self, scheduler: str) -> float:
        """Percentage points of prefetch gain lost under a weaker
        scheduler (paper: ~5 for in-order, ~1 for memoryless)."""
        return self.average("ahb") - self.average(scheduler)


def tab_scheduler_interaction(
    benchmarks: Sequence[str] = FOCUS_BENCHMARKS,
    accesses: Optional[int] = None,
) -> SchedulerInteraction:
    """PMS-vs-NP gain under each scheduler (NP re-run per scheduler)."""
    specs = [
        job
        for scheduler in SCHEDULER_ORDER
        for job in expand_grid(benchmarks, ("NP", "PMS"), accesses=accesses,
                               scheduler=scheduler)
    ]
    runs = iter(run_jobs(specs, jobs=default_jobs()).results)
    result = SchedulerInteraction(benchmarks)
    for scheduler in SCHEDULER_ORDER:
        row: Dict[str, float] = {}
        for benchmark in benchmarks:
            base, pms = next(runs), next(runs)
            row[benchmark] = pms.gain_vs(base)
        result.gains[scheduler] = row
    return result


def render(result: SchedulerInteraction) -> str:
    """Render the experiment as the paper-style text table."""
    rows = []
    for benchmark in result.benchmarks:
        rows.append(
            [benchmark] + [result.gains[s][benchmark] for s in SCHEDULER_ORDER]
        )
    rows.append(["Average"] + [result.average(s) for s in SCHEDULER_ORDER])
    table = format_table(
        ["benchmark", "ahb", "memoryless", "in_order"],
        rows,
        title="PMS gain over NP (%) by memory scheduler",
    )
    return (
        table
        + f"\ngain reduction vs AHB: memoryless "
        f"{result.reduction_vs_ahb('memoryless'):+.1f} points (paper ~1), "
        f"in-order {result.reduction_vs_ahb('in_order'):+.1f} points (paper ~5)"
    )
