"""Section 5.2 SMT results: two hardware threads per core.

The paper repeats the single-thread experiments with two SMT threads,
doubling the per-thread prefetcher state (Stream Filter + LHTs — which
``threads=2`` does automatically) while keeping the 16-line Prefetch
Buffer, and finds improvements comparable to single-threaded runs
(PMS vs PS: 10.7% / 9.2% / 7.5% across the suites; PMS vs NP: 28.5% /
20.4% / 11.1%).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.analysis.report import format_table
from repro.experiments.runner import run_suite
from repro.workloads.profiles import FOCUS_BENCHMARKS, suite_benchmarks

#: Paper SMT averages: suite -> (PMS vs NP %, PMS vs PS %).
PAPER_SMT = {
    "spec2006fp": (28.5, 10.7),
    "nas": (20.4, 9.2),
    "commercial": (11.1, 7.5),
}


@dataclass
class SMTResult:
    benchmarks: Sequence[str]
    #: benchmark -> {"pms_vs_np": %, "ms_vs_np": %, "pms_vs_ps": %}
    rows: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def average(self, key: str) -> float:
        values = [self.rows[b][key] for b in self.benchmarks]
        return sum(values) / len(values)


def tab_smt(
    benchmarks: Optional[Sequence[str]] = None,
    suite: Optional[str] = None,
    accesses: Optional[int] = None,
    jobs: Optional[int] = None,
) -> SMTResult:
    """SMT gains: two same-benchmark threads with different seeds.

    Each SMT workload pairs a benchmark with itself on a different seed
    (the paper runs homogeneous SMT pairs), sharing the caches and the
    controller while the prefetcher's locality state is per thread.
    ``jobs`` > 1 shards the grid across worker processes.
    """
    if benchmarks is None:
        benchmarks = suite_benchmarks(suite) if suite else FOCUS_BENCHMARKS
    runs = run_suite(
        benchmarks, ("NP", "PS", "MS", "PMS"), accesses=accesses, threads=2,
        jobs=jobs,
    )
    result = SMTResult(benchmarks)
    for benchmark in benchmarks:
        by_config = runs[benchmark]
        np_run = by_config["NP"]
        result.rows[benchmark] = {
            "pms_vs_np": by_config["PMS"].gain_vs(np_run),
            "ms_vs_np": by_config["MS"].gain_vs(np_run),
            "pms_vs_ps": by_config["PMS"].gain_vs(by_config["PS"]),
        }
    return result


def render(result: SMTResult, suite: Optional[str] = None) -> str:
    """Render the experiment as the paper-style text table."""
    rows = [
        [b, result.rows[b]["pms_vs_np"], result.rows[b]["ms_vs_np"],
         result.rows[b]["pms_vs_ps"]]
        for b in result.benchmarks
    ]
    rows.append(
        ["Average", result.average("pms_vs_np"), result.average("ms_vs_np"),
         result.average("pms_vs_ps")]
    )
    title = "SMT (2 threads) performance gain (%)"
    paper = PAPER_SMT.get(suite or "")
    if paper:
        title += f"   [paper: PMSvsNP {paper[0]:+.1f}, PMSvsPS {paper[1]:+.1f}]"
    return format_table(
        ["benchmark", "PMS vs NP", "MS vs NP", "PMS vs PS"], rows, title=title
    )
