"""Figures 5, 6, 7: benchmark performance under NP / PS / MS / PMS.

For every benchmark of a suite, run the four primary configurations on
the same trace and report the paper's three comparisons: PMS vs NP,
MS vs NP, and PMS vs PS, plus the suite averages.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.metrics import SuiteResult, compare_runs
from repro.analysis.report import format_table
from repro.experiments.runner import run_suite
from repro.workloads.profiles import suite_benchmarks

#: Paper-reported suite averages: (MS vs NP, PMS vs NP, PMS vs PS).
PAPER_AVERAGES = {
    "spec2006fp": (14.6, 32.7, 10.2),
    "nas": (11.7, 24.2, 8.1),
    "commercial": (9.3, 15.1, 8.4),
}


def performance_figure(
    suite: str,
    accesses: Optional[int] = None,
    scheduler: str = "ahb",
    jobs: Optional[int] = None,
) -> SuiteResult:
    """Compute one of Figures 5/6/7 for a suite.

    ``jobs`` > 1 shards the benchmark x config grid across worker
    processes (default: serial, or the ``REPRO_JOBS`` environment).
    """
    runs = run_suite(
        suite_benchmarks(suite),
        ("NP", "PS", "MS", "PMS"),
        accesses=accesses,
        scheduler=scheduler,
        jobs=jobs,
    )
    return compare_runs(suite, runs)


def fig5_spec(accesses: Optional[int] = None, jobs: Optional[int] = None) -> SuiteResult:
    """Figure 5: SPEC2006fp performance improvements."""
    return performance_figure("spec2006fp", accesses, jobs=jobs)


def fig6_nas(accesses: Optional[int] = None, jobs: Optional[int] = None) -> SuiteResult:
    """Figure 6: NAS performance improvements."""
    return performance_figure("nas", accesses, jobs=jobs)


def fig7_commercial(accesses: Optional[int] = None, jobs: Optional[int] = None) -> SuiteResult:
    """Figure 7: commercial-benchmark performance improvements."""
    return performance_figure("commercial", accesses, jobs=jobs)


def render(result: SuiteResult) -> str:
    """Paper-style rows plus the average line."""
    rows = [
        [r.benchmark, r.pms_vs_np, r.ms_vs_np, r.pms_vs_ps] for r in result.rows
    ]
    rows.append(
        [
            "Average",
            result.avg_pms_vs_np,
            result.avg_ms_vs_np,
            result.avg_pms_vs_ps,
        ]
    )
    paper = PAPER_AVERAGES.get(result.suite)
    title = f"Performance gain (%), {result.suite}"
    if paper:
        title += (
            f"   [paper averages: PMSvsNP {paper[1]:+.1f}, "
            f"MSvsNP {paper[0]:+.1f}, PMSvsPS {paper[2]:+.1f}]"
        )
    return format_table(
        ["benchmark", "PMS vs NP", "MS vs NP", "PMS vs PS"], rows, title=title
    )
