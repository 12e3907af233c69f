"""Figures 14 and 15: sensitivity to Prefetch Buffer and Stream Filter size.

The paper sweeps the Prefetch Buffer over {8, 16, 32, 1024} lines and
the Stream Filter over {4, 8, 16, 64} slots, finding that the evaluated
configuration (16 blocks, 8 slots) sits at the knee: growing either
structure keeps helping, but with diminishing returns.  Performance is
reported relative to the NP baseline, so every bar is a speedup.

An epoch-length sweep (an extension; the paper fixes epochs at 2000
reads) is included as ``epoch_sweep``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.report import format_table
from repro.experiments.runner import default_jobs
from repro.experiments.sweep import Job, run_jobs
from repro.workloads.profiles import FOCUS_BENCHMARKS

PB_SIZES = (8, 16, 32, 1024)
SF_SIZES = (4, 8, 16, 64)
EPOCH_LENGTHS = (500, 1000, 2000, 4000, 8000)


@dataclass
class SweepFigure:
    """Speedup over NP per benchmark per swept value."""

    parameter: str
    values: Sequence[int]
    #: benchmark -> {value: speedup over NP (1.0 = NP)}
    speedups: Dict[str, Dict[int, float]] = field(default_factory=dict)

    def average(self, value: int) -> float:
        rows = [self.speedups[b][value] for b in self.speedups]
        return sum(rows) / len(rows)


def _sweep(
    parameter: str,
    path: str,
    values: Sequence[int],
    benchmarks: Sequence[str],
    accesses: Optional[int],
) -> SweepFigure:
    """NP plus one PMS variant per value (``path`` overridden), per
    benchmark, resolved in one :func:`run_jobs` call."""
    specs: List[Job] = []
    for benchmark in benchmarks:
        specs.append(Job(benchmark, "NP", accesses=accesses))
        specs.extend(
            Job(benchmark, "PMS", accesses=accesses,
                overrides=((path, value),))
            for value in values
        )
    results = iter(run_jobs(specs, jobs=default_jobs()).results)
    figure = SweepFigure(parameter, values)
    for benchmark in benchmarks:
        baseline = next(results)
        row: Dict[int, float] = {}
        for value in values:
            result = next(results)
            row[value] = baseline.cycles / result.cycles if result.cycles else 0.0
        figure.speedups[benchmark] = row
    return figure


def fig14_buffer_size(
    benchmarks: Sequence[str] = FOCUS_BENCHMARKS,
    accesses: Optional[int] = None,
    sizes: Sequence[int] = PB_SIZES,
) -> SweepFigure:
    """Figure 14: PMS speedup vs Prefetch Buffer size."""
    return _sweep("pb_entries", "ms_prefetcher.buffer.entries", sizes,
                  benchmarks, accesses)


def fig15_filter_size(
    benchmarks: Sequence[str] = FOCUS_BENCHMARKS,
    accesses: Optional[int] = None,
    sizes: Sequence[int] = SF_SIZES,
) -> SweepFigure:
    """Figure 15: PMS speedup vs Stream Filter size."""
    return _sweep("sf_slots", "ms_prefetcher.stream_filter.slots", sizes,
                  benchmarks, accesses)


def epoch_sweep(
    benchmarks: Sequence[str] = FOCUS_BENCHMARKS,
    accesses: Optional[int] = None,
    lengths: Sequence[int] = EPOCH_LENGTHS,
) -> SweepFigure:
    """Extension: PMS speedup vs SLH epoch length."""
    return _sweep("epoch_reads", "ms_prefetcher.slh.epoch_reads", lengths,
                  benchmarks, accesses)


def render(figure: SweepFigure) -> str:
    """Render the experiment as the paper-style text table."""
    headers = ["benchmark"] + [str(v) for v in figure.values]
    rows = []
    for benchmark, row in figure.speedups.items():
        rows.append([benchmark] + [row[v] for v in figure.values])
    rows.append(["Average"] + [figure.average(v) for v in figure.values])
    return format_table(
        headers, rows, title=f"PMS speedup over NP vs {figure.parameter}"
    )


def main() -> None:  # pragma: no cover - exercised via benchmarks
    """Print this experiment's paper-style output."""
    print(render(fig14_buffer_size()))
    print()
    print(render(fig15_filter_size()))


if __name__ == "__main__":  # pragma: no cover
    main()
