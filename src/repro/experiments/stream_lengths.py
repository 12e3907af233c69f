"""Figure 12: short streams dominate every workload.

Measures, at the memory controller, the percentage of *streams* of each
length 1..5 for the focus benchmarks.  The paper reports lengths 1-5
covering 78-96% of all streams, with the commercial workloads holding
substantial mass at lengths 2-5 (tpc-c ~37%, trade2 ~49%, sap ~40%,
notesbench ~62%) — the territory where ASD wins and both next-line and
P5-style prefetchers waste.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.report import format_table
from repro.experiments.runner import get_trace
from repro.experiments.slh_figures import mc_read_stream
from repro.workloads.profiles import FOCUS_BENCHMARKS


def stream_length_counts(reads: Sequence[int], window: int = 64) -> Dict[int, int]:
    """Count streams by length in a read-address sequence.

    Unbounded tracker (like :func:`repro.analysis.slh_accuracy.exact_slh`
    but counting streams instead of read mass).
    """
    expect: Dict[int, list] = {}
    streams: List[list] = []  # [last, length, step, expiry]
    counts: Dict[int, int] = {}

    def finish(stream: list) -> None:
        counts[stream[1]] = counts.get(stream[1], 0) + 1

    def drop(stream: list) -> None:
        if stream[1] == 1:
            for key in (stream[0] + 1, stream[0] - 1):
                if expect.get(key) is stream:
                    del expect[key]
        else:
            key = stream[0] + stream[2]
            if expect.get(key) is stream:
                del expect[key]

    for idx, line in enumerate(reads):
        if idx % 4096 == 0:
            alive = []
            for stream in streams:
                if stream[3] < idx:
                    drop(stream)
                    finish(stream)
                else:
                    alive.append(stream)
            streams = alive
        stream = expect.get(line)
        if stream is not None and stream[3] < idx:
            drop(stream)
            finish(stream)
            streams.remove(stream)
            stream = None
        if stream is not None:
            drop(stream)
            stream[2] = 1 if line > stream[0] else -1
            stream[0] = line
            stream[1] += 1
            stream[3] = idx + window
            expect[line + stream[2]] = stream
        else:
            fresh = [line, 1, 0, idx + window]
            streams.append(fresh)
            expect[line + 1] = fresh
            expect[line - 1] = fresh
    for stream in streams:
        finish(stream)
    return counts


@dataclass
class StreamLengthFigure:
    benchmarks: Sequence[str]
    #: benchmark -> {1..5: % of streams}; key 0 holds the ">5" remainder
    percentages: Dict[str, Dict[int, float]] = field(default_factory=dict)

    def short_fraction(self, benchmark: str) -> float:
        """Percentage of streams of length 1-5 (paper: 78-96%)."""
        return sum(self.percentages[benchmark][i] for i in range(1, 6))

    def len2_5_fraction(self, benchmark: str) -> float:
        """Percentage of streams of length 2-5."""
        return sum(self.percentages[benchmark][i] for i in range(2, 6))


def fig12_stream_lengths(
    benchmarks: Sequence[str] = FOCUS_BENCHMARKS,
    accesses: Optional[int] = None,
) -> StreamLengthFigure:
    """Compute Figure 12 over the focus benchmarks."""
    figure = StreamLengthFigure(benchmarks)
    for benchmark in benchmarks:
        trace = get_trace(benchmark, accesses)
        counts = stream_length_counts(mc_read_stream(trace))
        total = sum(counts.values()) or 1
        row = {
            i: 100.0 * counts.get(i, 0) / total for i in range(1, 6)
        }
        row[0] = 100.0 - sum(row.values())
        figure.percentages[benchmark] = row
    return figure


def render(figure: StreamLengthFigure) -> str:
    """Render the experiment as the paper-style text table."""
    headers = ["benchmark", "len1", "len2", "len3", "len4", "len5", "1-5", "2-5"]
    rows = []
    for benchmark in figure.benchmarks:
        p = figure.percentages[benchmark]
        rows.append(
            [benchmark, p[1], p[2], p[3], p[4], p[5],
             figure.short_fraction(benchmark), figure.len2_5_fraction(benchmark)]
        )
    return format_table(headers, rows, title="Stream lengths (% of streams)")


def main() -> None:  # pragma: no cover - exercised via benchmarks
    """Print this experiment's paper-style output."""
    print(render(fig12_stream_lengths()))


if __name__ == "__main__":  # pragma: no cover
    main()
