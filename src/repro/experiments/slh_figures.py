"""Figures 2, 3, and 16: Stream Length Histograms at the controller.

These figures describe the *input* to Adaptive Stream Detection, so
they are computed from the memory-controller-visible read stream: the
benchmark trace filtered through the cache hierarchy (a read reaches
the MC only when it misses L1/L2/L3).  Figure 2 shows one epoch's SLH;
Figure 3 shows how the SLH varies across epochs; Figure 16 compares the
finite 8-slot Stream Filter's approximation against the exact histogram
for the same epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.report import format_table
from repro.analysis.slh_accuracy import exact_slh, slh_rms_error
from repro.cache.hierarchy import CacheHierarchy, Level
from repro.common.config import SLHConfig, StreamFilterConfig, SystemConfig
from repro.common.types import Direction
from repro.experiments.runner import get_trace
from repro.prefetch.slh import LikelihoodTables, slh_bars
from repro.prefetch.stream_filter import StreamFilter
from repro.workloads.trace import Trace


def mc_read_stream(trace: Trace, config: Optional[SystemConfig] = None) -> List[int]:
    """The sequence of read line addresses that reach the controller.

    Replays the trace through a cache hierarchy (no timing): loads that
    miss every level produce MC reads; stores write-validate and only
    surface as (ignored) write-backs.
    """
    config = config or SystemConfig()
    hierarchy = CacheHierarchy(config.hierarchy)
    reads: List[int] = []
    for _, line, is_write in trace.records:
        result = hierarchy.access(line, is_write)
        if result.level is Level.MEMORY and not is_write:
            reads.append(line)
            hierarchy.fill_from_memory(line)  # data returns before reuse
    return reads


def filter_slh(
    reads: Sequence[int],
    sf_config: Optional[StreamFilterConfig] = None,
    table_len: int = 16,
) -> List[float]:
    """The SLH a finite Stream Filter computes for a read sequence.

    Feeds the reads through one Stream Filter and accumulates evicted
    stream lengths into a single (direction-combined) likelihood table,
    then converts to bars — exactly what LHTnext gathers over an epoch.
    """
    sf_config = sf_config or StreamFilterConfig()
    tables = LikelihoodTables(SLHConfig(table_len=table_len, epoch_reads=max(len(reads), 1)))

    def sink(length: int, direction: Direction) -> None:
        tables.record_stream_next_only(length)

    sf = StreamFilter(sf_config, on_evict=sink)
    for i, line in enumerate(reads):
        sf.observe(line, i if sf_config.lifetime_unit == "reads" else i * 8)
    sf.flush()
    return slh_bars(tables.next, table_len)


@dataclass
class SLHFigure:
    """Bars for one or more epochs of one benchmark."""

    benchmark: str
    epoch_reads: int
    epoch_bars: List[List[float]]  # one bar vector per epoch
    all_epoch_bars: List[float]  # aggregate over the whole run

    def table(self, epochs: Optional[Sequence[int]] = None) -> str:
        headers = ["length"] + [f"epoch {e}" for e in (epochs or range(len(self.epoch_bars)))] + ["all"]
        rows = []
        lm = len(self.all_epoch_bars) - 1
        chosen = list(epochs or range(len(self.epoch_bars)))
        for i in range(1, lm + 1):
            row = [i] + [self.epoch_bars[e][i] * 100 for e in chosen]
            row.append(self.all_epoch_bars[i] * 100)
            rows.append(row)
        return format_table(headers, rows, title=f"SLH (% of reads), {self.benchmark}")


def fig2_slh_example(
    benchmark: str = "GemsFDTD",
    epoch_reads: int = 2000,
    accesses: Optional[int] = None,
    epoch_index: int = 1,
) -> List[float]:
    """Figure 2: the exact SLH of one epoch of (synthetic) GemsFDTD."""
    fig = fig3_slh_phases(benchmark, epoch_reads, accesses)
    index = min(epoch_index, len(fig.epoch_bars) - 1)
    return fig.epoch_bars[index]


def fig3_slh_phases(
    benchmark: str = "GemsFDTD",
    epoch_reads: int = 2000,
    accesses: Optional[int] = None,
) -> SLHFigure:
    """Figure 3: SLHs of every epoch plus the all-epoch aggregate."""
    trace = get_trace(benchmark, accesses)
    reads = mc_read_stream(trace)
    epoch_bars = []
    for start in range(0, len(reads) - epoch_reads + 1, epoch_reads):
        epoch_bars.append(exact_slh(reads[start : start + epoch_reads]))
    if not epoch_bars:
        epoch_bars.append(exact_slh(reads))
    return SLHFigure(
        benchmark=benchmark,
        epoch_reads=epoch_reads,
        epoch_bars=epoch_bars,
        all_epoch_bars=exact_slh(reads),
    )


@dataclass
class SLHAccuracy:
    """Figure 16: filter-approximated vs. exact SLH of one epoch."""

    benchmark: str
    actual: List[float]
    approximation: List[float]

    @property
    def rms_error(self) -> float:
        return slh_rms_error(self.approximation, self.actual)

    def table(self) -> str:
        lm = len(self.actual) - 1
        rows = [
            [i, self.actual[i] * 100, self.approximation[i] * 100]
            for i in range(1, lm + 1)
        ]
        return format_table(
            ["length", "actual %", "approx %"],
            rows,
            title=f"SLH accuracy, {self.benchmark} "
            f"(rms error {self.rms_error * 100:.2f} points)",
        )


def fig16_slh_accuracy(
    benchmark: str = "GemsFDTD",
    epoch_reads: int = 2000,
    accesses: Optional[int] = None,
    epoch_index: int = 1,
    sf_config: Optional[StreamFilterConfig] = None,
) -> SLHAccuracy:
    """Figure 16: how closely the 8-slot filter tracks the exact SLH."""
    trace = get_trace(benchmark, accesses)
    reads = mc_read_stream(trace)
    start = min(epoch_index * epoch_reads, max(len(reads) - epoch_reads, 0))
    window = reads[start : start + epoch_reads]
    return SLHAccuracy(
        benchmark=benchmark,
        actual=exact_slh(window),
        approximation=filter_slh(window, sf_config),
    )
