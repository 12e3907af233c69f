"""Section 5.1 hardware cost table.

Reproduces the accounting behind the paper's area/power claims for the
evaluated configuration and for the SMT (2-thread) variant, anchored to
the paper's controller-area and power fractions (see
:mod:`repro.analysis.hardware`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.hardware import HardwareCost, estimate_cost, paper_anchor_bits
from repro.analysis.report import format_table
from repro.common.config import MemorySidePrefetcherConfig

#: Paper-reported numbers for the single-thread configuration.
PAPER = {
    "mc_area_increase_pct": 6.08,
    "chip_area_increase_pct": 0.098,
    "chip_power_increase_pct": 0.06,
}


@dataclass
class HardwareCostTable:
    costs: Dict[int, HardwareCost]  # threads -> cost
    anchor_bits: int

    def row(self, threads: int) -> List[object]:
        cost = self.costs[threads]
        return [
            threads,
            cost.stream_filter_bits,
            cost.lht_bits,
            cost.prefetch_buffer_bits,
            cost.lpq_bits,
            cost.comparators,
            cost.total_state_bytes,
            cost.mc_area_increase(self.anchor_bits) * 100,
            cost.chip_area_increase(self.anchor_bits) * 100,
            cost.chip_power_increase(self.anchor_bits) * 100,
        ]


def tab_hardware_cost(
    config: MemorySidePrefetcherConfig = None,
    thread_counts=(1, 2, 4),
) -> HardwareCostTable:
    """Cost inventory for the default prefetcher at several SMT widths."""
    config = config or MemorySidePrefetcherConfig(enabled=True)
    return HardwareCostTable(
        costs={t: estimate_cost(config, threads=t) for t in thread_counts},
        anchor_bits=paper_anchor_bits(),
    )


def render(table: HardwareCostTable) -> str:
    """Render the experiment as the paper-style text table."""
    headers = [
        "threads", "SF bits", "LHT bits", "PB bits", "LPQ bits",
        "comparators", "state bytes", "MC area +%", "chip area +%",
        "chip power +%",
    ]
    rows = [table.row(t) for t in sorted(table.costs)]
    return format_table(
        headers,
        rows,
        title=(
            "Hardware cost   [paper, 1 thread: MC area +6.08%, "
            "chip area +0.098%, chip power +0.06%]"
        ),
    )
