#!/usr/bin/env python
"""Design-space exploration with the public API.

Sweeps the memory-side prefetcher's main design knobs on one workload —
Prefetch Buffer size, Stream Filter slots, prefetch degree, and the
scheduling policy — and prints a compact design table with speedups
over the no-prefetch baseline and the hardware cost of each point.

This is the workflow a practitioner would use to size the prefetcher
for a new memory controller.  Each design point is data: a tuple of
``(dotted.path, value)`` overrides of the PMS preset, the same form a
``repro.experiments.sweep.Job`` carries to worker processes.

Run:  python examples/design_space.py [benchmark]
"""

import sys

from repro import generate_trace, get_profile, make_config, simulate
from repro.analysis.hardware import estimate_cost
from repro.analysis.report import format_table

#: Design points as data: (label, (dotted.path, value) overrides of PMS).
POINTS = [("default (16 PB, 8 SF, d1, adaptive)", ())]
POINTS += [(f"PB {n} lines", (("ms_prefetcher.buffer.entries", n),))
           for n in (8, 32)]
POINTS += [(f"SF {n} slots", (("ms_prefetcher.stream_filter.slots", n),))
           for n in (4, 16)]
POINTS += [(f"degree {d}", (("ms_prefetcher.degree", d),)) for d in (2, 4)]
POINTS += [(f"fixed policy {k}",
            (("ms_prefetcher.scheduling.fixed_policy", k),)) for k in (1, 5)]


def main() -> None:
    bench = sys.argv[1] if len(sys.argv) > 1 else "milc"
    trace = generate_trace(get_profile(bench).workload, 12_000, seed=1)
    baseline = simulate(make_config("NP"), trace)

    rows = []
    for label, overrides in POINTS:
        config = make_config("PMS").with_overrides(overrides)
        result = simulate(config, trace)
        rows.append(
            [
                label,
                baseline.cycles / result.cycles,
                result.useful_prefetch_fraction * 100,
                estimate_cost(config.ms_prefetcher).total_state_bytes,
            ]
        )
    print(
        format_table(
            ["design point", "speedup vs NP", "useful %", "state bytes"],
            rows,
            title=f"ASD design space on {bench}",
        )
    )


if __name__ == "__main__":
    main()
