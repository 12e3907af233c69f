#!/usr/bin/env python
"""Explore Stream Length Histograms and the ASD prefetch decision.

Shows, for a chosen benchmark:

1. the exact SLH of the memory-controller-visible read stream, per
   epoch (the paper's Figures 2 and 3);
2. the 8-slot Stream Filter's approximation of the same histogram
   (Figure 16);
3. which stream positions k the ASD inequality `lht(k) < 2*lht(k+1)`
   would prefetch at, given that histogram — the decision table the
   prefetch generator evaluates in hardware.

Run:  python examples/slh_explorer.py [benchmark] [epoch_reads]
"""

import sys

from repro.analysis.slh_accuracy import exact_slh, slh_rms_error
from repro.experiments.runner import get_trace
from repro.experiments.slh_figures import filter_slh, mc_read_stream


def bar(value: float, scale: int = 60) -> str:
    return "#" * int(value * scale)


def decide(bars):
    """Re-derive lht() from bars and apply inequality (5) per position."""
    lm = len(bars) - 1
    lht = [0.0] * (lm + 2)
    for i in range(lm, 0, -1):
        lht[i] = lht[i + 1] + bars[i]
    return [lht[k] < 2 * lht[k + 1] for k in range(1, lm)]


def main() -> None:
    bench = sys.argv[1] if len(sys.argv) > 1 else "GemsFDTD"
    epoch = int(sys.argv[2]) if len(sys.argv) > 2 else 2000

    trace = get_trace(bench, 15_000)
    reads = mc_read_stream(trace)
    print(f"{bench}: {len(trace)} accesses -> {len(reads)} MC reads")

    epochs = [
        reads[start : start + epoch]
        for start in range(0, len(reads) - epoch + 1, epoch)
    ] or [reads]

    for index, window in enumerate(epochs[:4]):
        bars = exact_slh(window)
        decisions = decide(bars)
        print(f"\nepoch {index} ({len(window)} reads):")
        for i in range(1, len(bars) - 1):
            marker = "prefetch" if decisions[i - 1] else "stop"
            print(
                f"  len {i:>2}  {bars[i] * 100:5.1f}%  "
                f"{bar(bars[i]):<40} k={i}: {marker}"
            )

    window = epochs[min(1, len(epochs) - 1)]
    approx = filter_slh(window)
    actual = exact_slh(window)
    print(
        f"\nStream Filter approximation (Figure 16): rms error "
        f"{slh_rms_error(approx, actual) * 100:.2f} points"
    )
    print(f"{'len':>4} {'actual':>8} {'approx':>8}")
    for i in range(1, 17):
        print(f"{i:>4} {actual[i] * 100:7.1f}% {approx[i] * 100:7.1f}%")


if __name__ == "__main__":
    main()
