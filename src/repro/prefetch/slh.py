"""Stream Length Histograms implemented as Likelihood Tables.

The paper never materialises the SLH directly.  Instead it keeps, per
thread and per stream direction, two tables of length Lm (Section 3.4):

* ``LHTcurr`` — drives prefetch decisions in the current epoch;
* ``LHTnext`` — accumulates the histogram for the next epoch.

``lht(i)`` counts Read commands that belong to streams of length >= i,
so a stream of length L contributes L to every entry 1..min(L, Lm).
When a stream of length L is evicted from the Stream Filter, LHTnext is
*incremented* that way and LHTcurr is *decremented* the same way (the
current epoch's expectation is consumed as streams complete).  At an
epoch boundary the remaining Stream Filter contents are flushed into
LHTnext, LHTnext becomes LHTcurr, and LHTnext is cleared.

The prefetch test for a Read that is the k-th element of a stream is the
paper's inequality (5), ``lht(k) < 2 * lht(k+1)``, generalised to degree
d by inequality (6), ``lht(k) < 2 * lht(k+d)`` (a shift-left comparator
in hardware).
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.config import SLHConfig


def slh_bars(lht: List[int], table_len: Optional[int] = None) -> List[float]:
    """Convert an ``lht`` vector (1-indexed semantics, ``lht[0]`` unused)
    into SLH bar heights as fractions of all reads.

    ``bars[i]`` (1-indexed; returned list has index 0 unused = 0.0) is the
    probability that a read belongs to a stream of exactly length ``i``;
    the last bar aggregates "length >= Lm" (the paper's rightmost bar).
    """
    lm = table_len or (len(lht) - 1)
    total = lht[1]
    bars = [0.0] * (lm + 1)
    if total <= 0:
        return bars
    for i in range(1, lm):
        bars[i] = max(0, lht[i] - lht[i + 1]) / total
    bars[lm] = lht[lm] / total
    return bars


class LikelihoodTables:
    """LHTcurr/LHTnext pair for one (thread, direction).

    Entries saturate at zero on decrement and at ``counter_max`` on
    increment, mirroring the fixed-width hardware counters (each entry is
    a log2(e * Lm)-bit counter for epoch length e).
    """

    def __init__(self, config: SLHConfig) -> None:
        config.validate()
        self.config = config
        self.lm = config.table_len
        self.counter_max = config.epoch_reads * config.table_len
        # index 0 unused; entries 1..Lm live
        self.curr: List[int] = [0] * (self.lm + 1)
        self.next: List[int] = [0] * (self.lm + 1)
        #: snapshot of curr taken at the last epoch boundary (reporting)
        self.epoch_start: List[int] = [0] * (self.lm + 1)
        self.epochs = 0

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def record_stream(self, length: int) -> None:
        """Credit a completed stream of ``length`` reads.

        Adds ``length`` to LHTnext[1..min(length, Lm)] and consumes the
        same amount from LHTcurr (saturating at 0 / counter_max).
        """
        if length <= 0:
            raise ValueError("stream length must be positive")
        lm = self.lm
        cap = self.counter_max
        nxt = self.next
        curr = self.curr
        top = length if length < lm else lm
        for i in range(1, top + 1):
            value = nxt[i] + length
            nxt[i] = value if value < cap else cap
            value = curr[i] - length
            curr[i] = value if value > 0 else 0

    def record_stream_next_only(self, length: int) -> None:
        """Epoch-boundary flush: remaining Stream Filter entries update
        only LHTnext (LHTcurr is about to be replaced)."""
        if length <= 0:
            raise ValueError("stream length must be positive")
        lm = self.lm
        cap = self.counter_max
        nxt = self.next
        top = length if length < lm else lm
        for i in range(1, top + 1):
            value = nxt[i] + length
            nxt[i] = value if value < cap else cap

    def rollover(self) -> None:
        """Epoch boundary: LHTnext becomes LHTcurr; LHTnext clears."""
        self.curr = self.next
        self.epoch_start = list(self.next)
        self.next = [0] * (self.lm + 1)
        self.epochs += 1

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def should_prefetch(self, k: int, degree: int = 1) -> bool:
        """Inequality (5)/(6): prefetch ``degree`` lines ahead of the k-th
        element of a stream iff ``lht(k) < 2 * lht(k + degree)``.

        ``k`` beyond the table is clamped so that streams longer than Lm
        keep using the tail of the histogram.
        """
        if k < 1:
            raise ValueError("stream position k must be >= 1")
        last = self.lm - degree
        if degree < 1 or last < 1:
            raise ValueError("degree must be in 1..Lm-1")
        k_eff = k if k < last else last
        curr = self.curr
        return curr[k_eff] < (curr[k_eff + degree] << 1)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Telemetry view: the table state frozen as plain tuples.

        ``epoch_start`` is the lht vector that became current at the
        last rollover — the exact numbers inequality (5)/(6) tests
        against during the running epoch.
        """
        return {
            "epochs": self.epochs,
            "epoch_start": tuple(self.epoch_start),
            "curr": tuple(self.curr),
            "next": tuple(self.next),
        }

    def bars_epoch_start(self) -> List[float]:
        """SLH bars from the snapshot taken at the last epoch boundary."""
        return slh_bars(self.epoch_start, self.lm)

    def bars_next(self) -> List[float]:
        """SLH bars of the histogram being gathered for the next epoch."""
        return slh_bars(self.next, self.lm)
