"""The Prefetch Buffer: a tiny set-associative cache next to the MC.

16 entries of 128 B (2 KB) in the paper's configuration.  Semantics from
Section 3.3:

* memory-side prefetched lines are inserted here (never into the CPU
  caches);
* a regular Read that matches is served from the buffer **and the entry
  is invalidated** (the data is headed for L1/L2, so it is unlikely to be
  useful here again);
* a Write that matches invalidates the entry (coherence).

The buffer also keeps the bookkeeping behind Figure 13: an entry that is
read before being displaced counts as a *useful* prefetch; entries
displaced or invalidated untouched are *useless*.
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.config import PrefetchBufferConfig
from repro.common.stats import Stats


class _Entry:
    __slots__ = ("line", "lru")

    def __init__(self, line: int, lru: int) -> None:
        self.line = line
        self.lru = lru


class PrefetchBuffer:
    """Set-associative, LRU, read-once line buffer."""

    def __init__(self, config: PrefetchBufferConfig) -> None:
        config.validate()
        self.config = config
        self.num_sets = config.entries // config.assoc
        self._sets: List[Dict[int, int]] = [dict() for _ in range(self.num_sets)]
        self._clock = 0
        self.stats = Stats()
        # hot path: the per-read probes add straight into the counter
        # mapping (see Stats.raw) and index their set inline
        self._stat_values = self.stats.raw()

    # ------------------------------------------------------------------
    def insert(self, line: int) -> None:
        """Install a prefetched line, evicting LRU on a full set."""
        self._clock += 1
        entries = self._sets[line % self.num_sets]
        if line in entries:
            entries[line] = self._clock
            self.stats.bump("duplicate_inserts")
            return
        if len(entries) >= self.config.assoc:
            victim = min(entries, key=entries.get)
            del entries[victim]
            self._stat_values["evicted_unused"] += 1
        entries[line] = self._clock
        self._stat_values["inserts"] += 1

    def read_hit(self, line: int) -> bool:
        """Probe for a regular Read; on hit, consume the entry."""
        entries = self._sets[line % self.num_sets]
        if line in entries:
            del entries[line]
            self._stat_values["read_hits"] += 1
            return True
        return False

    def contains(self, line: int) -> bool:
        """Presence probe with no side effects (used for dedup)."""
        return line in self._sets[line % self.num_sets]

    def invalidate(self, line: int) -> bool:
        """Coherence invalidation on a Write match."""
        entries = self._sets[line % self.num_sets]
        if line in entries:
            del entries[line]
            self.stats.bump("write_invalidations")
            return True
        return False

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def useful_fraction(self) -> float:
        """Fraction of inserted lines that were read before displacement."""
        inserts = self.stats["inserts"]
        if inserts == 0:
            return 0.0
        return self.stats["read_hits"] / inserts
