"""The Power5+-like three-level write-back hierarchy and its miss path.

The hierarchy answers two questions for the core: *where did this access
hit* (which fixes its latency) and *which dirty lines fell out to memory*
(which become DRAM writes).  Demand fills from memory and processor-side
prefetch fills come back through :meth:`CacheHierarchy.fill_from_memory`.

Store misses use write-validate allocation: the line is installed dirty
without fetching it from DRAM.  This keeps the core from stalling on
stores while still producing realistic DRAM write traffic through dirty
evictions — see DESIGN.md Section 5.
"""

from __future__ import annotations

import enum
from typing import List, NamedTuple, Optional

from repro.cache.cache import Cache
from repro.common.config import HierarchyConfig
from repro.common.stats import Stats


class Level(enum.Enum):
    """Where in the hierarchy an access was satisfied."""

    L1 = 1
    L2 = 2
    L3 = 3
    MEMORY = 4


class AccessResult(NamedTuple):
    """Outcome of one demand access.

    ``latency_cpu`` is meaningful for cache hits; for ``Level.MEMORY`` the
    latency is determined later by the memory controller.  ``writebacks``
    lists dirty L3 victims that must become DRAM writes.  A tuple: one
    is built per access, through ``tuple.__new__``.
    """

    level: Level
    latency_cpu: int
    writebacks: List[int]


_new_tuple = tuple.__new__

_L1 = Level.L1
_L2 = Level.L2
_L3 = Level.L3
_MEMORY = Level.MEMORY


class CacheHierarchy:
    """L1D + shared L2 + off-chip L3, write-back, write-validate stores."""

    def __init__(self, config: HierarchyConfig) -> None:
        config.validate()
        self.config = config
        self.l1 = Cache(config.l1, "L1D")
        self.l2 = Cache(config.l2, "L2")
        self.l3 = Cache(config.l3, "L3")
        self.stats = Stats()
        # hot path: access() adds straight into the counter mapping
        self._stat_values = self.stats.raw()

    # ------------------------------------------------------------------
    # internal fill plumbing
    # ------------------------------------------------------------------
    def _fill_l2(self, line: int, dirty: bool, writebacks: List[int]) -> None:
        # The L3 is a victim cache of the L2 (Power5 castout path): every
        # L2 victim, clean or dirty, is installed in the L3.
        ev = self.l2.fill(line, dirty)
        if ev is not None:
            ev = self.l3.fill(ev.line, ev.dirty)
            if ev is not None and ev.dirty:
                writebacks.append(ev.line)

    def _fill_l1(self, line: int, dirty: bool, writebacks: List[int]) -> None:
        ev = self.l1.fill(line, dirty)
        if ev is not None and ev.dirty:
            self._fill_l2(ev.line, True, writebacks)

    # ------------------------------------------------------------------
    # demand path
    # ------------------------------------------------------------------
    def access(self, line: int, write: bool = False) -> AccessResult:
        """One demand load/store at line granularity."""
        writebacks: List[int] = []
        values = self._stat_values
        if self.l1.lookup(line, write):
            values["l1_hits"] += 1
            return _new_tuple(
                AccessResult, (_L1, self.config.l1.latency, writebacks)
            )

        if self.l2.lookup(line):
            values["l2_hits"] += 1
            self._fill_l1(line, write, writebacks)
            return _new_tuple(
                AccessResult, (_L2, self.config.l2.latency, writebacks)
            )

        if self.l3.lookup(line):
            values["l3_hits"] += 1
            self._fill_l2(line, False, writebacks)
            self._fill_l1(line, write, writebacks)
            return _new_tuple(
                AccessResult, (_L3, self.config.l3.latency, writebacks)
            )

        values["memory_accesses"] += 1
        if write:
            # write-validate: install dirty without a memory read
            self._fill_l1(line, True, writebacks)
            values["write_validates"] += 1
            return _new_tuple(
                AccessResult, (_MEMORY, self.config.l2.latency, writebacks)
            )
        return _new_tuple(AccessResult, (_MEMORY, 0, writebacks))

    def fill_from_memory(self, line: int, to_l1: bool = True) -> List[int]:
        """Install a line that arrived from DRAM; returns dirty L3 victims.

        Demand-load fills and L1-destined processor-side prefetches pass
        ``to_l1=True``; L2-destined prefetches stop at L2.
        """
        writebacks: List[int] = []
        self._fill_l2(line, False, writebacks)
        if to_l1:
            # _fill_l1, inlined: this runs once per completed read
            ev = self.l1.fill(line, False)
            if ev is not None and ev.dirty:
                self._fill_l2(ev.line, True, writebacks)
        return writebacks

    # ------------------------------------------------------------------
    # queries used by the processor-side prefetcher
    # ------------------------------------------------------------------
    def present_level(self, line: int) -> Optional[Level]:
        """Highest level currently holding the line, without side effects."""
        if self.l1.contains(line):
            return Level.L1
        if self.l2.contains(line):
            return Level.L2
        if self.l3.contains(line):
            return Level.L3
        return None

    def cached_anywhere(self, line: int) -> bool:
        return self.present_level(line) is not None
