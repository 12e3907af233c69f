"""One set-associative cache level.

Lines are identified by their global line address; the set index is the
low bits of the line address and the remainder is the tag.  The cache
tracks dirty bits and reports evictions so a write-back hierarchy can
turn dirty victims into DRAM writes.

Every preset uses LRU replacement, which :class:`Cache` implements with
one recency-ordered dict per set (line -> dirty, least recent first):
a touch is a pop and re-insert, the victim is the first key.  A
``tree_plru`` config or an injected ``policy=`` object selects
:class:`PolicyCache`, which tracks ways and asks the policy for victims.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from repro.cache.replacement import (
    LRUPolicy,
    ReplacementPolicy,
    TreePLRUPolicy,
)
from repro.common.config import CacheConfig
from repro.common.stats import Stats


class Eviction(NamedTuple):
    """A line pushed out of the cache by a fill.

    A tuple: one is built per eviction, through ``tuple.__new__`` on
    the fill path (no Python-level ``__init__``), and its fields read
    through C-level getters.
    """

    line: int
    dirty: bool


_new_tuple = tuple.__new__


class Cache:
    """Contents-accurate set-associative LRU cache.

    ``Cache(config, policy=...)`` and ``tree_plru`` configs construct a
    :class:`PolicyCache` instead; ``policy`` is None on the dict-LRU path.
    """

    def __new__(
        cls,
        config: CacheConfig,
        name: str = "cache",
        policy: Optional[ReplacementPolicy] = None,
    ) -> "Cache":
        if cls is Cache and (policy is not None or config.replacement != "lru"):
            cls = PolicyCache
        return super().__new__(cls)

    def __init__(
        self,
        config: CacheConfig,
        name: str = "cache",
        policy: Optional[ReplacementPolicy] = None,
    ) -> None:
        config.validate()
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        self.policy = policy
        # per set: line -> dirty, least recently used first
        self._sets: List[Dict[int, bool]] = [dict() for _ in range(self.num_sets)]
        self.stats = Stats()
        # hot path: lookup/fill add straight into the underlying
        # counter mapping (see Stats.raw)
        self._stat_values = self.stats.raw()

    # ------------------------------------------------------------------
    def set_index(self, line: int) -> int:
        return line % self.num_sets

    def contains(self, line: int) -> bool:
        """Presence check with no replacement-state side effects."""
        return line in self._sets[line % self.num_sets]

    def lookup(self, line: int, write: bool = False) -> bool:
        """Access the cache: returns True on hit (updating recency/dirty)."""
        entries = self._sets[line % self.num_sets]
        if line not in entries:
            self._stat_values["misses"] += 1
            return False
        self._stat_values["hits"] += 1
        entries[line] = entries.pop(line) or write
        return True

    def fill(self, line: int, dirty: bool = False) -> Optional[Eviction]:
        """Install ``line``; returns the eviction it caused, if any.

        Filling a line that is already present only updates recency and
        ORs in the dirty bit (a prefetch fill must not lose a dirty bit).
        """
        entries = self._sets[line % self.num_sets]
        if line in entries:
            entries[line] = entries.pop(line) or dirty
            return None
        values = self._stat_values
        evicted = None
        if len(entries) >= self.assoc:
            victim = next(iter(entries))
            victim_dirty = entries.pop(victim)
            evicted = _new_tuple(Eviction, (victim, victim_dirty))
            values["evictions"] += 1
            if victim_dirty:
                values["dirty_evictions"] += 1
        entries[line] = dirty
        values["fills"] += 1
        return evicted

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if present (dirty data is discarded); True if hit."""
        entries = self._sets[line % self.num_sets]
        if line not in entries:
            return False
        del entries[line]
        self._stat_values["invalidations"] += 1
        return True

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(s) for s in self._sets)

    def resident_lines(self):
        """Iterate over all resident line addresses (test/debug helper)."""
        for s in self._sets:
            yield from s


class PolicyCache(Cache):
    """Way-indexed cache whose victims come from a ReplacementPolicy."""

    def __init__(
        self,
        config: CacheConfig,
        name: str = "cache",
        policy: Optional[ReplacementPolicy] = None,
    ) -> None:
        if policy is None:
            if config.replacement == "tree_plru":
                policy = TreePLRUPolicy(config.num_sets, config.assoc)
            else:
                policy = LRUPolicy(config.num_sets, config.assoc)
        super().__init__(config, name, policy)
        # per set: way -> line  and  way -> dirty; the inherited
        # ``_sets`` maps line -> way here (the reverse map)
        self._lines: List[Dict[int, int]] = [dict() for _ in range(self.num_sets)]
        self._dirty: List[Dict[int, bool]] = [dict() for _ in range(self.num_sets)]

    # ------------------------------------------------------------------
    def lookup(self, line: int, write: bool = False) -> bool:
        s = line % self.num_sets
        way = self._sets[s].get(line)
        if way is None:
            self._stat_values["misses"] += 1
            return False
        self._stat_values["hits"] += 1
        self.policy.touch(s, way)
        if write:
            self._dirty[s][way] = True
        return True

    def fill(self, line: int, dirty: bool = False) -> Optional[Eviction]:
        s = line % self.num_sets
        where = self._sets[s]
        existing = where.get(line)
        if existing is not None:
            self.policy.touch(s, existing)
            if dirty:
                self._dirty[s][existing] = True
            return None

        values = self._stat_values
        lines = self._lines[s]
        dirty_map = self._dirty[s]
        if len(lines) < self.assoc:
            # take the lowest-numbered free way
            way = next(w for w in range(self.assoc) if w not in lines)
            evicted = None
        else:
            way = self.policy.victim(s)
            old_line = lines[way]
            evicted = Eviction(old_line, dirty_map.get(way, False))
            del where[old_line]
            values["evictions"] += 1
            if evicted.dirty:
                values["dirty_evictions"] += 1
        lines[way] = line
        dirty_map[way] = dirty
        where[line] = way
        self.policy.fill(s, way)
        values["fills"] += 1
        return evicted

    def invalidate(self, line: int) -> bool:
        s = line % self.num_sets
        way = self._sets[s].pop(line, None)
        if way is None:
            return False
        del self._lines[s][way]
        self._dirty[s].pop(way, None)
        self._stat_values["invalidations"] += 1
        return True
