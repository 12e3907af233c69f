"""The Stream Filter (paper Section 3.3).

One small table per hardware thread.  Each slot tracks one Read stream:
its last line address, current length, direction, and a lifetime that
expires the slot when the stream goes quiet.  Slot evictions are the
*only* events that feed the Likelihood Tables — the SLH a finite filter
produces is therefore an approximation of the true histogram (the paper
shows in Figure 16 that it is a close one; our Figure 16 experiment
reproduces that comparison).

Matching rules, straight from the paper:

* A read equal to ``last + step`` of a slot advances that stream.
* A slot of length 1 also matches ``last - 1``, flipping the slot's
  direction to descending ("the direction of the stream is set to
  Negative if the length of the previous stream is 1 and the address of
  the read is smaller than the last address").
* A read matching nothing allocates a vacant slot (length 1, ascending);
  with no vacancy, no prefetch can follow the read, but the histogram is
  still updated as if a stream of length 1 had been observed.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional

from repro.common.config import StreamFilterConfig
from repro.common.stats import Stats
from repro.common.types import Direction

#: Called with (length, direction) whenever a stream leaves the filter.
EvictionCallback = Callable[[int, Direction], None]


class StreamObservation(NamedTuple):
    """What the filter concluded about one Read (one per Read).

    ``position`` is k, the element index of this read within its stream
    (1 for a fresh stream).  ``tracked`` is False when the filter was
    full and the read could not be followed — no prefetch may be
    generated for it.  A tuple, built through ``tuple.__new__``.
    """

    position: int
    direction: Direction
    tracked: bool
    line: int


_new_tuple = tuple.__new__

_ASCENDING = Direction.ASCENDING
_DESCENDING = Direction.DESCENDING


class _Slot:
    # ``step`` mirrors ``direction`` as a plain int (+1/-1): the match
    # loop in observe() reads it once per slot per read
    __slots__ = ("last", "length", "direction", "step", "expires_at")

    def __init__(self, line: int, now: int, lifetime: int) -> None:
        self.last = line
        self.length = 1
        self.direction = _ASCENDING
        self.step = 1
        self.expires_at = now + lifetime


class StreamFilter:
    """Per-thread stream tracker with lifetime-based eviction.

    Time is in CPU cycles.  Call :meth:`expire` (cheap when nothing
    expires) before observing reads at a new timestamp, or rely on
    :meth:`observe` doing it implicitly.
    """

    __slots__ = ("config", "on_evict", "slots", "stats", "_stat_values",
                 "_soonest_expiry")

    #: sentinel horizon when the filter holds no slots
    _NEVER = float("inf")

    def __init__(
        self,
        config: StreamFilterConfig,
        on_evict: Optional[EvictionCallback] = None,
    ) -> None:
        config.validate()
        self.config = config
        self.on_evict = on_evict
        self.slots: List[_Slot] = []
        self.stats = Stats()
        # hot path: observe() adds straight into the counter mapping
        self._stat_values = self.stats.raw()
        # Lower bound on the earliest live expiry: expire() is a no-op
        # (and skips its scan) while now is below it.  Advances only
        # push expiries later, so the bound can go stale-low — that
        # costs a redundant scan, never a missed eviction.
        self._soonest_expiry = self._NEVER

    # ------------------------------------------------------------------
    def _evict(self, slot: _Slot) -> None:
        self.slots.remove(slot)
        values = self._stat_values
        values["evictions"] += 1
        values["evicted_length"] += slot.length
        if self.on_evict is not None:
            self.on_evict(slot.length, slot.direction)

    def expire(self, now_cpu: int) -> None:
        """Evict every slot whose lifetime has run out."""
        if now_cpu < self._soonest_expiry:
            return
        for slot in [s for s in self.slots if s.expires_at <= now_cpu]:
            self._evict(slot)
        self._soonest_expiry = min(
            (s.expires_at for s in self.slots), default=self._NEVER
        )

    def flush(self, callback: Optional[EvictionCallback] = None) -> None:
        """Epoch boundary: evict all streams.

        When ``callback`` is given it replaces the normal eviction
        callback for this flush (the paper routes epoch-end flushes into
        LHTnext only).
        """
        for slot in list(self.slots):
            self.slots.remove(slot)
            self.stats.bump("flushes")
            sink = callback if callback is not None else self.on_evict
            if sink is not None:
                sink(slot.length, slot.direction)
        self._soonest_expiry = self._NEVER

    # ------------------------------------------------------------------
    def observe(self, line: int, now_cpu: int) -> StreamObservation:
        """Process one Read at ``line``; returns what stream it extends."""
        if now_cpu >= self._soonest_expiry:  # expire()'s early-out, hoisted
            self.expire(now_cpu)
        cfg = self.config
        values = self._stat_values

        for slot in self.slots:
            if line == slot.last + slot.step:
                slot.last = line
                slot.length += 1
                expires_at = slot.expires_at + cfg.lifetime_increment
                cap = now_cpu + cfg.lifetime_cap
                slot.expires_at = expires_at if expires_at < cap else cap
                values["advances"] += 1
                return _new_tuple(
                    StreamObservation, (slot.length, slot.direction, True, line)
                )
            if slot.length == 1 and line == slot.last - 1:
                slot.direction = _DESCENDING
                slot.step = -1
                slot.last = line
                slot.length = 2
                expires_at = slot.expires_at + cfg.lifetime_increment
                cap = now_cpu + cfg.lifetime_cap
                slot.expires_at = expires_at if expires_at < cap else cap
                values["advances"] += 1
                values["direction_flips"] += 1
                return _new_tuple(StreamObservation, (2, _DESCENDING, True, line))

        if len(self.slots) < cfg.slots:
            self.slots.append(_Slot(line, now_cpu, cfg.lifetime_init))
            expiry = now_cpu + cfg.lifetime_init
            if expiry < self._soonest_expiry:
                self._soonest_expiry = expiry
            values["allocations"] += 1
            return _new_tuple(StreamObservation, (1, _ASCENDING, True, line))

        # Filter full: the read is recorded as a completed length-1 stream
        # but cannot be followed, so no prefetch may be generated for it.
        values["untracked"] += 1
        if self.on_evict is not None:
            self.on_evict(1, _ASCENDING)
        return _new_tuple(StreamObservation, (1, _ASCENDING, False, line))

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return len(self.slots)

    def lengths(self) -> List[int]:
        """Current lengths of live streams (test/debug helper)."""
        return [s.length for s in self.slots]

    def snapshot(self) -> List[dict]:
        """Telemetry view: one plain dict per live slot."""
        return [
            {
                "last": s.last,
                "length": s.length,
                "direction": s.step,
                "expires_at": s.expires_at,
            }
            for s in self.slots
        ]
