"""The Low Priority Queue holding not-yet-issued prefetch commands.

A bounded FIFO with the same depth as the CAQ (3 on the Power5+).  The
Final Scheduler may pick its head instead of the CAQ head according to
the active prioritisation policy.  A full LPQ drops new prefetches — a
speculative command is never worth back-pressuring the prefetch
generator for.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Set

from repro.common.stats import Stats
from repro.common.types import MemoryCommand
from repro.telemetry.events import PrefetchDiscard
from repro.telemetry.tracer import NULL_TRACER, Tracer


class LowPriorityQueue:
    """Bounded FIFO of memory-side prefetch commands."""

    def __init__(self, depth: int, tracer: Optional[Tracer] = None) -> None:
        if depth <= 0:
            raise ValueError("depth must be positive")
        self.depth = depth
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: MC cycle of the last controller tick (event timestamping)
        self.now_mc = 0
        self._queue: Deque[MemoryCommand] = deque()
        self._lines: Set[int] = set()
        #: occupancy accumulator: each push subtracts its clock and each
        #: pop or drop adds its clock (see
        #: MemoryController.settle_integrals for the clock convention)
        self.occ_acc = 0
        self.stats = Stats()
        # hot path: push/drop_line add straight into the counter mapping
        self._stat_values = self.stats.raw()

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def full(self) -> bool:
        return len(self._queue) >= self.depth

    def contains_line(self, line: int) -> bool:
        return line in self._lines

    def head(self) -> Optional[MemoryCommand]:
        return self._queue[0] if self._queue else None

    def push(self, cmd: MemoryCommand, clock: int) -> bool:
        """Enqueue at ``clock``; returns False (command dropped) when
        full or duplicate."""
        if cmd.line in self._lines:
            self.stats.bump("dropped_duplicate")
            if self.tracer.enabled:
                self.tracer.emit(
                    PrefetchDiscard(
                        t=self.now_mc, line=cmd.line, reason="lpq_duplicate"
                    )
                )
            return False
        if self.full:
            self.stats.bump("dropped_full")
            if self.tracer.enabled:
                self.tracer.emit(
                    PrefetchDiscard(
                        t=self.now_mc, line=cmd.line, reason="lpq_full"
                    )
                )
            return False
        self._queue.append(cmd)
        self._lines.add(cmd.line)
        self.occ_acc -= clock
        self._stat_values["pushed"] += 1
        return True

    def pop(self, clock: int) -> MemoryCommand:
        """Dequeue the head at ``clock``."""
        cmd = self._queue.popleft()
        self._lines.discard(cmd.line)
        self.occ_acc += clock
        return cmd

    def drop_line(self, line: int, clock: int) -> bool:
        """Remove, at ``clock``, a pending prefetch that became
        redundant (e.g. the line was demanded before the prefetch
        issued)."""
        if line not in self._lines:
            return False
        for cmd in list(self._queue):
            if cmd.line == line:
                self._queue.remove(cmd)
                break
        self._lines.discard(line)
        self.occ_acc += clock
        self._stat_values["squashed"] += 1
        if self.tracer.enabled:
            self.tracer.emit(
                PrefetchDiscard(t=self.now_mc, line=line, reason="squashed")
            )
        return True
