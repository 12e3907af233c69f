"""Reorder queues and the Centralized Arbiter Queue.

The reorder queues are where the scheduler may pick commands out of
order; the CAQ is strictly FIFO ("transmits commands to DRAM in FIFO
order", paper Section 3).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.common.types import MemoryCommand


class CommandQueue:
    """A bounded queue supporting FIFO pop and positional removal."""

    def __init__(self, depth: int, name: str = "queue") -> None:
        if depth <= 0:
            raise ValueError("depth must be positive")
        self.depth = depth
        self.name = name
        self._items: Deque[MemoryCommand] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.depth

    @property
    def empty(self) -> bool:
        return not self._items

    def head(self) -> Optional[MemoryCommand]:
        return self._items[0] if self._items else None

    def push(self, cmd: MemoryCommand) -> bool:
        if self.full:
            return False
        self._items.append(cmd)
        return True

    def pop(self) -> MemoryCommand:
        return self._items.popleft()

    def remove(self, cmd: MemoryCommand) -> None:
        self._items.remove(cmd)


class ReorderQueues:
    """The Read and Write reorder queues as one schedulable unit."""

    def __init__(self, read_depth: int, write_depth: int) -> None:
        self.reads = CommandQueue(read_depth, "reads")
        self.writes = CommandQueue(write_depth, "writes")

    @property
    def empty(self) -> bool:
        return self.reads.empty and self.writes.empty

    def __len__(self) -> int:
        return len(self.reads) + len(self.writes)

    def candidates(self, drain_writes: bool) -> List[MemoryCommand]:
        """Commands a scheduler may consider this cycle.

        Reads are always candidates; writes join only when draining
        (write queue pressure) or when there are no reads to serve.
        """
        out: List[MemoryCommand] = list(self.reads)
        if drain_writes or not out:
            out.extend(self.writes)
        return out

    def remove(self, cmd: MemoryCommand) -> None:
        """Remove a scheduled command from whichever queue holds it."""
        if cmd.is_write:
            self.writes.remove(cmd)
        else:
            self.reads.remove(cmd)
