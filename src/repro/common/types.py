"""Core value types shared by every subsystem.

The simulator works at *cache-line granularity*: every address handled by
the memory controller, the caches, and the prefetcher is a line index
(`byte_address // LINE_SIZE`).  The Power5+ uses 128-byte L2/L3 lines, so
that is the line size used throughout.

Two clock domains exist:

* **CPU cycles** (2.132 GHz in the paper) — used by the core model and for
  Stream Filter lifetimes.
* **MC cycles** (the DDR2-533 bus clock, 266 MHz) — the master simulation
  clock.  One MC cycle equals ``CoreConfig.cpu_ratio`` CPU cycles (8 by
  default, since 2132 / 266 is approximately 8).
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional

#: Cache line size in bytes (Power5+ L2/L3 line size).
LINE_SIZE = 128


class CommandKind(enum.Enum):
    """What a memory command asks the DRAM to do."""

    READ = "read"
    WRITE = "write"


class Provenance(enum.Enum):
    """Who generated a command.

    At the memory controller, processor-side prefetches are
    *indistinguishable* from demand reads (paper Section 3, Figure 1 note);
    the provenance tag exists only for statistics and for identifying
    memory-side prefetches, which really are treated differently (they sit
    in the Low Priority Queue).
    """

    DEMAND = "demand"
    PS_PREFETCH = "ps_prefetch"
    MS_PREFETCH = "ms_prefetch"

    # Identity hash: members are singletons compared by identity, and
    # Enum's own __hash__ hashes the member name in Python on every
    # lookup of the per-provenance tables the controller keys by them.
    __hash__ = object.__hash__


class Direction(enum.Enum):
    """Direction of a detected stream."""

    ASCENDING = 1
    DESCENDING = -1

    # Identity hash, as for Provenance: the ASD engine keys its
    # per-direction Likelihood Tables by these members.
    __hash__ = object.__hash__

    @property
    def step(self) -> int:
        """Line-address delta of one stream step (+1 or -1)."""
        return self.value


_command_ids = itertools.count()
_READ = CommandKind.READ
_WRITE = CommandKind.WRITE
_MS_PREFETCH = Provenance.MS_PREFETCH


class MemoryCommand:
    """One line-granularity command flowing through the memory controller.

    Slotted, with plain-field predicates: tens of thousands are
    allocated per run, and the controller's hot loops read their fields
    every cycle.  ``kind`` and ``provenance`` are fixed at construction,
    so ``is_read``/``is_write``/``is_ms_prefetch`` are computed once
    here.  Equality is identity: every command is a distinct request.

    Attributes:
        kind: READ or WRITE.
        line: line address (byte address // LINE_SIZE).
        thread: hardware thread that generated the command.
        provenance: demand, processor-side prefetch, or memory-side prefetch.
        arrival: MC cycle at which the command entered the controller
            (also the timestamp used by scheduling policy 5).
        uid: unique, monotonically increasing id (tie-breaker / debugging).
    """

    __slots__ = ("kind", "line", "thread", "provenance", "arrival", "uid",
                 "is_read", "is_write", "is_ms_prefetch")

    def __init__(
        self,
        kind: CommandKind,
        line: int,
        thread: int = 0,
        provenance: Provenance = Provenance.DEMAND,
        arrival: int = 0,
        uid: Optional[int] = None,
    ) -> None:
        self.kind = kind
        self.line = line
        self.thread = thread
        self.provenance = provenance
        self.arrival = arrival
        self.uid = next(_command_ids) if uid is None else uid
        self.is_read = kind is _READ
        self.is_write = kind is _WRITE
        self.is_ms_prefetch = provenance is _MS_PREFETCH

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryCommand({self.kind.value}, line={self.line:#x}, "
            f"t{self.thread}, {self.provenance.value}, arr={self.arrival})"
        )
