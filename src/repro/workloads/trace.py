"""Line-granularity memory traces.

A trace record is ``(gap, line, is_write)``: the thread executes ``gap``
non-memory instructions, then touches cache line ``line``.  Records are
stored as plain tuples for speed; :class:`TraceRecord` is the readable
view used at API boundaries.

Traces round-trip through a simple text format (one record per line,
``gap line rw``) so generated workloads can be inspected, stored, and
replayed.  Paths ending in ``.gz`` are read and written gzip-compressed
transparently (converted external traces can be large —
docs/scenarios.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.common.files import open_text

RawRecord = Tuple[int, int, bool]


@dataclass(frozen=True)
class TraceRecord:
    """One memory access: run ``gap`` instructions, then touch ``line``."""

    gap: int
    line: int
    is_write: bool


class Trace:
    """An ordered sequence of memory accesses for one hardware thread."""

    def __init__(self, records: Iterable[RawRecord], name: str = "trace") -> None:
        #: never mutated after construction, so views derived from the
        #: records (``miss_stream``) stay valid for the trace's lifetime
        self.records: List[RawRecord] = list(records)
        self.name = name
        #: memo of :func:`repro.fastsim.model.miss_stream`, the fast
        #: model's capacity-filter pass, shared by every config
        self.miss_stream = None

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        for gap, line, is_write in self.records:
            yield TraceRecord(gap, line, is_write)

    def __getitem__(self, i: int) -> TraceRecord:
        gap, line, w = self.records[i]
        return TraceRecord(gap, line, w)

    @property
    def instructions(self) -> int:
        """Total instruction count: every access is 1 instruction plus its gap."""
        return sum(r[0] for r in self.records) + len(self.records)

    @property
    def unique_lines(self) -> int:
        return len({r[1] for r in self.records})

    @property
    def write_fraction(self) -> float:
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r[2]) / len(self.records)

    # ------------------------------------------------------------------
    # manipulation
    # ------------------------------------------------------------------
    def slice(self, start: int, stop: Optional[int] = None) -> "Trace":
        """A new trace holding records [start:stop] (sampling helper)."""
        return Trace(self.records[start:stop], name=f"{self.name}[{start}:{stop}]")

    @staticmethod
    def interleave(traces: Sequence["Trace"], chunk: int = 1) -> "Trace":
        """Round-robin interleave several traces in ``chunk``-sized runs.

        Useful for constructing multiprogrammed single-thread mixes (for
        true SMT, pass the traces separately to :class:`repro.system.
        simulator.System` instead).
        """
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        cursors = [0] * len(traces)
        records: List[RawRecord] = []
        while True:
            progressed = False
            for i, trace in enumerate(traces):
                take = trace.records[cursors[i] : cursors[i] + chunk]
                if take:
                    records.extend(take)
                    cursors[i] += len(take)
                    progressed = True
            if not progressed:
                break
        name = "|".join(t.name for t in traces)
        return Trace(records, name=name or "mix")

    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Write the trace in the one-record-per-line text format."""
        with open_text(path, "w") as f:
            f.write(f"# trace {self.name}\n")
            for gap, line, is_write in self.records:
                f.write(f"{gap} {line} {int(is_write)}\n")

    @classmethod
    def load(cls, path: str, name: str = "", limit: Optional[int] = None) -> "Trace":
        """Read a trace written by :meth:`save`.

        Malformed lines raise a :class:`ValueError` naming the file,
        the 1-based line number, and the offending text; ``gap`` must
        be non-negative (a negative gap would run the core's
        instruction clock backwards).  ``limit`` caps the number of
        records read (replay prefixes of huge converted traces).
        """
        records: List[RawRecord] = []
        with open_text(path) as f:
            for lineno, raw in enumerate(f, start=1):
                raw = raw.strip()
                if not raw or raw.startswith("#"):
                    continue
                parts = raw.split()
                if len(parts) != 3:
                    raise ValueError(
                        f"{path}:{lineno}: malformed trace record {raw!r} "
                        f"(expected 'gap line rw', got {len(parts)} fields)"
                    )
                try:
                    gap, line, w = int(parts[0]), int(parts[1]), int(parts[2])
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: non-integer field in trace "
                        f"record {raw!r} (expected 'gap line rw')"
                    ) from None
                if gap < 0:
                    raise ValueError(
                        f"{path}:{lineno}: negative gap {gap} in trace "
                        f"record {raw!r} (gaps are instruction counts)"
                    )
                records.append((gap, line, bool(w)))
                if limit is not None and len(records) >= limit:
                    break
        return cls(records, name or path)
