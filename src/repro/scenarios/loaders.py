"""Streaming loaders for external memory-trace formats.

Real traces record *byte* addresses at some point of the memory
hierarchy; the simulator consumes line-granularity
``(gap, line, is_write)`` records (:mod:`repro.workloads.trace`).  The
loaders here normalise between the two:

* **line-size rebasing** — byte addresses are right-shifted by
  ``log2(line_size)``; traces captured at a different line size than
  the simulated 128-byte lines are rebased by choosing ``line_size``
  accordingly;
* **gap derivation** — formats carrying instruction counts derive each
  record's gap from consecutive counts; formats without them use a
  configurable constant ``default_gap``;
* **streaming** — every loader is a generator over one input line at a
  time and :func:`convert_trace` writes records as they are produced,
  so multi-GB inputs convert in constant memory.  Paths ending ``.gz``
  are decompressed on the fly.

Two formats are supported (docs/scenarios.md has examples):

``champsim``
    Whitespace-separated text, one access per line:
    ``[instr_count] address type`` where ``type`` is one of
    R/W/L/S/LOAD/STORE/READ/WRITE/0/1 (case-insensitive) and addresses
    are decimal or hex (``0x`` prefix or any hex digit).  With the
    optional leading instruction count, gaps are derived from the
    deltas.

``csv``
    Comma-separated ``addr,rw[,tid]`` with an optional header row.
    The ``tid`` column, when present, can split the file into per-
    thread traces (:func:`split_threads`) for true SMT replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.common.files import durable_write, open_text
from repro.workloads.trace import RawRecord, Trace

#: rw-column tokens meaning "write" (lower-cased before lookup).
_WRITE_TOKENS = {"w", "s", "1", "write", "store", "wr", "st"}
#: rw-column tokens meaning "read".
_READ_TOKENS = {"r", "l", "0", "read", "load", "rd", "ld"}

#: Default instructions between accesses when the format carries none.
DEFAULT_GAP = 20
#: Default byte line size of external traces (the common 64B line).
DEFAULT_LINE_SIZE = 64

#: An external record mid-normalisation: ``(gap, line, is_write, tid)``.
ExternalRecord = Tuple[int, int, bool, int]


def _parse_error(path: str, lineno: int, raw: str, why: str) -> ValueError:
    """A loader error naming the file, line number, and offending text."""
    return ValueError(f"{path}:{lineno}: {why} in {raw.strip()!r}")


def _parse_address(token: str) -> int:
    """Parse a decimal or hex byte address."""
    token = token.strip()
    if token.lower().startswith("0x"):
        return int(token, 16)
    try:
        return int(token, 10)
    except ValueError:
        return int(token, 16)  # bare hex (contains a-f)


def _parse_rw(token: str) -> bool:
    """True for a write, False for a read; raises on anything else."""
    lowered = token.strip().lower()
    if lowered in _WRITE_TOKENS:
        return True
    if lowered in _READ_TOKENS:
        return False
    raise ValueError(f"unknown access type {token.strip()!r}")


def _line_shift(line_size: int) -> int:
    """log2 of the line size; rejects non-powers-of-two."""
    if line_size < 1 or line_size & (line_size - 1):
        raise ValueError(
            f"line_size must be a positive power of two, got {line_size}"
        )
    return line_size.bit_length() - 1


# ----------------------------------------------------------------------
# format iterators
# ----------------------------------------------------------------------
def iter_champsim(
    path: str,
    line_size: int = DEFAULT_LINE_SIZE,
    default_gap: int = DEFAULT_GAP,
) -> Iterator[ExternalRecord]:
    """Stream a ChampSim-style text trace as normalised records.

    Lines are ``address type`` or ``instr_count address type``; blank
    lines and ``#`` comments are skipped.  With instruction counts the
    gap of each access is ``count - previous_count - 1`` (clamped at
    zero: the access itself is one instruction); without them every
    gap is ``default_gap``.
    """
    shift = _line_shift(line_size)
    if default_gap < 0:
        raise ValueError(f"default_gap must be non-negative, got {default_gap}")
    previous_count: Optional[int] = None
    with open_text(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) not in (2, 3):
                raise _parse_error(
                    path, lineno, raw,
                    f"expected '[instr_count] address type', got "
                    f"{len(parts)} fields",
                )
            try:
                if len(parts) == 3:
                    count = int(parts[0], 10)
                    address = _parse_address(parts[1])
                    is_write = _parse_rw(parts[2])
                    if previous_count is None:
                        gap = default_gap
                    elif count < previous_count:
                        raise ValueError(
                            f"instruction count {count} goes backwards"
                        )
                    else:
                        gap = max(0, count - previous_count - 1)
                    previous_count = count
                else:
                    address = _parse_address(parts[0])
                    is_write = _parse_rw(parts[1])
                    gap = default_gap
            except ValueError as exc:
                raise _parse_error(path, lineno, raw, str(exc)) from None
            yield gap, address >> shift, is_write, 0


def iter_csv(
    path: str,
    line_size: int = DEFAULT_LINE_SIZE,
    default_gap: int = DEFAULT_GAP,
) -> Iterator[ExternalRecord]:
    """Stream a generic ``addr,rw[,tid]`` CSV (gzipped or plain).

    A first row whose address column does not parse is treated as a
    header and skipped; every later malformed row is an error naming
    the file, line, and text.
    """
    shift = _line_shift(line_size)
    if default_gap < 0:
        raise ValueError(f"default_gap must be non-negative, got {default_gap}")
    with open_text(path) as handle:
        first_data_row = True
        for lineno, raw in enumerate(handle, start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = [part.strip() for part in stripped.split(",")]
            if len(parts) not in (2, 3):
                raise _parse_error(
                    path, lineno, raw,
                    f"expected 'addr,rw[,tid]', got {len(parts)} columns",
                )
            try:
                address = _parse_address(parts[0])
            except ValueError:
                if first_data_row:  # header row (e.g. "addr,rw,tid")
                    first_data_row = False
                    continue
                raise _parse_error(
                    path, lineno, raw, f"bad address {parts[0]!r}"
                ) from None
            try:
                is_write = _parse_rw(parts[1])
                tid = int(parts[2], 10) if len(parts) == 3 else 0
            except ValueError as exc:
                raise _parse_error(path, lineno, raw, str(exc)) from None
            if tid < 0:
                raise _parse_error(path, lineno, raw, f"negative tid {tid}")
            first_data_row = False
            yield default_gap, address >> shift, is_write, tid


#: format name -> iterator factory.
FORMATS = {
    "champsim": iter_champsim,
    "csv": iter_csv,
}


def detect_format(path: str) -> str:
    """Guess the external format from the file name.

    ``.csv`` / ``.csv.gz`` means CSV; everything else is treated as
    ChampSim-style text (the more permissive format).
    """
    lowered = path.lower()
    if lowered.endswith(".csv") or lowered.endswith(".csv.gz"):
        return "csv"
    return "champsim"


# ----------------------------------------------------------------------
# conversion and materialisation
# ----------------------------------------------------------------------
@dataclass
class ConversionReport:
    """What one :func:`convert_trace` call produced."""

    records: int
    threads: int
    writes: int
    output: str

    def summary(self) -> str:
        """One line for the CLI."""
        share = self.writes / self.records * 100 if self.records else 0.0
        return (
            f"{self.records} records ({self.threads} thread(s), "
            f"{share:.0f}% writes) -> {self.output}"
        )


def convert_trace(
    source: str,
    output: str,
    fmt: Optional[str] = None,
    line_size: int = DEFAULT_LINE_SIZE,
    default_gap: int = DEFAULT_GAP,
    limit: Optional[int] = None,
    name: Optional[str] = None,
) -> ConversionReport:
    """Convert an external trace to the internal format, streaming.

    Records are written to ``output`` (gzipped when it ends ``.gz``)
    as they are parsed — constant memory for multi-GB inputs.  ``fmt``
    defaults to :func:`detect_format`; ``limit`` caps the records
    converted (prefix sampling).  Multi-thread CSVs are merged in file
    order (one controller-visible request stream); use
    :func:`split_threads` for per-thread traces instead.
    """
    fmt = fmt or detect_format(source)
    if fmt not in FORMATS:
        raise ValueError(
            f"unknown trace format {fmt!r}; known: {sorted(FORMATS)}"
        )
    records = 0
    writes = 0
    tids = set()
    # a failed conversion leaves no file where a sweep's
    # content-addressed loader would pick it up
    with durable_write(output) as out:
        out.write(f"# trace {name or source} (converted from {fmt})\n")
        for gap, line, is_write, tid in FORMATS[fmt](
            source, line_size=line_size, default_gap=default_gap
        ):
            out.write(f"{gap} {line} {int(is_write)}\n")
            records += 1
            writes += int(is_write)
            tids.add(tid)
            if limit is not None and records >= limit:
                break
        if records == 0:
            raise ValueError(f"{source}: no trace records found")
    return ConversionReport(
        records=records, threads=max(1, len(tids)), writes=writes,
        output=output,
    )


def load_external(
    path: str,
    fmt: Optional[str] = None,
    line_size: int = DEFAULT_LINE_SIZE,
    default_gap: int = DEFAULT_GAP,
    limit: Optional[int] = None,
    name: Optional[str] = None,
) -> Trace:
    """Materialise an external trace as an in-memory :class:`Trace`.

    The convenience path for moderate files and tests;
    :func:`convert_trace` + ``trace:`` benchmark names is the
    streaming path for big ones.
    """
    fmt = fmt or detect_format(path)
    if fmt not in FORMATS:
        raise ValueError(
            f"unknown trace format {fmt!r}; known: {sorted(FORMATS)}"
        )
    records: List[RawRecord] = []
    for gap, line, is_write, _tid in FORMATS[fmt](
        path, line_size=line_size, default_gap=default_gap
    ):
        records.append((gap, line, is_write))
        if limit is not None and len(records) >= limit:
            break
    if not records:
        raise ValueError(f"{path}: no trace records found")
    return Trace(records, name=name or path)


def split_threads(
    records: Iterable[ExternalRecord], name: str = "trace"
) -> Dict[int, Trace]:
    """Per-tid traces from a normalised record stream (SMT replay)."""
    by_tid: Dict[int, List[RawRecord]] = {}
    for gap, line, is_write, tid in records:
        by_tid.setdefault(tid, []).append((gap, line, is_write))
    return {
        tid: Trace(recs, name=f"{name}#t{tid}")
        for tid, recs in sorted(by_tid.items())
    }
