"""Prefetch-generation engines for the memory-side prefetcher.

All three engines answer the same question — *given this Read at the
memory controller, which lines should be prefetched?* — and plug into
:class:`repro.prefetch.memory_side.MemorySidePrefetcher`:

* :class:`ASDEngine` — the paper's Adaptive Stream Detection: a Stream
  Filter per thread feeding per-direction Likelihood Tables, prefetching
  only when inequality (5)/(6) predicts the stream continues.
* :class:`NextLineEngine` — prefetch the next line on every Read
  (Figure 11's "no ASD + next-line prefetcher" baseline).
* :class:`P5StyleEngine` — a Power5-style two-miss-confirm sequential
  engine relocated into the memory controller (Figure 11's "no ASD +
  P5-style prefetcher" baseline).  It needs two consecutive-line Reads
  to engage and keeps prefetching until the stream dies, so it both
  misses the second line of every stream and issues one useless
  prefetch per stream — exactly the weaknesses the paper discusses.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Dict, List

from repro.common.config import MemorySidePrefetcherConfig
from repro.common.stats import Stats
from repro.common.types import Direction
from repro.prefetch.slh import LikelihoodTables
from repro.prefetch.stream_filter import StreamFilter

_ASCENDING = Direction.ASCENDING


class PrefetchEngine:
    """Interface shared by all generation engines."""

    def observe_read(self, line: int, thread: int, now_cpu: int) -> List[int]:
        """Process one Read; return candidate prefetch line addresses."""
        raise NotImplementedError

    def epoch_flush(self) -> None:
        """Called at every epoch boundary; optional."""

    def tick(self, now_cpu: int) -> None:
        """Called periodically so time-based state can expire; optional."""


class ASDEngine(PrefetchEngine):
    """Adaptive Stream Detection (paper Sections 3.1-3.4)."""

    def __init__(self, config: MemorySidePrefetcherConfig, threads: int) -> None:
        self.config = config
        self.threads = threads
        self.degree = config.degree
        self._reads_clock = config.stream_filter.lifetime_unit == "reads"
        self._read_counts = [0] * threads
        # per thread: a Stream Filter and one table pair per direction
        self.filters: List[StreamFilter] = []
        self.tables: List[Dict[Direction, LikelihoodTables]] = []
        for _ in range(threads):
            pair = {
                Direction.ASCENDING: LikelihoodTables(config.slh),
                Direction.DESCENDING: LikelihoodTables(config.slh),
            }
            self.tables.append(pair)
            sf = StreamFilter(
                config.stream_filter,
                on_evict=self._make_evict_sink(pair),
            )
            self.filters.append(sf)
        self.stats = Stats()

    @staticmethod
    def _make_evict_sink(pair: Dict[Direction, LikelihoodTables]):
        def sink(length: int, direction: Direction) -> None:
            pair[direction].record_stream(length)

        return sink

    # ------------------------------------------------------------------
    def observe_read(self, line: int, thread: int, now_cpu: int) -> List[int]:
        if self._reads_clock:
            self._read_counts[thread] += 1
            now_cpu = self._read_counts[thread]
        obs = self.filters[thread].observe(line, now_cpu)
        if not obs.tracked:
            self.stats.bump("untracked_reads")
            return []
        direction = obs.direction
        tables = self.tables[thread][direction]
        step = 1 if direction is _ASCENDING else -1
        out: List[int] = []
        for d in range(1, self.degree + 1):
            if not tables.should_prefetch(obs.position, d):
                break
            out.append(line + d * step)
        if not out:
            self.stats.bump("suppressed")
        return out

    def epoch_flush(self) -> None:
        """Flush all filters into LHTnext, then roll the tables over."""
        for thread in range(self.threads):
            pair = self.tables[thread]

            def sink(length: int, direction: Direction) -> None:
                pair[direction].record_stream_next_only(length)

            self.filters[thread].flush(callback=sink)
            for tables in pair.values():
                tables.rollover()
        self.stats.bump("epochs")

    def tick(self, now_cpu: int) -> None:
        if self._reads_clock:
            return  # read-clock lifetimes expire inside observe_read
        for sf in self.filters:
            sf.expire(now_cpu)


class NextLineEngine(PrefetchEngine):
    """Prefetch ``line + 1`` on every Read, unconditionally."""

    def __init__(self, config: MemorySidePrefetcherConfig, threads: int) -> None:
        self.degree = config.degree
        self.stats = Stats()

    def observe_read(self, line: int, thread: int, now_cpu: int) -> List[int]:
        return [line + d for d in range(1, self.degree + 1)]


class _P5Stream:
    __slots__ = ("last", "step")

    def __init__(self, last: int, step: int) -> None:
        self.last = last
        self.step = step


class P5StyleEngine(PrefetchEngine):
    """Two-miss-confirm sequential stream engine in the controller.

    Mirrors the Power5's processor-side policy shape (Section 4.2): a
    Read allocates a detection entry; a Read to the adjacent line in
    either direction confirms a stream; each confirmed-stream advance
    prefetches the next line.  Uses the detection-table and stream-count
    sizes of the real unit (12 candidates, 8 streams).
    """

    DETECT_ENTRIES = 12
    MAX_STREAMS = 8

    def __init__(self, config: MemorySidePrefetcherConfig, threads: int) -> None:
        self.degree = config.degree
        # per-thread candidate FIFOs and stream tables (LRU OrderedDict)
        self._candidates = [deque(maxlen=self.DETECT_ENTRIES) for _ in range(threads)]
        self._streams: List["OrderedDict[int, _P5Stream]"] = [
            OrderedDict() for _ in range(threads)
        ]
        self.stats = Stats()

    def observe_read(self, line: int, thread: int, now_cpu: int) -> List[int]:
        streams = self._streams[thread]
        # advance an existing stream?
        for key, stream in list(streams.items()):
            if line == stream.last + stream.step:
                stream.last = line
                streams.move_to_end(key)
                self.stats.bump("advances")
                return [line + d * stream.step for d in range(1, self.degree + 1)]
        # confirm a candidate?
        candidates = self._candidates[thread]
        step = 0
        if line - 1 in candidates:
            step = 1
            candidates.remove(line - 1)
        elif line + 1 in candidates:
            step = -1
            candidates.remove(line + 1)
        if step:
            if len(streams) >= self.MAX_STREAMS:
                streams.popitem(last=False)  # evict LRU stream
            streams[line] = _P5Stream(line, step)
            self.stats.bump("confirms")
            return [line + d * step for d in range(1, self.degree + 1)]
        candidates.append(line)
        return []


def build_engine(
    config: MemorySidePrefetcherConfig, threads: int
) -> PrefetchEngine:
    """Factory keyed on ``config.engine``."""
    if config.engine == "asd":
        return ASDEngine(config, threads)
    if config.engine == "nextline":
        return NextLineEngine(config, threads)
    if config.engine == "p5":
        return P5StyleEngine(config, threads)
    raise ValueError(f"unknown engine {config.engine!r}")
