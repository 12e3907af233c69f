"""The assembled memory-side prefetcher embedded in the controller.

Wires together an engine (ASD / next-line / P5-style), the Prefetch
Buffer, the Low Priority Queue, the in-flight prefetch tracker, the
epoch counter shared with Adaptive Scheduling, and all the bookkeeping
behind Figure 13 (useful prefetches / coverage / delayed commands).

The controller drives it through four hooks:

* :meth:`observe_read` when a Read enters the controller (Figure 4:
  Reads are forked into the Stream Filter on entry);
* :meth:`read_lookup` at both Prefetch Buffer check points;
* :meth:`observe_write` on Write entry (coherence invalidation);
* :meth:`notify_issue` / :meth:`notify_complete` as prefetch commands
  leave the LPQ and return from DRAM.

Commands enter the controller in the core phase of cycle ``now_mc``
(the LPQ clock is ``now_mc + 1`` there) and the check points run in its
controller phase (clock ``now_mc``); the LPQ's occupancy accumulator is
kept at each push, pop and drop with that clock.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from repro.common.config import MemorySidePrefetcherConfig
from repro.common.stats import Stats
from repro.common.types import CommandKind, MemoryCommand, Provenance
from repro.prefetch.adaptive_scheduling import AdaptiveScheduler
from repro.prefetch.engines import ASDEngine, PrefetchEngine, build_engine
from repro.prefetch.lpq import LowPriorityQueue
from repro.prefetch.prefetch_buffer import PrefetchBuffer
from repro.telemetry.events import (
    EpochBoundary,
    PrefetchDiscard,
    PrefetchHit,
    PrefetchIssued,
)
from repro.telemetry.tracer import NULL_TRACER, Tracer

#: Callback: a regular read merged with an in-flight prefetch is ready.
MergeCallback = Callable[[MemoryCommand], None]


class MemorySidePrefetcher:
    """Everything grey in the paper's Figure 4."""

    def __init__(
        self,
        config: MemorySidePrefetcherConfig,
        threads: int = 1,
        tracer: Optional[Tracer] = None,
    ):
        config.validate()
        self.config = config
        self.enabled = config.enabled
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: MC cycle of the last controller tick (event timestamping)
        self.now_mc = 0
        self.engine: PrefetchEngine = build_engine(config, threads)
        self.buffer = PrefetchBuffer(config.buffer, tracer=self.tracer)
        self.lpq = LowPriorityQueue(config.lpq_depth, tracer=self.tracer)
        self.scheduler = AdaptiveScheduler(config.scheduling, tracer=self.tracer)
        self.in_flight: Set[int] = set()
        #: regular reads waiting on an in-flight prefetch of their line
        self._merged: Dict[int, List[MemoryCommand]] = {}
        #: in-flight prefetch lines invalidated by a write before arrival
        self._cancelled: Set[int] = set()
        #: set by the controller: delivers merged reads on completion
        self.on_merge_ready: Optional[MergeCallback] = None
        self._reads_this_epoch = 0
        # tick() fast path: only the ASD engine with CPU-cycle stream
        # lifetimes has per-cycle work (read-clock lifetimes expire
        # inside observe_read; the other engines keep no timed state)
        self._tick_engine = (
            self.enabled
            and isinstance(self.engine, ASDEngine)
            and not self.engine._reads_clock
        )
        self.stats = Stats()
        # hot path: per-read counters add straight into the underlying
        # counter mapping (see Stats.raw)
        self._stat_values = self.stats.raw()

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def observe_read(self, cmd: MemoryCommand, now_mc: int, now_cpu: int) -> None:
        """Fork an entering Read into the stream-detection hardware."""
        if not self.enabled:
            return
        self.now_mc = now_mc
        values = self._stat_values
        values["reads_observed"] += 1
        candidates = self.engine.observe_read(cmd.line, cmd.thread, now_cpu)
        for line in candidates:
            self._try_generate(line, cmd.thread, now_mc)
        self._reads_this_epoch += 1
        if self._reads_this_epoch >= self.config.slh.epoch_reads:
            self._reads_this_epoch = 0
            self.engine.epoch_flush()
            self.scheduler.now_mc = now_mc
            self.scheduler.epoch_update()
            values["epochs"] += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    EpochBoundary(
                        t=now_mc,
                        epoch=int(self.stats["epochs"]),
                        reads=self.config.slh.epoch_reads,
                        policy=self.scheduler.policy,
                    )
                )

    def _try_generate(self, line: int, thread: int, now_mc: int) -> None:
        """Dedup a candidate line and place it in the LPQ."""
        if line < 0:
            return
        values = self._stat_values
        if self.buffer.contains(line):
            values["dropped_in_buffer"] += 1
            return
        if line in self.in_flight:
            values["dropped_in_flight"] += 1
            return
        cmd = MemoryCommand(
            CommandKind.READ,
            line,
            thread=thread,
            provenance=Provenance.MS_PREFETCH,
            arrival=now_mc,
        )
        if self.lpq.push(cmd, now_mc + 1):
            values["generated"] += 1

    def read_lookup(self, line: int, now_mc: int) -> bool:
        """Prefetch Buffer probe for a regular Read (consuming on hit).

        Also squashes any still-queued prefetch of the same line — the
        demand access has made it pointless.
        """
        if not self.enabled:
            return False
        if line in self.lpq._lines:  # most reads have no queued prefetch
            self.lpq.drop_line(line, now_mc)
        if self.buffer.read_hit(line):
            self._stat_values["buffer_hits"] += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    PrefetchHit(t=self.now_mc, line=line, where="buffer")
                )
            return True
        return False

    def would_serve(self, line: int) -> bool:
        """Side-effect-free probe: would :meth:`read_lookup` or
        :meth:`try_merge` act on a Read to ``line`` right now?

        Used by the event-driven loop's wait detection — a CAQ head
        whose line this returns True for will be consumed at the next
        tick's Prefetch Buffer check point, so the machine is not in a
        deterministic wait.
        """
        if not self.enabled:
            return False
        return (
            self.lpq.contains_line(line)
            or self.buffer.contains(line)
            or (line in self.in_flight and line not in self._cancelled)
        )

    def try_merge(self, cmd: MemoryCommand) -> bool:
        """Attach a regular Read to an in-flight prefetch of its line.

        The controller tracks its in-flight commands, so a read whose
        line is already being prefetched need not access DRAM twice: it
        is held and answered when the prefetch data returns (this is the
        limiting case of the paper's second Prefetch Buffer check, where
        the prefetched data arrives 'while the Read command was resident
        in the CAQ').
        """
        if not self.enabled or not cmd.is_read:
            return False
        if cmd.line not in self.in_flight or cmd.line in self._cancelled:
            return False
        self._merged.setdefault(cmd.line, []).append(cmd)
        self._stat_values["merged_reads"] += 1
        if self.tracer.enabled:
            self.tracer.emit(
                PrefetchHit(t=self.now_mc, line=cmd.line, where="merge")
            )
        return True

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def observe_write(self, cmd: MemoryCommand, now_mc: int) -> None:
        if not self.enabled:
            return
        self.buffer.invalidate(cmd.line)
        self.lpq.drop_line(cmd.line, now_mc + 1)
        if cmd.line in self.in_flight and cmd.line not in self._merged:
            # the prefetched data will be stale on arrival: drop it
            self._cancelled.add(cmd.line)

    # ------------------------------------------------------------------
    # issue/complete plumbing
    # ------------------------------------------------------------------
    def notify_issue(self, cmd: MemoryCommand) -> None:
        self.in_flight.add(cmd.line)
        self._stat_values["issued"] += 1
        if self.tracer.enabled:
            self.tracer.emit(
                PrefetchIssued(t=self.now_mc, line=cmd.line, thread=cmd.thread)
            )

    def notify_complete(self, cmd: MemoryCommand) -> None:
        self.in_flight.discard(cmd.line)
        self._stat_values["completed"] += 1
        if cmd.line in self._cancelled:
            self._cancelled.discard(cmd.line)
            self.stats.bump("completed_cancelled")
            if self.tracer.enabled:
                self.tracer.emit(
                    PrefetchDiscard(
                        t=self.now_mc,
                        line=cmd.line,
                        reason="cancelled_in_flight",
                    )
                )
            return
        self.buffer.insert(cmd.line)
        merged = self._merged.pop(cmd.line, None)
        if merged:
            # the waiting read consumes the just-arrived line immediately
            self.buffer.read_hit(cmd.line)
            self._stat_values["buffer_hits"] += len(merged)
            if self.on_merge_ready is not None:
                for waiting in merged:
                    self.on_merge_ready(waiting)

    def tick(self, now_cpu: int, now_mc: Optional[int] = None) -> None:
        """Let the engine expire time-based state (Stream Filter slots).

        ``now_mc`` keeps the telemetry clock of this block and its
        queues current; callers that never trace may omit it.  The
        clocks exist purely to timestamp traced events, so they are
        only maintained while the tracer is on.
        """
        if now_mc is not None and self.tracer.enabled:
            self.now_mc = now_mc
            self.buffer.now_mc = now_mc
            self.lpq.now_mc = now_mc
        if self._tick_engine:
            self.engine.tick(now_cpu)

    def tick_reference(self, now_cpu: int, now_mc: int) -> None:
        """Per-cycle tick exactly as the pre-fast-forward simulator ran
        it: the telemetry clocks advance and the engine ticks
        unconditionally every MC cycle.  The reference main loop steps
        through this; :meth:`tick` reaches the same state lazily."""
        self.now_mc = now_mc
        self.buffer.now_mc = now_mc
        self.lpq.now_mc = now_mc
        if self.enabled:
            self.engine.tick(now_cpu)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def useful_fraction(self) -> float:
        """Figure 13's 'useful prefetches': buffer hits / lines fetched."""
        return self.buffer.useful_fraction()

    def coverage(self, total_reads: float) -> float:
        """Figure 13's 'coverage': reads served by the Prefetch Buffer as
        a fraction of all reads (including processor-side prefetches)."""
        if total_reads <= 0:
            return 0.0
        return self.stats["buffer_hits"] / total_reads

    def asd_tables(self) -> Optional[List]:
        """Access the ASD likelihood tables (None for other engines)."""
        if isinstance(self.engine, ASDEngine):
            return self.engine.tables
        return None
