"""Trace-driven core with finite memory-level parallelism.

Per MC cycle the core receives ``cpu_ratio`` CPU cycles, split evenly
among hardware threads.  Each thread walks its trace: it consumes its
instruction gap, performs the access against the cache hierarchy, and —
on a miss to memory — sends a demand read to the memory controller,
continuing until ``mlp`` line misses are outstanding.  Store misses
allocate via write-validate and never block; dirty lines evicted from
the L3 become DRAM writes.

The processor-side prefetcher is driven from here: it observes demand
L1 misses (and hits on lines it installed itself) and emits prefetch
reads that the memory controller cannot distinguish from demand reads.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.cache.hierarchy import CacheHierarchy, Level
from repro.common.config import CoreConfig
from repro.common.stats import Stats
from repro.common.types import CommandKind, MemoryCommand, Provenance
from repro.controller.controller import MemoryController
from repro.prefetch.processor_side import ProcessorSidePrefetcher
from repro.workloads.trace import Trace


_READ = CommandKind.READ
_WRITE = CommandKind.WRITE
_PS_PREFETCH = Provenance.PS_PREFETCH
_L1 = Level.L1
_MEMORY = Level.MEMORY


class _ThreadContext:
    __slots__ = (
        "tid",
        "records",
        "idx",
        "gap_cpu",
        "stall_cpu",
        "pending",
        "retry_demand",
        "writebacks",
        "outstanding",
        "blocked_mem",
        "trace_done",
    )

    def __init__(self, tid: int, trace: Trace) -> None:
        self.tid = tid
        self.records = trace.records
        self.idx = 0
        self.gap_cpu = 0
        self.stall_cpu = 0  # cache-hit latency: consumes time, retires nothing
        self.pending = None  # (line, is_write) awaiting execution
        self.retry_demand: Optional[MemoryCommand] = None
        self.writebacks: Deque[int] = deque()
        self.outstanding: set = set()
        self.blocked_mem = False
        self.trace_done = False

    @property
    def finished(self) -> bool:
        return (
            self.trace_done
            and self.pending is None
            and self.retry_demand is None
            and not self.outstanding
            and not self.writebacks
        )


class Core:
    """All hardware threads of one chip plus the PS prefetcher."""

    def __init__(
        self,
        config: CoreConfig,
        hierarchy: CacheHierarchy,
        ps: ProcessorSidePrefetcher,
        controller: MemoryController,
        traces: List[Trace],
    ) -> None:
        config.validate()
        if not traces:
            raise ValueError("need at least one trace")
        self.config = config
        self.hierarchy = hierarchy
        self.ps = ps
        self.controller = controller
        self.contexts = [_ThreadContext(i, t) for i, t in enumerate(traces)]
        self.budget_per_thread = max(1, config.cpu_ratio // len(traces))
        # line -> contexts waiting for it (demand misses, incl. merges)
        self._waiters: Dict[int, List[_ThreadContext]] = {}
        # line -> to_l1 destination of an in-flight PS prefetch
        self._ps_inflight: Dict[int, bool] = {}
        self.retired_instructions = 0
        self.stats = Stats()
        # hot path: per-tick stall accounting adds straight into the
        # underlying counter mapping (see Stats.raw)
        self._stat_values = self.stats.raw()
        controller.on_read_complete = self._on_read_complete
        controller.core_depth_probe = self.outstanding_misses

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        # the event loop checks this only once the controller is idle,
        # the reference loop once per cycle: the _ThreadContext fields
        # are probed directly instead of through the `finished` property
        for ctx in self.contexts:
            if not (
                ctx.trace_done
                and ctx.pending is None
                and ctx.retry_demand is None
                and not ctx.outstanding
                and not ctx.writebacks
            ):
                return False
        return True

    def outstanding_misses(self) -> int:
        """Demand line misses currently in flight across all threads."""
        return sum(len(ctx.outstanding) for ctx in self.contexts)

    def tick(self, now: int) -> None:
        budget = self.budget_per_thread
        for ctx in self.contexts:
            if ctx.blocked_mem:
                # all a memory-blocked thread's tick does (see _run_thread)
                self._stat_values["stall_cycles_mem"] += budget
            else:
                self._run_thread(ctx, budget, now)

    # ------------------------------------------------------------------
    def _run_thread(self, ctx: _ThreadContext, budget: int, now: int) -> None:
        values = self._stat_values
        while budget > 0:
            if ctx.blocked_mem:
                values["stall_cycles_mem"] += budget
                return
            if ctx.writebacks and not self._flush_writebacks(ctx, now):
                values["stall_cycles_wb"] += budget
                return
            if ctx.retry_demand is not None:
                if not self._issue_demand(ctx, ctx.retry_demand, now):
                    values["stall_cycles_queue"] += budget
                    return
                ctx.retry_demand = None
                if ctx.blocked_mem:
                    return
                continue
            # hit-latency stall, then instruction gap: each either
            # outlasts the budget (the tick ends) or is used up
            stall = ctx.stall_cpu
            if stall > 0:
                if stall >= budget:
                    ctx.stall_cpu = stall - budget
                    return
                ctx.stall_cpu = 0
                budget -= stall
                continue
            gap = ctx.gap_cpu
            if gap > 0:
                if gap >= budget:
                    ctx.gap_cpu = gap - budget
                    self.retired_instructions += budget
                    return
                ctx.gap_cpu = 0
                budget -= gap
                self.retired_instructions += gap
                continue
            if ctx.pending is not None:
                budget -= 1
                self._execute_access(ctx, now)
                continue
            if ctx.idx >= len(ctx.records):
                ctx.trace_done = True
                return
            gap, line, is_write = ctx.records[ctx.idx]
            ctx.idx += 1
            ctx.gap_cpu += gap
            ctx.pending = (line, is_write)
            self.retired_instructions += 1  # the access itself

    # ------------------------------------------------------------------
    def _flush_writebacks(self, ctx: _ThreadContext, now: int) -> bool:
        """Push pending dirty-eviction writes to the MC; False = stalled."""
        while ctx.writebacks:
            line = ctx.writebacks[0]
            cmd = MemoryCommand(_WRITE, line, thread=ctx.tid, arrival=now)
            if not self.controller.enqueue(cmd, now):
                return False
            ctx.writebacks.popleft()
        return True

    def _execute_access(self, ctx: _ThreadContext, now: int) -> None:
        line, is_write = ctx.pending
        if line in ctx.outstanding:
            # a second touch of a line already in flight: wait for it
            ctx.blocked_mem = True
            return
        ctx.pending = None

        level, latency, writebacks = self.hierarchy.access(line, is_write)
        if writebacks:
            ctx.writebacks.extend(writebacks)

        if level is _MEMORY and not is_write:
            if line in self._ps_inflight or line in self._waiters:
                # merge with the in-flight fetch of the same line
                self._waiters.setdefault(line, []).append(ctx)
                ctx.outstanding.add(line)
                self._stat_values["demand_merged"] += 1
                if len(ctx.outstanding) >= self.config.mlp:
                    ctx.blocked_mem = True
            else:
                cmd = MemoryCommand(_READ, line, thread=ctx.tid, arrival=now)
                if not self._issue_demand(ctx, cmd, now):
                    ctx.retry_demand = cmd
        elif not is_write and latency > 1:
            # cache hit: charge the level's latency as additional stall
            ctx.stall_cpu += latency - 1
        # stores never stall the core beyond their 1 issue cycle

        if self.ps.enabled:
            self._drive_ps(ctx, line, level, now)

    def _issue_demand(self, ctx: _ThreadContext, cmd: MemoryCommand, now: int) -> bool:
        if not self.controller.enqueue(cmd, now):
            return False
        self._waiters.setdefault(cmd.line, []).append(ctx)
        ctx.outstanding.add(cmd.line)
        self._stat_values["demand_issued"] += 1
        if len(ctx.outstanding) >= self.config.mlp:
            ctx.blocked_mem = True
        return True

    # ------------------------------------------------------------------
    def _drive_ps(self, ctx: _ThreadContext, line: int, level: Level, now: int) -> None:
        values = self._stat_values
        requests = self.ps.observe(line, l1_hit=level is _L1)
        for req in requests:
            if req.line < 0:
                continue
            if req.line in self._ps_inflight or req.line in self._waiters:
                values["ps_dropped_inflight"] += 1
                continue
            if self.hierarchy.cached_anywhere(req.line):
                values["ps_dropped_cached"] += 1
                continue
            cmd = MemoryCommand(
                _READ,
                req.line,
                thread=ctx.tid,
                provenance=_PS_PREFETCH,
                arrival=now,
            )
            if self.controller.enqueue(cmd, now):
                self._ps_inflight[req.line] = req.to_l1
                values["ps_issued"] += 1
            else:
                values["ps_dropped_queue"] += 1

    # ------------------------------------------------------------------
    def _on_read_complete(self, cmd: MemoryCommand, now: int) -> None:
        line = cmd.line
        if cmd.provenance is _PS_PREFETCH:
            to_l1 = self._ps_inflight.pop(line, True)
            writebacks = self.hierarchy.fill_from_memory(line, to_l1)
            self.ps.notify_fill(line, to_l1)
            self._stat_values["ps_fills"] += 1
        else:
            writebacks = self.hierarchy.fill_from_memory(line, True)
            self._stat_values["demand_fills"] += 1
        if writebacks:
            self.contexts[cmd.thread].writebacks.extend(writebacks)
        for ctx in self._waiters.pop(line, ()):
            ctx.outstanding.discard(line)
            ctx.blocked_mem = False

    # ------------------------------------------------------------------
    # fast-forward support
    # ------------------------------------------------------------------
    def linear_horizon(self) -> Optional[int]:
        """MC ticks for which every thread's tick is provably *linear*.

        A linear tick burns hit-latency stall and/or instruction-gap
        budget (or accrues memory-blocked stall) without touching the
        caches, the controller, or the trace cursor, so its effects can
        be applied arithmetically by :meth:`consume_wait`.

        Returns ``None`` when the horizon is unbounded (every active
        thread is waiting on memory), ``0`` when the very next tick may
        perform an action and nothing may be skipped, and otherwise the
        number of upcoming ticks that are guaranteed linear.
        """
        budget = self.budget_per_thread
        horizon: Optional[int] = None
        for ctx in self.contexts:
            if ctx.blocked_mem or (
                ctx.trace_done
                and ctx.pending is None
                and ctx.retry_demand is None
                and not ctx.outstanding
                and not ctx.writebacks
            ):
                continue  # wakes only via a read completion (an event)
            if ctx.writebacks or ctx.retry_demand is not None:
                return 0  # next tick talks to the memory controller
            linear_cpu = ctx.stall_cpu + ctx.gap_cpu
            if linear_cpu == 0:
                if ctx.trace_done and ctx.pending is None:
                    continue  # drained thread: its tick is a no-op
                return 0  # next tick executes an access / fetches a record
            ticks = linear_cpu // budget
            if ticks == 0:
                return 0
            if horizon is None or ticks < horizon:
                horizon = ticks
        return horizon

    def consume_wait(self, ticks: int) -> None:
        """Apply ``ticks`` MC cycles of linear execution in one step.

        Exactly replicates what ``ticks`` per-cycle calls of
        :meth:`tick` would have done, given that
        :meth:`linear_horizon` returned at least ``ticks``: blocked
        threads accrue memory-stall statistics, running threads burn
        hit-latency stall first and then instruction gap (retiring one
        instruction per gap CPU cycle).
        """
        cpu = ticks * self.budget_per_thread
        values = self._stat_values
        for ctx in self.contexts:
            if (  # ctx.finished, inlined as in `done`
                ctx.trace_done
                and ctx.pending is None
                and ctx.retry_demand is None
                and not ctx.outstanding
                and not ctx.writebacks
            ):
                continue
            if ctx.blocked_mem:
                values["stall_cycles_mem"] += cpu
                continue
            take_stall = ctx.stall_cpu
            if take_stall:
                if take_stall > cpu:
                    take_stall = cpu
                ctx.stall_cpu -= take_stall
            take_gap = cpu - take_stall
            if take_gap and not (ctx.trace_done and ctx.pending is None):
                ctx.gap_cpu -= take_gap
                self.retired_instructions += take_gap
