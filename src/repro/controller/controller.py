"""The Power5+-style memory controller with the embedded MS prefetcher.

Data path per MC cycle (paper Figures 1 and 4):

1. completions whose data transfer finished are delivered;
2. the **Final Scheduler** issues at most one command to DRAM, picking
   between the CAQ head and the LPQ head under the active Adaptive
   Scheduling policy — after re-checking the CAQ head against the
   Prefetch Buffer (the paper's second check point);
3. the **scheduler** moves at most one reorder-queue command into the
   CAQ — reads are checked against the Prefetch Buffer first (the
   paper's first check point) and squashed on a hit.

Reads entering the controller are forked into the Stream Filter before
any buffering, writes invalidate matching Prefetch Buffer entries, and
conflicts between regular commands and in-flight prefetches are counted
for Adaptive Scheduling and for Figure 13's "delayed regular commands".
"""

from __future__ import annotations

from collections import Counter
from heapq import heappop, heappush
from typing import Callable, List, Optional, Set, Tuple

from repro.common.config import ControllerConfig
from repro.common.stats import Stats
from repro.common.types import MemoryCommand, Provenance
from repro.controller.queues import CommandQueue, ReorderQueues
from repro.controller.schedulers import build_scheduler
from repro.controller.schedulers.base import Scheduler
from repro.dram.device import DRAMDevice
from repro.prefetch.adaptive_scheduling import lpq_allowed
from repro.prefetch.memory_side import MemorySidePrefetcher
from repro.telemetry.events import QueueDepthSample
from repro.telemetry.tracer import NULL_TRACER, Tracer

#: Called with (cmd, now) when a read's data is available to the chip.
ReadCallback = Callable[[MemoryCommand, int], None]

#: Ticks between QueueDepthSample events on an enabled tracer.
QUEUE_SAMPLE_INTERVAL = 256

#: Per-provenance latency counter names, precomputed so completion
#: delivery (one of the hottest paths) never builds f-strings.
# lint: stat-prefixes(lat_sum_, lat_cnt_, lat_max_, lat_hist_)
_LAT_KEYS = {
    prov: (
        f"lat_sum_{prov.value}",
        f"lat_cnt_{prov.value}",
        f"lat_max_{prov.value}",
        # histogram bucket b counts latencies in [2^b, 2^(b+1))
        tuple(f"lat_hist_{prov.value}_{b}" for b in range(64)),
    )
    for prov in Provenance
}

_DEMAND = Provenance.DEMAND
_PS_PREFETCH = Provenance.PS_PREFETCH
_MS_PREFETCH = Provenance.MS_PREFETCH


class MemoryController:
    """Reorder queues -> scheduler -> CAQ -> Final Scheduler -> DRAM."""

    def __init__(
        self,
        config: ControllerConfig,
        dram: DRAMDevice,
        prefetcher: MemorySidePrefetcher,
        cpu_ratio: int = 8,
        on_read_complete: Optional[ReadCallback] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        config.validate()
        self.config = config
        self.dram = dram
        self.ms = prefetcher
        self.cpu_ratio = cpu_ratio
        self.on_read_complete = on_read_complete
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: set by the core: callable returning outstanding demand misses
        self.core_depth_probe: Optional[Callable[[], int]] = None
        self.queues = ReorderQueues(config.read_queue_depth, config.write_queue_depth)
        self.caq = CommandQueue(config.caq_depth, "CAQ")
        self.scheduler: Scheduler = build_scheduler(config.scheduler)
        self._completions: List[Tuple[int, int, MemoryCommand]] = []
        self._conflict_counted: Set[int] = set()
        self._delayed_counted: Set[int] = set()
        # lines with a write queued (reorder queue or CAQ): reads to
        # these lines are answered by store-forwarding, not DRAM
        self._pending_write_lines: Counter = Counter()
        self._now = 0
        self.ms.on_merge_ready = self._merge_ready
        self.stats = Stats()
        # hot path: counters add straight into the underlying mapping
        # (see Stats.raw), and the queue containers are aliased so a
        # length probe is one len() call
        self._stat_values = self.stats.raw()
        self._rq_items = self.queues.reads._items
        self._wq_items = self.queues.writes._items
        self._caq_items = self.caq._items
        self._lpq_items = self.ms.lpq._queue
        self._lpq_lines = self.ms.lpq._lines
        self._pb_sets = self.ms.buffer._sets
        self._pb_num_sets = self.ms.buffer.num_sets
        self._caq_depth = self.caq.depth
        # Occupancy integrals (see settle_integrals): the clock of a
        # queue mutation is the index of the next depth sample, ``now``
        # in the controller phase of a cycle and ``now + 1`` in its core
        # phase (enqueue).  Each accumulator adds the clock when a
        # command leaves its queue and subtracts it when one enters.
        self._rq_acc = 0
        self._wq_acc = 0
        self._caq_acc = 0
        # the integrals exist from the start, in their per-tick order
        self.settle_integrals(0)

    # ------------------------------------------------------------------
    # command entry
    # ------------------------------------------------------------------
    def enqueue(self, cmd: MemoryCommand, now: int) -> bool:
        """Admit a command into the reorder queues; False means retry."""
        values = self._stat_values
        if cmd.is_read:
            if len(self._rq_items) >= self.queues.reads.depth:
                values["read_rejects"] += 1
                return False
            cmd.arrival = now
            values["reads_arrived"] += 1
            if cmd.provenance is _PS_PREFETCH:
                values["reads_ps"] += 1
            else:
                values["reads_demand"] += 1
            if self.ms.enabled:
                # Figure 4: Reads fork into the Stream Filter on entry.
                self.ms.observe_read(cmd, now, now * self.cpu_ratio)
            self._rq_items.append(cmd)
            self._rq_acc -= now + 1
            return True
        if len(self._wq_items) >= self.queues.writes.depth:
            values["write_rejects"] += 1
            return False
        cmd.arrival = now
        values["writes_arrived"] += 1
        if self.ms.enabled:
            self.ms.observe_write(cmd, now)
        self._wq_items.append(cmd)
        self._wq_acc -= now + 1
        self._pending_write_lines[cmd.line] += 1
        return True

    # ------------------------------------------------------------------
    # per-cycle work
    # ------------------------------------------------------------------
    def tick(self, now: int) -> None:
        self._now = now
        completions = self._completions
        if completions and completions[0][0] <= now:
            self._deliver_completions(now)
        ms = self.ms
        if ms._tick_engine or ms.tracer.enabled:
            # otherwise MemorySidePrefetcher.tick has nothing to do
            ms.tick(now * self.cpu_ratio, now)
        if self._caq_items or self._lpq_items:
            self._final_scheduler(now)
        if self._rq_items or self._wq_items:
            self._reorder_to_caq(now)
        # no integral arithmetic here: the queue mutations keep the
        # occupancy accumulators, and settle_integrals reads them
        if self.tracer.enabled and now % QUEUE_SAMPLE_INTERVAL == 0:
            self._emit_depth_sample(now)

    def settle_integrals(self, clock: int) -> None:
        """Write the ``ticks``/``occ_*`` integrals as of ``clock``.

        ``clock`` is the number of depth samples the integrals cover:
        the next cycle to run at a loop boundary, or ``now + 1`` inside
        the core phase of cycle ``now``.  A queue's integral is its
        accumulator (exit clocks minus entry clocks of every command
        that passed through) plus its current length times ``clock``,
        so the averages fall out as ``occ_x / ticks`` over wall-cycle
        time.  The event loop settles before collecting a result and
        epoch probes settle where they sample; the reference loop
        bumps the integrals every tick and never settles.
        """
        values = self._stat_values
        values["ticks"] = float(clock)
        values["occ_read_queue"] = float(
            self._rq_acc + len(self._rq_items) * clock
        )
        values["occ_write_queue"] = float(
            self._wq_acc + len(self._wq_items) * clock
        )
        values["occ_caq"] = float(self._caq_acc + len(self._caq_items) * clock)
        values["occ_lpq"] = float(
            self.ms.lpq.occ_acc + len(self._lpq_items) * clock
        )

    def tick_reference(self, now: int) -> None:
        """The literal per-cycle tick — one MC cycle's executable
        specification, matching the pre-fast-forward main loop: every
        pipeline stage is invoked unconditionally, the integrals go
        through the Stats API, and the MS block's clocks and engine
        tick every cycle.  ``run(loop="reference")`` steps the machine
        exclusively through this path; the guarded :meth:`tick` plus
        :meth:`bulk_tick` must land in exactly the same state (the
        golden equality test pins that)."""
        self._now = now
        self._deliver_completions(now)
        self.ms.tick_reference(now * self.cpu_ratio, now)
        self._final_scheduler(now)
        self._reorder_to_caq(now)
        # occupancy integrals: averages fall out as sum / ticks
        bump = self.stats.bump
        bump("ticks")
        bump("occ_read_queue", len(self.queues.reads))
        bump("occ_write_queue", len(self.queues.writes))
        bump("occ_caq", len(self.caq))
        bump("occ_lpq", len(self.ms.lpq))
        if self.tracer.enabled and now % QUEUE_SAMPLE_INTERVAL == 0:
            self._emit_depth_sample(now)

    def _emit_depth_sample(self, t: int) -> None:
        probe = self.core_depth_probe
        self.tracer.emit(
            QueueDepthSample(
                t=t,
                read_queue=len(self.queues.reads),
                write_queue=len(self.queues.writes),
                caq=len(self.caq),
                lpq=len(self.ms.lpq),
                core_outstanding=probe() if probe is not None else 0,
            )
        )

    # -- event-driven fast-forward support -------------------------------
    def bulk_tick(self, start: int, cycles: int) -> None:
        """Account ``cycles`` provably-inert MC cycles ``[start, start+cycles)``.

        The event-driven main loop calls this instead of ticking
        through a deterministic wait.  Queue contents are constant
        across such a window by construction, so the occupancy
        integrals need nothing here (they settle from the clock), and
        the telemetry samples a per-cycle loop would have emitted at
        ``QUEUE_SAMPLE_INTERVAL`` boundaries are emitted here with the
        (constant) depths — a fast-forward jump leaves no holes in the
        queue-depth series.
        """
        end = start + cycles - 1
        self._now = end
        ms = self.ms
        if ms._tick_engine or ms.tracer.enabled:
            ms.tick(end * self.cpu_ratio, end)
        rq_items = self._rq_items
        if rq_items and ms.enabled:
            # CAQ-full wait: _reorder_to_caq still probes the oldest
            # read for a prefetch-held bank every cycle.  The hold is
            # monotone (held_until is frozen mid-wait), so the first
            # window cycle decides the whole window.
            head_read = rq_items[0]
            if (
                head_read.uid not in self._conflict_counted
                and self.dram.bank_holder(head_read.line, start) is _MS_PREFETCH
            ):
                self._conflict_counted.add(head_read.uid)
                ms.scheduler.record_conflict()
        if self.tracer.enabled:
            first = start + (-start) % QUEUE_SAMPLE_INTERVAL
            for t in range(first, end + 1, QUEUE_SAMPLE_INTERVAL):
                self._emit_depth_sample(t)

    def next_scheduler_event(
        self, now: int
    ) -> Tuple[Optional[int], Optional[MemoryCommand]]:
        """Earliest cycle at which the Final Scheduler could act.

        Pure query, only valid while the reorder->CAQ stage is frozen —
        reorder queues empty, or the CAQ full (the caller checks).
        Returns ``(cycle, refused)``:

        * ``(None, None)`` — the scheduler cannot act until some other
          event (a completion) changes machine state;
        * ``(-1, None)`` — the very next tick may act (Prefetch Buffer
          check point would fire); do not fast-forward;
        * ``(t, cmd)`` — the pending CAQ/LPQ head ``cmd`` clears DRAM's
          bank and bus constraints at cycle ``t``; every cycle before
          ``t`` is a deterministic wait.  ``cmd`` records that a
          per-cycle loop would have attempted (and been refused) DRAM
          issue each cycle — the fast-forward path mirrors the lazy
          refresh application and the first refusal's Figure-13
          accounting (see :meth:`note_wait_refusal`).
        """
        caq_items = self._caq_items
        lpq_items = self._lpq_items
        if not (caq_items or lpq_items):
            return None, None
        ms = self.ms
        if not ms.enabled:
            if caq_items:
                cmd = caq_items[0]
                return self.dram.earliest_issue_cycle(cmd), cmd
            return None, None
        if caq_items and caq_items[0].is_read and ms.would_serve(
            caq_items[0].line
        ):
            return -1, None
        # The caller guarantees the reorder queues are empty whenever
        # the CAQ is, so policy 1 sees them empty and policy 2 finds
        # nothing issuable in them.
        if lpq_allowed(
            ms.scheduler.policy, caq_items, lpq_items, ms.lpq.depth, True, False
        ):
            cmd = lpq_items[0]
        elif caq_items:
            cmd = caq_items[0]
        else:
            return None, None
        return self.dram.earliest_issue_cycle(cmd), cmd

    def note_wait_refusal(self, cmd: MemoryCommand, now: int) -> None:
        """Replicate the first refused ``try_issue`` of a wait window.

        A per-cycle loop retries the refused head every wait cycle; the
        only side effect of those refusals is the Figure-13
        delayed-regular count, and it can fire only on the *first* wait
        cycle (the bank hold that sets ``blocked_by`` never appears
        mid-wait — ``held_until`` is frozen until the next issue).  The
        event-driven loop calls this once per fast-forward jump with
        the first skipped cycle.
        """
        if cmd.is_ms_prefetch or cmd.uid in self._delayed_counted:
            return
        if self.dram.bank_holder(cmd.line, now) is Provenance.MS_PREFETCH:
            self._delayed_counted.add(cmd.uid)
            self.stats.bump("delayed_regular")

    def _deliver_completions(self, now: int) -> None:
        completions = self._completions
        values = self._stat_values
        while completions and completions[0][0] <= now:
            cmd = heappop(completions)[2]
            if cmd.is_ms_prefetch:
                self.ms.notify_complete(cmd)
            elif cmd.is_read:
                latency = now - cmd.arrival
                k_sum, k_cnt, k_max, k_hist = _LAT_KEYS[cmd.provenance]
                values[k_sum] += latency  # lint: stats-dynamic
                values[k_cnt] += 1  # lint: stats-dynamic
                if latency > values.get(k_max, 0):
                    values[k_max] = latency  # lint: stats-dynamic
                # log2-bucketed histogram: bucket b counts latencies in
                # [2^b, 2^(b+1)); bucket 0 holds 0- and 1-cycle responses
                bucket = latency.bit_length() - 1 if latency > 1 else 0
                values[k_hist[bucket]] += 1  # lint: stats-dynamic
                if self.on_read_complete is not None:
                    self.on_read_complete(cmd, now)

    def _merge_ready(self, cmd: MemoryCommand) -> None:
        """A read merged with an in-flight prefetch got its data."""
        self.stats.bump("merged_responses")
        heappush(self._completions, (
            self._now + self.config.overhead_mc_cycles, cmd.uid, cmd
        ))

    # -- Final Scheduler ------------------------------------------------
    def _final_scheduler(self, now: int) -> None:
        ms = self.ms
        config = self.config
        values = self._stat_values
        caq_items = self._caq_items
        if ms.enabled:
            # Second Prefetch Buffer check: the head of the CAQ may have
            # been covered by a prefetch that completed while it sat in
            # the queue.  ms.would_serve's test, inline: most heads have
            # no queued, buffered or in-flight prefetch of their line,
            # and then neither probe would act.
            pb_sets = self._pb_sets
            pb_num_sets = self._pb_num_sets
            while caq_items:
                head = caq_items[0]
                if not head.is_read:
                    break
                line = head.line
                if not (
                    line in self._lpq_lines
                    or line in pb_sets[line % pb_num_sets]
                    or (line in ms.in_flight and line not in ms._cancelled)
                ):
                    break
                if ms.read_lookup(line, now):
                    caq_items.popleft()
                    self._caq_acc += now
                    self._buffer_hit(head, now, True)
                elif ms.try_merge(head):
                    caq_items.popleft()
                    self._caq_acc += now
                    self._merged(head, True)
                else:
                    break

        lpq_items = self._lpq_items
        use_lpq = False
        if lpq_items and ms.enabled:
            policy = ms.scheduler.policy
            has_issuable = False
            if policy == 2 and not caq_items:
                # only policy 2 reads it, and only with an empty CAQ:
                # has_issuable scans every reorder candidate against
                # DRAM timing, so compute it lazily
                drain = len(self._wq_items) >= config.write_drain_threshold
                has_issuable = Scheduler.has_issuable(
                    self.queues.candidates(drain), self.dram, now
                )
            use_lpq = lpq_allowed(
                policy,
                caq_items,
                lpq_items,
                ms.lpq.depth,
                not (self._rq_items or self._wq_items),
                has_issuable,
            )
        if use_lpq:
            cmd = lpq_items[0]
        elif caq_items:
            cmd = caq_items[0]
        else:
            return
        accepted, completion, blocked_by = self.dram.try_issue(cmd, now)
        if accepted:
            if use_lpq:
                ms.lpq.pop(now)
            else:
                caq_items.popleft()
                self._caq_acc += now
            self.scheduler.notify_issue(cmd, self.dram)
            heappush(self._completions, (
                completion + config.overhead_mc_cycles, cmd.uid, cmd
            ))
            if cmd.is_write:
                count = self._pending_write_lines.get(cmd.line, 0)
                if count <= 1:
                    self._pending_write_lines.pop(cmd.line, None)
                else:
                    self._pending_write_lines[cmd.line] = count - 1
            if cmd.is_ms_prefetch:
                ms.notify_issue(cmd)
                values["issued_prefetch"] += 1
            else:
                values["issued_regular"] += 1
                self._delayed_counted.discard(cmd.uid)
                self._conflict_counted.discard(cmd.uid)
        elif (
            blocked_by is _MS_PREFETCH
            and not cmd.is_ms_prefetch
            and cmd.uid not in self._delayed_counted
        ):
            # Figure 13: a regular command delayed by a memory-side prefetch.
            self._delayed_counted.add(cmd.uid)
            values["delayed_regular"] += 1

    # -- reorder queues -> CAQ -------------------------------------------
    def _reorder_to_caq(self, now: int) -> None:
        rq_items = self._rq_items
        wq_items = self._wq_items
        if not (rq_items or wq_items):
            return
        ms = self.ms

        # Adaptive Scheduling feedback: the oldest read being held off the
        # CAQ by a bank occupied by an in-flight prefetch is a conflict.
        if rq_items and ms.enabled:
            head_read = rq_items[0]
            if (
                head_read.uid not in self._conflict_counted
                and self.dram.bank_holder(head_read.line, now) is _MS_PREFETCH
            ):
                self._conflict_counted.add(head_read.uid)
                ms.scheduler.record_conflict()

        caq_items = self._caq_items
        if len(caq_items) >= self._caq_depth:
            return
        # ReorderQueues.candidates, on the live queues: reads always,
        # writes when draining or when there are no reads
        if not rq_items:
            candidates = wq_items
        elif len(wq_items) >= self.config.write_drain_threshold:
            candidates = [*rq_items, *wq_items]
        else:
            candidates = rq_items
        cmd = self.scheduler.select(candidates, self.dram, now)
        if cmd is None:
            return
        if cmd.is_write:
            wq_items.remove(cmd)
            self._wq_acc += now
        else:
            rq_items.remove(cmd)
            self._rq_acc += now
            if cmd.line in self._pending_write_lines:
                # read-after-write hazard: the freshest data for this
                # line sits in the write queue — forward it
                self._stat_values["raw_forwards"] += 1
                heappush(self._completions, (
                    now + self.config.overhead_mc_cycles, cmd.uid, cmd
                ))
                return
            if ms.enabled:
                if ms.read_lookup(cmd.line, now):
                    # First Prefetch Buffer check: serve the read without DRAM.
                    self._buffer_hit(cmd, now, False)
                    return
                if ms.try_merge(cmd):
                    self._merged(cmd, False)
                    return
        caq_items.append(cmd)
        self._caq_acc -= now

    # -- Prefetch Buffer check points -------------------------------------
    # Literal per-provenance keys (no f-string or enum ``.value`` per
    # event); the stat-key registry reads each conditional as its arms.
    def _buffer_hit(self, cmd: MemoryCommand, now: int, in_caq: bool) -> None:
        """Count a read served by the Prefetch Buffer and schedule its data."""
        values = self._stat_values
        prov = cmd.provenance
        values["pb_hits_caq" if in_caq else "pb_hits_pre_caq"] += 1
        values[
            "pb_hits_demand" if prov is _DEMAND
            else "pb_hits_ps_prefetch" if prov is _PS_PREFETCH
            else "pb_hits_ms_prefetch"
        ] += 1
        config = self.config
        heappush(self._completions, (
            now + config.pb_hit_latency_mc + config.overhead_mc_cycles, cmd.uid, cmd
        ))

    def _merged(self, cmd: MemoryCommand, in_caq: bool) -> None:
        """Count a read merged with an in-flight prefetch of its line."""
        values = self._stat_values
        prov = cmd.provenance
        values["pb_merges_caq" if in_caq else "pb_merges_pre_caq"] += 1
        values[
            "pb_merges_demand" if prov is _DEMAND
            else "pb_merges_ps_prefetch" if prov is _PS_PREFETCH
            else "pb_merges_ms_prefetch"
        ] += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def idle(self) -> bool:
        """Nothing queued or in flight anywhere (LPQ included)."""
        return (
            not self._completions
            and self.queues.empty
            and self.caq.empty
            and len(self.ms.lpq) == 0
        )

    @property
    def pb_hits(self) -> float:
        return self.stats["pb_hits_pre_caq"] + self.stats["pb_hits_caq"]
