"""A single DRAM bank's timing state.

The bank tracks its open row and the earliest cycles at which the next
column access or the next activate may start, honouring tRCD, tCL, tRP,
tRAS, tRC and tWR of :class:`~repro.common.config.DRAMTimingConfig`.
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import DRAMTimingConfig


class Bank:
    """Timing state machine for one DRAM bank.

    ``auto_precharge=True`` models a closed-page policy: the row is
    closed after each access, so subsequent accesses always pay tRCD
    (but never a row-conflict precharge on the critical path).
    """

    __slots__ = (
        "timing",
        "cas_gap",
        "auto_precharge",
        "open_row",
        "cas_ready",
        "pre_ready",
        "act_ready",
        "holder",
        "held_until",
    )

    def __init__(self, timing: DRAMTimingConfig, auto_precharge: bool = False) -> None:
        self.timing = timing
        #: tCCD gates back-to-back CAS commands; the burst occupies the
        #: column path at least as long
        self.cas_gap = max(timing.t_ccd, timing.burst_cycles)
        self.auto_precharge = auto_precharge
        self.open_row: Optional[int] = None
        #: earliest cycle a CAS to the open row may start
        self.cas_ready: int = 0
        #: earliest cycle a precharge may start (tRAS / tWR constraints)
        self.pre_ready: int = 0
        #: earliest cycle an activate may start (tRC / tRP constraints)
        self.act_ready: int = 0
        #: provenance marker of the in-flight command holding this bank
        self.holder = None
        #: cycle until which `holder` is considered to occupy the bank
        self.held_until: int = 0

    def row_hit(self, row: int) -> bool:
        """Would an access to ``row`` hit the open row?"""
        return self.open_row == row

    def access_start(self, row: int, now: int) -> int:
        """Earliest cycle the CAS for ``row`` could start if issued now.

        Pure query — does not change state.
        """
        if self.open_row == row:
            return max(now, self.cas_ready)
        if self.open_row is None:
            act_at = max(now, self.act_ready)
            return act_at + self.timing.t_rcd
        # row conflict: precharge, then activate, then CAS
        pre_at = max(now, self.pre_ready)
        act_at = max(pre_at + self.timing.t_rp, self.act_ready)
        return act_at + self.timing.t_rcd

    def reserve(self, row: int, now: int, is_write: bool) -> tuple:
        """Commit an access to ``row`` starting no earlier than ``now``.

        Returns ``(cas_at, activated)`` where ``cas_at`` is the cycle the
        column access starts and ``activated`` says whether an
        activate/precharge pair was spent (for the power model).  Runs
        once per issued command: every ``max`` is a comparison.
        """
        t = self.timing
        activated = False
        if self.open_row == row:
            cas_at = self.cas_ready
            if cas_at < now:
                cas_at = now
        else:
            if self.open_row is None:
                act_at = self.act_ready
                if act_at < now:
                    act_at = now
            else:
                pre_at = self.pre_ready
                if pre_at < now:
                    pre_at = now
                act_at = pre_at + t.t_rp
                if act_at < self.act_ready:
                    act_at = self.act_ready
            cas_at = act_at + t.t_rcd
            activated = True
            self.open_row = row
            self.act_ready = act_at + t.t_rc
            self.pre_ready = act_at + t.t_ras
        # Data transfer occupies the column path for the burst; tCCD
        # gates back-to-back CAS commands.
        cas_ready = cas_at + self.cas_gap
        if cas_ready > self.cas_ready:
            self.cas_ready = cas_ready
        burst_end = cas_at + (t.t_wl if is_write else t.t_cl) + t.burst_cycles
        if is_write:
            # a write pushes out the earliest precharge by write recovery
            burst_end += t.t_wr
        if burst_end > self.pre_ready:
            self.pre_ready = burst_end
        if self.auto_precharge:
            # closed page: the precharge is folded in; the next activate
            # may start once the (auto-)precharge completes
            act_ready = self.pre_ready + t.t_rp
            if act_ready > self.act_ready:
                self.act_ready = act_ready
            self.open_row = None
        return cas_at, activated

    def block_until(self, until: int) -> None:
        """Refresh support: the bank accepts nothing before ``until``."""
        self.cas_ready = max(self.cas_ready, until)
        self.act_ready = max(self.act_ready, until)
        self.pre_ready = max(self.pre_ready, until)
        self.open_row = None  # refresh closes all rows

    def hold(self, provenance, until: int) -> None:
        """Mark the bank as occupied by a command until ``until``."""
        self.holder = provenance
        self.held_until = until

    def holder_at(self, now: int):
        """Provenance of the command holding the bank now, or None."""
        if self.holder is not None and now < self.held_until:
            return self.holder
        return None

    def busy_at(self, now: int) -> bool:
        """Is the bank mid-access at cycle ``now``?"""
        return now < self.held_until
