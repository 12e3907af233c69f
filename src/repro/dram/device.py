"""The DRAM device: address mapping, bank array, and the data bus.

The controller's Final Scheduler calls :meth:`DRAMDevice.try_issue` with
one :class:`~repro.common.types.MemoryCommand` per MC cycle at most; the
device either accepts it — reserving the target bank and a data-bus slot
and returning the completion cycle — or reports why it cannot start yet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from repro.common.config import DRAMConfig
from repro.common.stats import Stats
from repro.common.types import MemoryCommand, Provenance
from repro.dram.bank import Bank
from repro.dram.power import DRAMPowerModel
from repro.telemetry.events import DramCommand
from repro.telemetry.tracer import NULL_TRACER, Tracer


@dataclass(frozen=True, slots=True)
class AddressMap:
    """Line address -> (bank index, row) mapping.

    Consecutive lines interleave across all banks (banks of rank 0, then
    rank 1, ...) so unit-stride streams spread over the whole bank array;
    the row number advances once per full sweep of ``row_lines`` in each
    bank.  This is the standard line-interleaved mapping for streaming
    throughput.
    """

    total_banks: int
    row_lines: int

    def locate(self, line: int) -> Tuple[int, int]:
        """Return (bank, row) for a line address.

        Within a bank, each row holds ``row_lines`` of that bank's lines,
        so a sequential stream stays row-open in every bank for
        ``row_lines * total_banks`` consecutive line addresses.
        """
        bank = line % self.total_banks
        row = (line // self.total_banks) // self.row_lines
        return bank, row


class IssueResult(NamedTuple):
    """Outcome of a try_issue call.

    A tuple, so the controller unpacks it and fields read through
    C-level getters; an acceptance builds one with ``tuple.__new__``
    and every refusal returns a shared instance.
    """

    accepted: bool
    completion: int = 0  # cycle at which data transfer finishes
    blocked_by: Optional[Provenance] = None  # who holds the bank, if blocked


_new_tuple = tuple.__new__

#: refusal per holder of the refused command's bank (None: the bus)
_REFUSED = {
    holder: IssueResult(False, 0, holder) for holder in (None, *Provenance)
}


class DRAMDevice:
    """One memory channel: an array of banks sharing one data bus."""

    #: maximum cycles of future bus reservation allowed at issue; keeps
    #: the FIFO CAQ from burying the bus arbitrarily deep.
    MAX_BUS_LEAD = 64

    def __init__(
        self,
        config: DRAMConfig,
        power: Optional[DRAMPowerModel] = None,
        tracer: Optional[Tracer] = None,
    ):
        config.validate()
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.timing = config.timing
        self.amap = AddressMap(config.total_banks, config.row_lines)
        closed = config.page_policy == "closed"
        self.banks: List[Bank] = [
            Bank(config.timing, auto_precharge=closed)
            for _ in range(config.total_banks)
        ]
        self.bus_free_at = 0
        self.power = power
        # staggered per-rank refresh deadlines (0 = refresh disabled)
        if config.timing.t_refi:
            step = config.timing.t_refi // max(config.ranks, 1)
            self._next_refresh = [
                config.timing.t_refi + r * step for r in range(config.ranks)
            ]
            self._refresh_horizon = min(self._next_refresh)
        else:
            self._next_refresh = []
            self._refresh_horizon = None
        self.stats = Stats()
        # hot path: try_issue adds straight into the counter mapping
        self._stat_values = self.stats.raw()

    # ------------------------------------------------------------------
    # refresh
    # ------------------------------------------------------------------
    def _apply_refreshes(self, now: int) -> None:
        """Catch up on any refresh deadlines that have passed.

        Each due refresh blocks every bank of its rank for tRFC starting
        at its deadline.  Applied lazily from try_issue, which is exact
        enough: a refresh only matters when a command wants the rank.
        """
        horizon = self._refresh_horizon
        if horizon is None or now < horizon:
            return  # cheap path: no deadline has passed since last call
        t = self.timing
        bpr = self.config.banks_per_rank
        for rank, deadline in enumerate(self._next_refresh):
            while deadline <= now:
                for bank in self.banks[rank * bpr : (rank + 1) * bpr]:
                    bank.block_until(deadline + t.t_rfc)
                deadline += t.t_refi
                self.stats.bump("refreshes")
            self._next_refresh[rank] = deadline
        self._refresh_horizon = min(self._next_refresh)

    def catch_up_refreshes(self, now: int) -> None:
        """Apply every refresh deadline up to ``now`` in one call.

        Refresh application is lazy and order-insensitive (pure
        ``max`` catch-ups plus a deadline-driven counter), so one call
        here is exactly equivalent to the per-cycle ``try_issue``
        attempts a literal loop would have made across a fast-forward
        window.  The event-driven loop calls this when it jumps over a
        window in which a CAQ/LPQ head was waiting on DRAM timing.
        """
        self._apply_refreshes(now)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def locate(self, line: int) -> Tuple[int, int]:
        return self.amap.locate(line)

    def is_row_hit(self, line: int) -> bool:
        """Would this command hit an open row right now?"""
        bank, row = self.amap.locate(line)
        return self.banks[bank].row_hit(row)

    def bank_holder(self, line: int, now: int) -> Optional[Provenance]:
        """Provenance of the in-flight command holding the line's bank."""
        # Bank.holder_at, inlined: the controller probes the read-queue
        # head's bank on most cycles
        bank = self.banks[line % self.amap.total_banks]
        if now < bank.held_until:
            return bank.holder
        return None

    def ready_now(self, cmd: MemoryCommand, now: int) -> bool:
        """Could this command start its column access without waiting on
        the bank (row open or immediately openable) and find bus room?"""
        bank_i, row = self.amap.locate(cmd.line)
        bank = self.banks[bank_i]
        if bank.busy_at(now):
            return False
        start = bank.access_start(row, now)
        return start <= now + self.timing.t_rcd + self.timing.t_rp

    def earliest_issue_cycle(self, cmd: MemoryCommand) -> int:
        """Earliest cycle :meth:`try_issue` could accept ``cmd``.

        Pure query used by the event-driven loop: acceptance requires
        the target bank to have released its in-flight hold and the
        data bus to be within :data:`MAX_BUS_LEAD` of reservation.
        (Refresh blocks delay the *access*, not acceptance — they are
        folded into the completion time by ``reserve``.)  The returned
        cycle may be in the past, meaning the command is issuable now.
        """
        bank = self.banks[cmd.line % self.amap.total_banks]
        bus_at = self.bus_free_at - self.MAX_BUS_LEAD
        held_until = bank.held_until
        return held_until if held_until > bus_at else bus_at

    # ------------------------------------------------------------------
    # issue
    # ------------------------------------------------------------------
    def try_issue(self, cmd: MemoryCommand, now: int) -> IssueResult:
        """Attempt to start ``cmd`` at cycle ``now``.

        The command is rejected when the target bank is still occupied by
        an earlier in-flight access or when the data bus is reserved too
        far into the future; otherwise the bank and a bus slot are
        reserved and the completion cycle is returned.
        """
        horizon = self._refresh_horizon
        if horizon is not None and now >= horizon:
            self._apply_refreshes(now)
        amap = self.amap
        nbanks = amap.total_banks
        line = cmd.line
        bank_i = line % nbanks
        bank = self.banks[bank_i]
        if now < bank.held_until:
            return _REFUSED[bank.holder_at(now)]
        bus_free_at = self.bus_free_at
        if bus_free_at > now + self.MAX_BUS_LEAD:
            return _REFUSED[None]

        row = (line // nbanks) // amap.row_lines
        is_write = cmd.is_write
        cas_at, activated = bank.reserve(row, now, is_write)
        t = self.timing
        data_start = cas_at + (t.t_wl if is_write else t.t_cl)
        if data_start < bus_free_at:
            data_start = bus_free_at
        completion = data_start + t.burst_cycles
        self.bus_free_at = completion
        bank.hold(cmd.provenance, completion)

        values = self._stat_values
        values["issued"] += 1
        values["issued_writes" if is_write else "issued_reads"] += 1
        if activated:
            values["activations"] += 1
        else:
            values["row_hits"] += 1
        if self.power is not None:
            self.power.record_access(is_write, activated)
        if self.tracer.enabled:
            self.tracer.emit(
                DramCommand(
                    t=now,
                    line=cmd.line,
                    bank=bank_i,
                    row=row,
                    is_write=cmd.is_write,
                    provenance=cmd.provenance.value,
                    row_hit=not activated,
                    completion=completion,
                )
            )
        return _new_tuple(IssueResult, (True, completion, None))

    # ------------------------------------------------------------------
    def utilization(self, elapsed: int) -> float:
        """Fraction of elapsed cycles the data bus transferred data."""
        if elapsed <= 0:
            return 0.0
        busy = self.stats["issued"] * self.timing.burst_cycles
        return min(1.0, busy / elapsed)
