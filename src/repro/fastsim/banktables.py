"""Precomputed per-policy DRAM bank-timing tables.

The cycle-accurate device walks the ACT/CAS/PRE state machine command
by command.  The fast model only needs the *service time* each access
class costs under a given page policy, and those are pure functions of
:class:`~repro.common.config.DRAMTimingConfig` — so they are computed
once per (timing, page-policy) identity and cached, exactly the
"precomputed bank-timing table" half of the ROADMAP's two-fidelity
route.

An access falls into one of three classes:

* ``row_hit``   — the bank already holds the row: CAS + burst;
* ``row_miss``  — a different row is open: PRE + ACT + CAS + burst;
* ``row_empty`` — the bank is precharged (closed-page policy, or first
  touch): ACT + CAS + burst.

Writes substitute the write CAS latency.  ``bus_cycles`` is the data
bus occupancy every access adds regardless of bank state — the term
that bounds throughput when many banks are busy at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.common.config import DRAMConfig


@dataclass(frozen=True)
class BankTimingTable:
    """Service times (MC cycles) for one DRAM config + page policy."""

    page_policy: str
    read_hit: int
    read_miss: int
    read_empty: int
    write_hit: int
    write_miss: int
    write_empty: int
    bus_cycles: int
    banks: int  # total banks across ranks (parallel servers)
    row_lines: int  # cache lines per DRAM row (locality granule)


_tables: Dict[Tuple, BankTimingTable] = {}


def _identity(dram: DRAMConfig) -> Tuple:
    t = dram.timing
    return (
        dram.page_policy, dram.ranks, dram.banks_per_rank, dram.row_lines,
        t.t_rcd, t.t_cl, t.t_rp, t.t_ras, t.t_rc, t.t_wl, t.t_wr,
        t.burst_cycles,
    )


def bank_table(dram: DRAMConfig) -> BankTimingTable:
    """The (cached) timing table for one DRAM configuration."""
    key = _identity(dram)
    table = _tables.get(key)
    if table is not None:
        return table
    t = dram.timing
    burst = t.burst_cycles
    read_empty = t.t_rcd + t.t_cl + burst
    read_miss = t.t_rp + read_empty
    read_hit = t.t_cl + burst
    write_empty = t.t_rcd + t.t_wl + burst
    write_miss = t.t_rp + write_empty
    write_hit = t.t_wl + burst
    if dram.page_policy == "closed":
        # Every access re-opens its row; there are no hits or conflicts.
        read_hit = read_miss = read_empty
        write_hit = write_miss = write_empty
    table = BankTimingTable(
        page_policy=dram.page_policy,
        read_hit=read_hit,
        read_miss=read_miss,
        read_empty=read_empty,
        write_hit=write_hit,
        write_miss=write_miss,
        write_empty=write_empty,
        bus_cycles=burst,
        banks=dram.ranks * dram.banks_per_rank,
        row_lines=dram.row_lines,
    )
    _tables[key] = table
    return table


def clear_tables() -> None:
    """Drop the cache (tests use this for isolation)."""
    _tables.clear()
