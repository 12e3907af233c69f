"""The fast analytic model: milliseconds per grid cell, not seconds.

Where the cycle-accurate simulator advances every component every MC
cycle (or event), this model *computes* the run outcome from
first-order structure, in two passes:

* a single unified LRU **capacity filter** (L1+L2+L3 lines) decides
  which accesses reach the memory controller — compulsory and capacity
  misses, dirty-eviction write traffic.  It depends on nothing but the
  trace and the capacity, so it runs once per trace and every config
  of a grid reuses it (:func:`miss_stream`);
* one pass per config over those misses prices them:
  - a slot-limited **stream tracker** feeds real
    :class:`~repro.prefetch.slh.LikelihoodTables` (the paper's LHT
    pair), so ASD prefetch decisions use the genuine inequality (5)/(6)
    over the genuine stream-length histogram, epoch by epoch;
  - a precomputed :mod:`~repro.fastsim.banktables` table prices each
    DRAM access by row state (hit / miss / empty) under the exact
    device's line-interleaved address map;
  - a **queueing approximation** advances congestion state once per SLH
    epoch ("batched state advance"): bank and bus utilisation observed
    in epoch *k* sets the M/D/1-style queue wait applied in epoch *k+1*;
  - DRAM energy reuses the exact :class:`~repro.dram.power.DRAMPowerModel`
    arithmetic with the predicted activity counts.

The output is a normal :class:`~repro.system.results.RunResult` whose
``stats`` carry every key the figure pipeline reads (coverage, accuracy,
latency, occupancy), plus a ``fast.*`` namespace with model-internal
diagnostics, and whose ``fidelity`` field marks the tier.  Expected
error versus the exact simulator is a few to ~20 percent per metric —
quantified, per sweep, by :mod:`repro.fastsim.gate`.

Determinism: the model is a pure function of (config, traces); it never
consults the host clock or an RNG, and it is subject to the same
analysislint DET rules as the cycle-accurate packages.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Union

from repro.common.config import SystemConfig
from repro.dram.power import DRAMPowerModel
from repro.fastsim.banktables import BankTimingTable, bank_table
from repro.fastsim.version import FAST_MODEL_VERSION, FIDELITY_FAST
from repro.prefetch.slh import LikelihoodTables
from repro.system.results import RunResult
from repro.telemetry.probes import EpochProbes
from repro.workloads.trace import Trace

#: Stream position at which the Power5-style processor-side prefetcher
#: is considered ramped (detected on the 2nd sequential miss, covering
#: from the 3rd).
_PS_RAMP_POSITION = 3

#: Utilisation is clamped below 1 so the M/D/1 wait stays finite.
_RHO_CAP = 0.95


class _StreamSlot:
    """One simplified Stream Filter slot.

    ``expires`` is the MC-read index at which the slot's lifetime runs
    out — lifetimes count reads (the repo's ``lifetime_unit="reads"``
    default), so expiry is a comparison, not a per-read decrement.
    """

    __slots__ = ("length", "expires")

    def __init__(self, expires: int) -> None:
        self.length = 1
        self.expires = expires


class _FastState:
    """What :func:`_close_epoch` reads at an epoch boundary.

    The per-config pass keeps its counters in locals and stores them
    here before each boundary; ``epochs``, the count of closed epochs,
    lives only here and :func:`_close_epoch` advances it.
    """

    __slots__ = (
        "epochs", "epoch_cpu", "epoch_bank", "epoch_refs", "mc_reads",
        "pb_hits", "pb_inserts", "row_hits", "row_refs", "cpu_ratio",
    )

    def __init__(self, cpu_ratio: float) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)
        self.cpu_ratio = cpu_ratio


def _close_epoch(
    state: _FastState,
    table: BankTimingTable,
    probes: Optional[EpochProbes],
    slh: Optional[LikelihoodTables],
) -> float:
    """Batched state advance at one SLH epoch boundary.

    Converts the closing epoch's observed bank/bus busy time into
    utilisation, returns the queue wait applied throughout the *next*
    epoch (M/D/1 waiting time against the busier of the two
    resources), counts the epoch closed and hands it to ``probes``:
    its 1-based index, the running counters and the point values.
    """
    epoch_mc = max(1.0, state.epoch_cpu / state.cpu_ratio)
    rho_bank = state.epoch_bank / (epoch_mc * table.banks)
    rho_bus = state.epoch_refs * table.bus_cycles / epoch_mc
    rho = min(max(rho_bank, rho_bus), _RHO_CAP)
    accesses = max(1, state.epoch_bank // max(1, table.read_empty))
    avg_service = state.epoch_bank / accesses
    # M/M/1-shaped wait rather than M/D/1: miss arrivals are bursty
    # (dependent misses release in clumps when a stall resolves), which
    # the deterministic-service halving underestimates.
    q_wait = avg_service * rho / (1.0 - rho)
    state.epochs += 1
    if probes is not None:
        points = {"fast.rho": rho, "fast.queue_wait_mc": q_wait}
        if slh is not None:
            points["fast.slh_bars"] = tuple(slh.curr[1:])
        probes.record_epoch(
            state.epochs,
            {
                "mc.reads": state.mc_reads,
                "fast.pb_hits": state.pb_hits,
                "fast.prefetches": state.pb_inserts,
                "fast.row_hits": state.row_hits,
                "fast.row_refs": state.row_refs,
            },
            points,
        )
    return q_wait


class MissStream:
    """One trace after the capacity filter: all a config's pass reads.

    One event per read miss and per dirty write-back, in trace order (a
    miss's write-back before its read).  ``advances[i]`` is the CPU time
    the trace's records add from the previous event through event ``i``
    (each record is its gap plus one instruction), ``lines[i]`` the line
    read or written back, and ``writebacks[i]`` 1 for a write-back.
    ``tail`` is the CPU time after the last event and ``misses`` the
    filter's miss count; a write miss with no dirty victim is no event
    (write-validate allocation: no read, no stall).
    """

    __slots__ = ("capacity", "advances", "lines", "writebacks", "misses", "tail")

    def __init__(self, records: Sequence[tuple], capacity: int) -> None:
        lru: "OrderedDict[int, bool]" = OrderedDict()  # line -> dirty
        advances = array("q")
        lines: List[int] = []
        writebacks = bytearray()
        add_advance, add_line, add_writeback = (
            advances.append, lines.append, writebacks.append
        )
        pending = misses = 0
        for gap, line, is_write in records:
            pending += gap + 1
            if line in lru:  # cache hit
                lru.move_to_end(line)
                if is_write:
                    lru[line] = True
                continue
            misses += 1
            lru[line] = is_write
            # every miss inserts a line, so the filter is over capacity
            # exactly when there have been more misses than it holds
            if misses > capacity:
                victim_line, victim_dirty = lru.popitem(last=False)
                if victim_dirty:  # write-back: one DRAM write
                    add_advance(pending)
                    add_line(victim_line)
                    add_writeback(1)
                    pending = 0
            if not is_write:
                add_advance(pending)
                add_line(line)
                add_writeback(0)
                pending = 0
        self.capacity = capacity
        # the memo lives as long as its trace: keep advances in 4 bytes
        # when they fit (Figure-5 traces stay far below 2**32)
        if max(advances, default=0) < 1 << 32:
            advances = array("I", advances)
        self.advances = advances
        self.lines = lines
        self.writebacks = bytes(writebacks)
        self.misses = misses
        self.tail = pending


def miss_stream(trace: Trace, capacity: int) -> MissStream:
    """``trace`` through a ``capacity``-line filter, memoized on the trace.

    The filter sees no config field but the capacity, so NP, PS, MS and
    PMS over one trace share a single pass.  The memo holds the last
    capacity asked for; it stays valid because trace records are never
    mutated after construction.
    """
    memo = trace.miss_stream
    if memo is None or memo.capacity != capacity:
        memo = trace.miss_stream = MissStream(trace.records, capacity)
    return memo


def _ps_waste(pos: int, ramp: int, lead: int) -> int:
    """MC reads a dead ramped PS stream stranded past its end.

    The Power5 engine keeps ``ramp`` growing toward ``l2_lead``, so a
    stream observed to position ``pos`` (>= 3) wasted about
    ``min(ramp + pos - 2, lead)`` lines.
    """
    waste = ramp + pos - 2
    return waste if waste < lead else lead


def predict(
    config: SystemConfig,
    traces: Union[Trace, Sequence[Trace]],
    probes: Optional[EpochProbes] = None,
) -> RunResult:
    """Predict one run's outcome from one pass over the trace's misses.

    Takes :func:`repro.system.simulator.simulate`'s ``config`` and
    ``traces`` (one :class:`Trace`, or a sequence of them, one per
    thread) so callers can swap fidelity tiers without reshaping
    arguments.  Several traces are interleaved record by record into
    one stream.  The capacity filter comes from :func:`miss_stream`, so
    only the first config to see a trace pays for it.  An unbound
    :class:`~repro.telemetry.probes.EpochProbes` passed as ``probes``
    records every closed epoch; the unclosed tail is not sampled.
    """
    if isinstance(traces, Trace):
        traces = [traces]
    traces = list(traces)
    if not traces:
        raise ValueError("predict: traces is empty; pass at least one Trace")
    config.validate()
    if probes is not None:
        probes.bind()
    trace = traces[0] if len(traces) == 1 else Trace.interleave(traces)
    hier = config.hierarchy
    core = config.core
    ctrl = config.controller
    ms = config.ms_prefetcher
    ps = config.ps_prefetcher
    table = bank_table(config.dram)
    cpu_ratio = core.cpu_ratio
    # A blocking miss stalls the core for the MC round trip; the L2/L3
    # lookup cost overlaps with it (matching the exact core's charge of
    # lat_mc * cpu_ratio per miss).  A PS-covered read only pays an
    # L2-hit-ish cost: the prefetched line is in (or on its way to) the
    # hierarchy when the demand arrives.
    ps_cover_cost = hier.l2.latency
    ps_cover_stall = int(ps_cover_cost)

    misses = miss_stream(
        trace, hier.l1.num_lines + hier.l2.num_lines + hier.l3.num_lines
    )

    # -- stream state ---------------------------------------------------
    slh = LikelihoodTables(ms.slh) if ms.enabled else None
    slots: Dict[int, _StreamSlot] = {}  # expected next line -> slot
    slot_limit = ms.stream_filter.slots
    life_init = ms.stream_filter.lifetime_init
    life_ext = ms.stream_filter.lifetime_init + ms.stream_filter.lifetime_increment
    pb: "OrderedDict[int, float]" = OrderedDict()  # line -> ready (MC time)
    pb_capacity = ms.buffer.entries
    # expected next line -> (position, cpu time of last advance)
    ps_streams: "OrderedDict[int, tuple]" = OrderedDict()
    ps_overshoot = 0  # MC reads wasted past the ends of ramped streams
    ps_lead = ps.l2_lead if ps.engine == "power5" else ps.lead
    ps_ramp = ps.ramp if ps.engine == "power5" else ps.lead
    epoch_len = ms.slh.epoch_reads if ms.enabled else 1000

    st = _FastState(float(cpu_ratio))
    banks = table.banks
    row_lines = table.row_lines
    read_hit, read_miss, read_empty = table.read_hit, table.read_miss, table.read_empty
    write_hit, write_miss, write_empty = (
        table.write_hit, table.write_miss, table.write_empty
    )
    # bank -> open row; under the closed-page policy no row stays open,
    # so every access finds its bank precharged (an activation)
    open_rows: List[Optional[int]] = [None] * banks
    open_page = table.page_policy != "closed"
    # config fields the per-event loop reads, hoisted out of it
    overhead_mc = ctrl.overhead_mc_cycles
    pb_hit_mc = ctrl.overhead_mc_cycles + ctrl.pb_hit_latency_mc
    ps_enabled = ps.enabled
    ps_stream_cap = 4 * ps.max_streams
    ms_enabled = ms.enabled
    degree = ms.degree
    asd_engine = ms.engine == "asd"
    nextline_engine = ms.engine == "nextline"
    # inequality (5)/(6) is tested inline against ``curr``, re-aliased
    # at each rollover (which replaces the list); config.validate()
    # keeps ``slh_last`` = Lm - degree >= 1 for the asd engine
    curr = slh.curr if ms_enabled else []
    slh_last = slh.lm - degree if ms_enabled else 0

    # Every per-event counter is a local.  The ones an epoch boundary
    # reads are stored to ``st`` before each _close_epoch; the running
    # epoch's CPU time and DRAM traffic are kept as the totals at its
    # start.  ``q_wait`` only changes at a boundary, so the sums built
    # on it are rebuilt there (same operand order, same floats).
    q_wait = 0.0
    lat_base = overhead_mc + q_wait  # a demand read's latency before DRAM service
    ps_need = (lat_base + read_hit) * cpu_ratio  # CPU time a PS prefetch needs
    cpu_cycles = stall_cycles = epoch_start_cpu = 0
    mc_reads = ps_reads = epoch_reads_seen = 0
    pb_hits = pb_read_hits = pb_inserts = 0
    dram_reads = dram_writes = activations = row_hits = 0
    epoch_bank = epoch_start_refs = 0
    occ_integral = lat_sum_demand = lat_cnt_demand = 0
    for advance, line, writeback in zip(
        misses.advances, misses.lines, misses.writebacks
    ):
        cpu_cycles += advance
        if writeback:  # a dirty victim: one DRAM write
            dram_writes += 1
            bank = line % banks
            row = (line // banks) // row_lines
            held = open_rows[bank]
            if held == row:
                epoch_bank += write_hit
                row_hits += 1
            else:
                epoch_bank += write_empty if held is None else write_miss
                activations += 1
                if open_page:
                    open_rows[bank] = row
            continue

        # ---- this read reaches the memory controller ----
        mc_reads += 1
        ps_covered = False
        ps_late_mc = 0.0  # residual wait when the PS prefetch is late
        if ps_enabled:
            pos, last_cpu = ps_streams.pop(line, (0, cpu_cycles))
            pos += 1
            ps_streams[line + 1] = (pos, cpu_cycles)
            if len(ps_streams) > ps_stream_cap:
                dead_pos = ps_streams.popitem(last=False)[1][0]
                if dead_pos >= _PS_RAMP_POSITION:
                    ps_overshoot += _ps_waste(dead_pos, ps_ramp, ps_lead)
            if pos >= _PS_RAMP_POSITION:
                ps_covered = True
                # Timeliness: the prefetch for this line was issued
                # ~lead advances ago.  If the stream runs faster than
                # one DRAM round trip per lead window, the demand read
                # races its own prefetch: it still arrives at the MC
                # (an extra read the exact system counts) and pays the
                # residual latency instead of an L2 hit.
                advance = cpu_cycles - last_cpu
                lead_window = ps_lead * (advance if advance > 1 else 1)
                if lead_window < ps_need:
                    ps_late_mc = (ps_need - lead_window) / cpu_ratio
                    mc_reads += 1

        # ---- memory-side prefetcher (stream filter + SLH + PB) ----
        pb_covered = False
        pb_inflight_mc = 0.0  # residual wait on an in-flight prefetch
        if ms_enabled:
            epoch_reads_seen += 1
            now_mc = cpu_cycles / cpu_ratio
            ready = pb.pop(line, None)
            if ready is not None:
                pb_read_hits += 1  # the prefetch was useful either way
                if ready <= now_mc:
                    pb_covered = True
                    pb_hits += 1
                else:
                    # Prefetch still in flight: the read merges with it
                    # and waits out the remainder (not a coverage hit).
                    pb_inflight_mc = ready - now_mc
            slot = slots.pop(line, None)
            if slot is not None and slot.expires < mc_reads:
                slh.record_stream(slot.length)  # expired before this read
                slot = None
            if slot is not None:
                slot.length += 1
                slot.expires = mc_reads + life_ext
                slots[line + 1] = slot
                k = slot.length
            else:
                if len(slots) >= slot_limit:
                    expired = [
                        key for key, s in slots.items()
                        if s.expires < mc_reads
                    ]
                    for key in expired:
                        slh.record_stream(slots.pop(key).length)
                if len(slots) >= slot_limit:  # still full: evict oldest
                    victim_key = min(slots, key=lambda k: slots[k].expires)
                    slh.record_stream(slots.pop(victim_key).length)
                slots[line + 1] = _StreamSlot(mc_reads + life_init)
                k = 1  # ASD prefetches even 2-line streams from here
            if asd_engine:
                if k > slh_last:
                    k = slh_last  # streams past the table use its tail
                want = curr[k] < (curr[k + degree] << 1)
            else:
                want = nextline_engine or k >= 2
            if want:
                for target in range(line + 1, line + degree + 1):
                    if target in pb:
                        continue
                    pb_inserts += 1
                    dram_reads += 1
                    bank = target % banks
                    row = (target // banks) // row_lines
                    held = open_rows[bank]
                    if held == row:
                        service = read_hit
                        row_hits += 1
                    else:
                        service = read_empty if held is None else read_miss
                        activations += 1
                        if open_page:
                            open_rows[bank] = row
                    epoch_bank += service
                    # The line is *resident* only after its DRAM round
                    # trip; a demand read landing earlier finds it in
                    # flight (useful but not covered — the exact MC
                    # merges it, it never hits the PB).
                    pb[target] = now_mc + overhead_mc + q_wait + service
                    if len(pb) > pb_capacity:
                        pb.popitem(last=False)
            if epoch_reads_seen >= epoch_len:
                for slot in slots.values():
                    slh.record_stream_next_only(slot.length)
                slh.rollover()
                curr = slh.curr
                refs = dram_reads + dram_writes
                st.epoch_cpu, st.epoch_bank, st.epoch_refs = (
                    cpu_cycles - epoch_start_cpu, epoch_bank,
                    refs - epoch_start_refs,
                )
                st.mc_reads, st.pb_hits, st.pb_inserts = mc_reads, pb_hits, pb_inserts
                st.row_hits, st.row_refs = row_hits, refs
                q_wait = _close_epoch(st, table, probes, slh)
                lat_base = overhead_mc + q_wait
                ps_need = (lat_base + read_hit) * cpu_ratio
                epoch_start_cpu, epoch_start_refs = cpu_cycles, refs
                epoch_bank = epoch_reads_seen = 0

        # ---- latency of this read ----
        if pb_covered:
            lat_mc = pb_hit_mc
        elif pb_inflight_mc:
            lat_mc = pb_inflight_mc if pb_inflight_mc > pb_hit_mc else pb_hit_mc
        else:
            dram_reads += 1
            bank = line % banks
            row = (line // banks) // row_lines
            held = open_rows[bank]
            if held == row:
                service = read_hit
                row_hits += 1
            else:
                service = read_empty if held is None else read_miss
                activations += 1
                if open_page:
                    open_rows[bank] = row
            epoch_bank += service
            lat_mc = lat_base + service
        occ_integral += lat_mc
        if ps_covered:
            ps_reads += 1
            if ps_late_mc:
                late_cpu = ps_late_mc * cpu_ratio
                stall = int(late_cpu if late_cpu > ps_cover_cost else ps_cover_cost)
            else:
                stall = ps_cover_stall
        else:
            lat_sum_demand += lat_mc
            lat_cnt_demand += 1
            stall = int(lat_mc * cpu_ratio)
        cpu_cycles += stall
        stall_cycles += stall
        # Known defect, kept: a late PS read adds 2 to mc_reads and can
        # step over a multiple of epoch_len, skipping that boundary
        # (docs/fidelity.md).
        if not ms_enabled and mc_reads % epoch_len == 0:
            refs = dram_reads + dram_writes
            st.epoch_cpu, st.epoch_bank, st.epoch_refs = (
                cpu_cycles - epoch_start_cpu, epoch_bank,
                refs - epoch_start_refs,
            )
            st.mc_reads, st.pb_hits, st.pb_inserts = mc_reads, pb_hits, pb_inserts
            st.row_hits, st.row_refs = row_hits, refs
            q_wait = _close_epoch(st, table, probes, None)
            lat_base = overhead_mc + q_wait
            ps_need = (lat_base + read_hit) * cpu_ratio
            epoch_start_cpu, epoch_start_refs = cpu_cycles, refs
            epoch_bank = 0
    cpu_cycles += misses.tail
    row_refs = dram_reads + dram_writes  # before the PS overshoot below

    if ps_enabled:
        for dead_pos, _ in ps_streams.values():
            if dead_pos >= _PS_RAMP_POSITION:
                ps_overshoot += _ps_waste(dead_pos, ps_ramp, ps_lead)
        # Overshoot lines arrive at the MC as ordinary reads (diluting
        # coverage, exactly as the exact controller counts them) and
        # ride their streams' open rows: burst traffic without extra
        # activations; their queueing impact is folded into the
        # utilisation the epochs observed.
        mc_reads += ps_overshoot
        dram_reads += ps_overshoot

    mc_cycles = max(1, round(cpu_cycles / cpu_ratio))
    regular = dram_reads + dram_writes - pb_inserts
    prefetch_bus = pb_inserts * table.bus_cycles
    total_bus = (dram_reads + dram_writes) * table.bus_cycles
    delayed = (
        round(regular * 0.5 * prefetch_bus / total_bus) if total_bus else 0
    )

    power_model = DRAMPowerModel(config.dram, config.dram_power)
    power_model.activations = activations
    power_model.read_bursts = dram_reads
    power_model.write_bursts = dram_writes
    power = power_model.finalize(mc_cycles)

    cache_refs = len(trace)
    cache_misses = misses.misses
    stats: Dict[str, float] = {
        "mc.reads_arrived": mc_reads,
        "mc.pb_hits_pre_caq": pb_hits,
        "mc.pb_hits_caq": 0,
        "mc.issued_regular": regular,
        "mc.delayed_regular": delayed,
        "mc.lat_sum_demand": lat_sum_demand,
        "mc.lat_cnt_demand": lat_cnt_demand,
        "mc.ticks": mc_cycles,
        "mc.occ_read_queue": occ_integral,
        "pb.inserts": pb_inserts,
        "pb.read_hits": pb_read_hits,
        "dram.issued_reads": dram_reads,
        "dram.issued_writes": dram_writes,
        "fast.epochs": st.epochs,
        "fast.cache_miss_rate": (
            cache_misses / cache_refs if cache_refs else 0.0
        ),
        "fast.row_hit_rate": row_hits / row_refs if row_refs else 0.0,
        "fast.ps_covered_reads": ps_reads,
        "fast.ps_overshoot_reads": ps_overshoot,
        "fast.prefetch_reads": pb_inserts,
        "fast.final_queue_wait_mc": q_wait,
    }
    return RunResult(
        config_name=config.name,
        benchmark=traces[0].name if len(traces) == 1 else "smt",
        cycles=mc_cycles,
        instructions=cpu_cycles - stall_cycles,
        cpu_ratio=cpu_ratio,
        stats=stats,
        power=power,
        fidelity={"tier": FIDELITY_FAST, "model_version": FAST_MODEL_VERSION},
    )


def simulate_job_fast(
    config: SystemConfig,
    benchmark: str,
    accesses: int,
    seed: int,
    threads: int = 1,
    probes: Optional[EpochProbes] = None,
) -> RunResult:
    """Fast-tier twin of :func:`repro.experiments.runner.simulate_job`.

    Same trace resolution (and trace cache) as the exact path, so a
    fast/exact pair for one job always sees identical inputs.
    """
    from repro.experiments import runner

    if threads == 1:
        traces = [runner.get_trace(benchmark, accesses, seed)]
    else:
        traces = [
            runner.get_trace(benchmark, accesses, seed + t)
            for t in range(threads)
        ]
    result = predict(config, traces, probes=probes)
    result.benchmark = benchmark
    result.config_name = config.name
    return result
