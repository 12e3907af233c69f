"""The fast analytic model: milliseconds per grid cell, not seconds.

Where the cycle-accurate simulator advances every component every MC
cycle (or event), this model makes one pass over the trace and *computes*
the run outcome from first-order structure:

* a single unified LRU **capacity filter** (L1+L2+L3 lines) decides
  which accesses reach the memory controller — compulsory and capacity
  misses, dirty-eviction write traffic;
* a slot-limited **stream tracker** feeds real
  :class:`~repro.prefetch.slh.LikelihoodTables` (the paper's LHT pair),
  so ASD prefetch decisions use the genuine inequality (5)/(6) over the
  genuine stream-length histogram, epoch by epoch;
* a precomputed :mod:`~repro.fastsim.banktables` table prices each DRAM
  access by row state (hit / miss / empty) under the exact device's
  line-interleaved address map;
* a **queueing approximation** advances congestion state once per SLH
  epoch ("batched state advance"): bank and bus utilisation observed in
  epoch *k* sets the M/D/1-style queue wait applied in epoch *k+1*;
* DRAM energy reuses the exact :class:`~repro.dram.power.DRAMPowerModel`
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

from collections import OrderedDict
from typing import Dict, Optional, Sequence

from repro.common.config import SystemConfig
from repro.dram.power import DRAMPowerModel
from repro.fastsim.banktables import BankTimingTable, bank_table
from repro.fastsim.probes import FastModelProbes
from repro.fastsim.version import FAST_MODEL_VERSION, FIDELITY_FAST
from repro.prefetch.slh import LikelihoodTables
from repro.system.results import RunResult
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
    """Everything the single trace pass accumulates."""

    __slots__ = (
        "instructions", "cpu_cycles", "mc_reads", "demand_reads",
        "ps_reads", "pb_hits", "pb_inserts", "pb_read_hits",
        "dram_reads", "dram_writes", "prefetch_reads", "activations",
        "lat_sum_demand", "lat_cnt_demand", "bank_busy", "bus_busy",
        "occ_integral", "epochs", "epoch_cpu", "epoch_bank",
        "epoch_bus", "epoch_reads_seen", "q_wait", "row_hits",
        "row_refs", "cache_misses", "cache_refs", "cpu_ratio",
    )

    def __init__(self, cpu_ratio: float) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)
        self.q_wait = 0.0
        self.cpu_ratio = cpu_ratio


def _epoch_advance(
    state: _FastState,
    table: BankTimingTable,
    probes: Optional[FastModelProbes],
    slh: Optional[LikelihoodTables],
) -> None:
    """Batched state advance at one SLH epoch boundary.

    Converts the epoch's observed bank/bus busy time into utilisation,
    derives the queue wait applied throughout the *next* epoch (M/D/1
    waiting time against the busier of the two resources), and emits
    one probe sample.
    """
    epoch_mc = max(1.0, state.epoch_cpu / state.cpu_ratio)
    rho_bank = state.epoch_bank / (epoch_mc * table.banks)
    rho_bus = state.epoch_bus / epoch_mc
    rho = min(max(rho_bank, rho_bus), _RHO_CAP)
    accesses = max(1, state.epoch_bank // max(1, table.read_empty))
    avg_service = state.epoch_bank / accesses
    # M/M/1-shaped wait rather than M/D/1: miss arrivals are bursty
    # (dependent misses release in clumps when a stall resolves), which
    # the deterministic-service halving underestimates.
    state.q_wait = avg_service * rho / (1.0 - rho)
    if probes is not None:
        probes.sample(
            state.epochs,
            {
                "rho": rho,
                "queue_wait_mc": state.q_wait,
                "mc_reads": state.mc_reads,
                "pb_hits": state.pb_hits,
                "prefetches": state.pb_inserts,
                "row_hit_rate": (
                    state.row_hits / state.row_refs if state.row_refs else 0.0
                ),
                "slh_bars": list(slh.curr[1:]) if slh is not None else [],
            },
        )
    state.epochs += 1
    state.epoch_cpu = 0
    state.epoch_bank = 0
    state.epoch_bus = 0
    state.epoch_reads_seen = 0


def predict(
    config: SystemConfig,
    traces: Sequence[Trace],
    probes: Optional[FastModelProbes] = None,
) -> RunResult:
    """Predict one run's outcome from a single pass over the trace.

    Mirrors :func:`repro.system.simulator.simulate`'s signature shape so
    callers can swap fidelity tiers without reshaping arguments.
    """
    config.validate()
    if len(traces) == 1:
        records = traces[0].records
    else:
        records = Trace.interleave(list(traces)).records
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

    # -- capacity filter ------------------------------------------------
    capacity = hier.l1.num_lines + hier.l2.num_lines + hier.l3.num_lines
    lru: "OrderedDict[int, bool]" = OrderedDict()  # line -> dirty

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
    # A dead ramped stream strands its in-flight lead: the Power5 engine
    # keeps ``ramp`` growing toward ``l2_lead``, so a stream observed to
    # position P wasted about min(ramp + (P - 2), l2_lead) lines.
    ps_lead = ps.l2_lead if ps.engine == "power5" else ps.lead
    ps_ramp = ps.ramp if ps.engine == "power5" else ps.lead

    def ps_waste(pos: int) -> int:
        return min(ps_ramp + max(pos - 2, 0), ps_lead)
    epoch_len = ms.slh.epoch_reads if ms.enabled else 1000

    st = _FastState(float(cpu_ratio))
    banks = table.banks
    row_lines = table.row_lines
    bus_cycles = table.bus_cycles
    read_hit, read_miss, read_empty = table.read_hit, table.read_miss, table.read_empty
    write_hit, write_miss, write_empty = (
        table.write_hit, table.write_miss, table.write_empty
    )
    open_rows: Dict[int, int] = {}
    closed_page = table.page_policy == "closed"
    # config fields the per-record loop reads, hoisted out of it
    overhead_mc = ctrl.overhead_mc_cycles
    pb_hit_mc = ctrl.overhead_mc_cycles + ctrl.pb_hit_latency_mc
    ps_enabled = ps.enabled
    ps_stream_cap = 4 * ps.max_streams
    ms_enabled = ms.enabled
    degree = ms.degree
    engine = ms.engine

    def dram_access(line: int, is_write: bool) -> int:
        """Price one DRAM access; returns its service time in MC cycles."""
        bank = line % banks
        row = (line // banks) // row_lines
        held = open_rows.get(bank)
        if closed_page:
            service = write_empty if is_write else read_empty
            st.activations += 1
        elif held == row:
            service = write_hit if is_write else read_hit
            st.row_hits += 1
        else:
            if held is None:
                service = write_empty if is_write else read_empty
            else:
                service = write_miss if is_write else read_miss
            st.activations += 1
            open_rows[bank] = row
        st.row_refs += 1
        st.epoch_bank += service
        st.epoch_bus += bus_cycles
        if is_write:
            st.dram_writes += 1
        else:
            st.dram_reads += 1
        return service

    def issue_prefetch(line: int, now_mc: float) -> None:
        if line in pb:
            return
        st.pb_inserts += 1
        st.prefetch_reads += 1
        service = dram_access(line, False)
        # The line is *resident* only after its DRAM round trip; a
        # demand read landing earlier finds it in flight (useful but
        # not covered — the exact MC merges it, it never hits the PB).
        pb[line] = now_mc + overhead_mc + st.q_wait + service
        if len(pb) > pb_capacity:
            pb.popitem(last=False)

    # Counters nothing reads until the end of the pass stay local; the
    # clock and epoch counters are local too and are stored back to
    # ``st`` before each _epoch_advance (which reads and resets them).
    instructions = cache_refs = cache_misses = 0
    ps_reads = demand_reads = pb_read_hits = 0
    occ_integral = lat_sum_demand = lat_cnt_demand = 0
    cpu_cycles = epoch_cpu = mc_reads = epoch_reads_seen = 0
    cpu_ratio_f = st.cpu_ratio
    for gap, line, is_write in records:
        step = gap + 1
        instructions += step
        cpu_cycles += step
        epoch_cpu += step
        cache_refs += 1

        if line in lru:  # cache hit
            lru.move_to_end(line)
            if is_write:
                lru[line] = True
            continue
        cache_misses += 1
        lru[line] = is_write
        if len(lru) > capacity:
            victim_line, victim_dirty = lru.popitem(last=False)
            if victim_dirty:
                dram_access(victim_line, True)
        if is_write:
            continue  # write-validate allocation: no read, no stall

        # ---- this read reaches the memory controller ----
        mc_reads += 1
        ps_covered = False
        ps_late_mc = 0.0  # residual wait when the PS prefetch is late
        now_cpu = cpu_cycles
        if ps_enabled:
            pos, last_cpu = ps_streams.pop(line, (0, now_cpu))
            pos += 1
            ps_streams[line + 1] = (pos, now_cpu)
            if len(ps_streams) > ps_stream_cap:
                _, (dead_pos, _) = ps_streams.popitem(last=False)
                if dead_pos >= _PS_RAMP_POSITION:
                    ps_overshoot += ps_waste(dead_pos)
            ps_covered = pos >= _PS_RAMP_POSITION
            if ps_covered:
                # Timeliness: the prefetch for this line was issued
                # ~lead advances ago.  If the stream runs faster than
                # one DRAM round trip per lead window, the demand read
                # races its own prefetch: it still arrives at the MC
                # (an extra read the exact system counts) and pays the
                # residual latency instead of an L2 hit.
                lead_window = ps_lead * max(1, now_cpu - last_cpu)
                need = (overhead_mc + st.q_wait + read_hit) * cpu_ratio
                if lead_window < need:
                    ps_late_mc = (need - lead_window) / cpu_ratio
                    mc_reads += 1
        if ps_covered:
            ps_reads += 1
        else:
            demand_reads += 1

        # ---- memory-side prefetcher (stream filter + SLH + PB) ----
        pb_covered = False
        pb_inflight_mc = 0.0  # residual wait on an in-flight prefetch
        if ms_enabled:
            epoch_reads_seen += 1
            now_mc = now_cpu / cpu_ratio
            ready = pb.pop(line, None)
            if ready is not None:
                pb_read_hits += 1  # the prefetch was useful either way
                if ready <= now_mc:
                    pb_covered = True
                    st.pb_hits += 1
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
            want = (
                slh.should_prefetch(k, degree)
                if engine == "asd"
                else (True if engine == "nextline" else k >= 2)
            )
            if want:
                for d in range(1, degree + 1):
                    issue_prefetch(line + d, cpu_cycles / cpu_ratio_f)
            if epoch_reads_seen >= epoch_len:
                for slot in slots.values():
                    slh.record_stream_next_only(slot.length)
                slh.rollover()
                st.epoch_cpu, st.mc_reads = epoch_cpu, mc_reads
                _epoch_advance(st, table, probes, slh)
                epoch_cpu = epoch_reads_seen = 0

        # ---- latency of this read ----
        if pb_covered:
            lat_mc = pb_hit_mc
        elif pb_inflight_mc:
            lat_mc = max(pb_hit_mc, pb_inflight_mc)
        else:
            lat_mc = overhead_mc + st.q_wait + dram_access(line, False)
        occ_integral += lat_mc
        if ps_covered:
            stall_cpu = (
                max(ps_cover_cost, ps_late_mc * cpu_ratio)
                if ps_late_mc
                else ps_cover_cost
            )
        else:
            stall_cpu = lat_mc * cpu_ratio
            lat_sum_demand += lat_mc
            lat_cnt_demand += 1
        stall = int(stall_cpu)
        cpu_cycles += stall
        epoch_cpu += stall
        if not ms_enabled and mc_reads % epoch_len == 0:
            st.epoch_cpu, st.mc_reads = epoch_cpu, mc_reads
            _epoch_advance(st, table, probes, None)
            epoch_cpu = epoch_reads_seen = 0
    st.cpu_cycles = cpu_cycles
    st.epoch_cpu = epoch_cpu
    st.mc_reads = mc_reads
    st.epoch_reads_seen = epoch_reads_seen
    st.instructions = instructions
    st.cache_refs = cache_refs
    st.cache_misses = cache_misses
    st.ps_reads = ps_reads
    st.demand_reads = demand_reads
    st.pb_read_hits = pb_read_hits
    st.occ_integral = occ_integral
    st.lat_sum_demand = lat_sum_demand
    st.lat_cnt_demand = lat_cnt_demand

    if ps.enabled:
        for dead_pos, _ in ps_streams.values():
            if dead_pos >= _PS_RAMP_POSITION:
                ps_overshoot += ps_waste(dead_pos)
        # Overshoot lines arrive at the MC as ordinary reads (diluting
        # coverage, exactly as the exact controller counts them) and
        # ride their streams' open rows: burst traffic without extra
        # activations; their queueing impact is folded into the
        # utilisation the epochs observed.
        st.mc_reads += ps_overshoot
        st.dram_reads += ps_overshoot

    # flush the trailing partial epoch so probes cover the tail
    if st.epoch_cpu and probes is not None:
        _epoch_advance(st, table, probes, slh)

    mc_cycles = max(1, round(st.cpu_cycles / cpu_ratio))
    regular = st.dram_reads + st.dram_writes - st.prefetch_reads
    prefetch_bus = st.prefetch_reads * table.bus_cycles
    total_bus = (st.dram_reads + st.dram_writes) * table.bus_cycles
    delayed = (
        round(regular * 0.5 * prefetch_bus / total_bus) if total_bus else 0
    )

    power_model = DRAMPowerModel(config.dram, config.dram_power)
    power_model.activations = st.activations
    power_model.read_bursts = st.dram_reads
    power_model.write_bursts = st.dram_writes
    power = power_model.finalize(mc_cycles)

    stats: Dict[str, float] = {
        "mc.reads_arrived": st.mc_reads,
        "mc.pb_hits_pre_caq": st.pb_hits,
        "mc.pb_hits_caq": 0,
        "mc.issued_regular": regular,
        "mc.delayed_regular": delayed,
        "mc.lat_sum_demand": st.lat_sum_demand,
        "mc.lat_cnt_demand": st.lat_cnt_demand,
        "mc.ticks": mc_cycles,
        "mc.occ_read_queue": st.occ_integral,
        "pb.inserts": st.pb_inserts,
        "pb.read_hits": st.pb_read_hits,
        "dram.issued_reads": st.dram_reads,
        "dram.issued_writes": st.dram_writes,
        "fast.epochs": st.epochs,
        "fast.cache_miss_rate": (
            st.cache_misses / st.cache_refs if st.cache_refs else 0.0
        ),
        "fast.row_hit_rate": (
            st.row_hits / st.row_refs if st.row_refs else 0.0
        ),
        "fast.ps_covered_reads": st.ps_reads,
        "fast.ps_overshoot_reads": ps_overshoot,
        "fast.prefetch_reads": st.prefetch_reads,
        "fast.final_queue_wait_mc": st.q_wait,
    }
    return RunResult(
        config_name=config.name,
        benchmark=traces[0].name if len(traces) == 1 else "smt",
        cycles=mc_cycles,
        instructions=st.instructions,
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
    probes: Optional[FastModelProbes] = None,
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
