"""Configuration dataclasses for every simulated block.

Defaults reproduce the configuration evaluated in the paper (Section 5.1):
8-slot Stream Filter, 16-entry Likelihood Tables per direction, a 16-line
(2 KB) Prefetch Buffer, an LPQ with the same depth (3) as the CAQ, and a
DDR2-533 memory system behind a Power5+-style controller.

All configs are plain frozen-ish dataclasses (mutable for ease of sweep
construction, but treated as immutable once a simulation starts).  Use
:meth:`SystemConfig.with_overrides` (or :func:`dataclasses.replace`) to
derive sweep points.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Iterable, Optional, Sequence, Tuple


@dataclass
class DRAMTimingConfig:
    """DDR2-533 timing in DRAM bus cycles (tCK = 3.75 ns).

    Values follow a Micron DDR2-533 (-37E) datasheet rounded to bus
    cycles.  ``burst_cycles`` is the time the data bus is occupied by one
    128-byte line: 16 beats on an 8-byte DDR bus = 8 bus cycles.
    """

    t_ck_ns: float = 3.75
    t_rcd: int = 4  # ACT -> CAS
    t_cl: int = 4  # CAS -> first data
    t_rp: int = 4  # PRE -> ACT
    t_ras: int = 12  # ACT -> PRE
    t_rc: int = 16  # ACT -> ACT, same bank
    t_wr: int = 4  # end of write burst -> PRE
    t_wl: int = 3  # write CAS -> first data
    t_ccd: int = 2  # CAS -> CAS, same rank
    # One 128 B line over the Power5+'s two-channel, 16-byte-wide DDR2
    # interface: 8 beats = 4 bus cycles of data-bus occupancy.
    burst_cycles: int = 4
    # Refresh: one all-bank refresh per rank every t_refi cycles,
    # occupying the rank for t_rfc.  t_refi = 0 disables refresh
    # modelling (the calibrated default; enabling it slows every
    # configuration uniformly by ~1-2%).
    t_refi: int = 0
    t_rfc: int = 34

    def validate(self) -> None:
        if self.t_rc < self.t_ras + self.t_rp:
            raise ValueError("t_rc must cover t_ras + t_rp")
        for name in ("t_rcd", "t_cl", "t_rp", "t_ras", "burst_cycles"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.t_refi < 0 or self.t_rfc <= 0:
            raise ValueError("t_refi must be >= 0 and t_rfc positive")
        if self.t_refi and self.t_refi <= self.t_rfc:
            raise ValueError("t_refi must exceed t_rfc")


@dataclass
class DRAMConfig:
    """DRAM organisation: one channel of `ranks` x `banks_per_rank` banks.

    ``row_lines`` is the number of cache lines per DRAM row (8 KB row /
    128 B line = 64).  Address mapping interleaves consecutive lines
    across banks of a rank first, then ranks, to spread streams over
    banks (the mapping used by the Power4/Power5 memory subsystem at line
    granularity).
    """

    ranks: int = 2
    banks_per_rank: int = 8
    row_lines: int = 64
    #: "open" keeps rows open after access (row-hit friendly, the
    #: Power5+ policy); "closed" auto-precharges after every access.
    page_policy: str = "open"
    timing: DRAMTimingConfig = field(default_factory=DRAMTimingConfig)

    @property
    def total_banks(self) -> int:
        return self.ranks * self.banks_per_rank

    def validate(self) -> None:
        if self.ranks <= 0 or self.banks_per_rank <= 0:
            raise ValueError("ranks and banks_per_rank must be positive")
        if self.row_lines <= 0:
            raise ValueError("row_lines must be positive")
        if self.page_policy not in ("open", "closed"):
            raise ValueError("page_policy must be 'open' or 'closed'")
        self.timing.validate()


@dataclass
class DRAMPowerConfig:
    """Current-based (Micron-style) DDR2 power model parameters.

    Energies are in nanojoules per event; background power in milliwatts
    per rank.  The defaults are derived from Micron DDR2-533 IDD numbers
    for a 2-rank DIMM and give the paper's qualitative regime: background
    power dominates, so extra prefetch traffic raises power only a few
    percent while shorter runtime cuts total energy.
    """

    e_activate_nj: float = 3.0  # ACT + PRE pair, per event
    e_read_nj: float = 4.2  # one line read burst (incl. I/O)
    e_write_nj: float = 4.6  # one line write burst (incl. ODT)
    p_background_active_mw: float = 260.0  # per rank, any bank open
    # Reserved for a closed-page / idle-tracking accounting mode; the
    # open-page model charges active standby throughout (see
    # DRAMPowerModel docstring for the rationale).
    p_background_idle_mw: float = 180.0
    p_refresh_mw: float = 35.0  # per rank, folded into background

    def validate(self) -> None:
        for name in (
            "e_activate_nj",
            "e_read_nj",
            "e_write_nj",
            "p_background_active_mw",
            "p_background_idle_mw",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass
class CacheConfig:
    """One set-associative cache level.

    ``replacement`` selects the victim policy: ``"lru"`` (true LRU, the
    paper's assumption for the Prefetch Buffer) or ``"tree_plru"`` (the
    cheaper pseudo-LRU used by large hardware arrays).
    """

    size_bytes: int
    assoc: int
    latency: int  # CPU cycles for a hit at this level
    line_size: int = 128
    replacement: str = "lru"

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_size

    @property
    def num_sets(self) -> int:
        return max(1, self.num_lines // self.assoc)

    def validate(self) -> None:
        if self.size_bytes <= 0 or self.assoc <= 0:
            raise ValueError("cache size and associativity must be positive")
        if self.size_bytes % self.line_size:
            raise ValueError("cache size must be a multiple of the line size")
        if self.num_lines < self.assoc:
            raise ValueError("cache smaller than one set")
        if self.replacement not in ("lru", "tree_plru"):
            raise ValueError("replacement must be 'lru' or 'tree_plru'")


@dataclass
class HierarchyConfig:
    """Power5+-like three-level data-cache hierarchy.

    Associativities and latencies follow the Power5+ (L1D 4-way 1-cycle,
    L2 10-way 13-cycle, off-chip L3 12-way ~90-cycle); L2/L3 *capacities*
    are scaled down (1.92 MB -> 160 KB, 36 MB -> 512 KB) in proportion to
    the sampled trace lengths this reproduction simulates, so that
    capacity behaviour (hot-set residency, dirty write-back traffic)
    matches what million-instruction samples see on the full-size
    hierarchy.  See DESIGN.md Section 5.
    """

    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 4, latency=1)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(160 * 1024, 10, latency=13)
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig(512 * 1024, 12, latency=90)
    )

    def validate(self) -> None:
        self.l1.validate()
        self.l2.validate()
        self.l3.validate()


@dataclass
class StreamFilterConfig:
    """The per-thread Stream Filter (paper Section 3.3).

    A slot is initialised to ``lifetime_init`` at allocation, extended by
    ``lifetime_increment`` each time its stream advances (capped at
    ``lifetime_cap`` ahead of now), and evicted — crediting its length to
    the SLH — when the lifetime runs out.

    ``lifetime_unit`` selects the clock the lifetime counts:

    * ``"reads"`` (default) — Read commands observed by this thread's
      filter.  This normalises slot turnover against the order-of-
      magnitude arrival-rate differences between benchmark suites.
    * ``"cpu"`` — processor cycles, the paper's literal mechanism ("at
      every processor cycle, the lifetime fields are decremented by
      one").  Values should then be a few thousand.

    The deviation is documented in DESIGN.md; both modes are tested.
    """

    slots: int = 8
    lifetime_init: int = 5
    lifetime_increment: int = 5
    lifetime_cap: int = 40
    lifetime_unit: str = "reads"

    def validate(self) -> None:
        if self.slots <= 0:
            raise ValueError("slots must be positive")
        if self.lifetime_init <= 0 or self.lifetime_increment < 0:
            raise ValueError("lifetimes must be positive")
        if self.lifetime_unit not in ("reads", "cpu"):
            raise ValueError("lifetime_unit must be 'reads' or 'cpu'")


@dataclass
class SLHConfig:
    """Stream Length Histogram / Likelihood Table configuration.

    ``table_len`` is Lm, the longest tracked stream length (16 in the
    paper); ``epoch_reads`` is the epoch length in Read commands.  The
    paper's Figure 3 uses 2000-read epochs but leaves the evaluated
    epoch length unstated; 1000 adapts twice as fast across the phase
    changes our shorter sampled traces compress together.
    """

    table_len: int = 16
    epoch_reads: int = 1000

    def validate(self) -> None:
        if self.table_len < 2:
            raise ValueError("table_len must be at least 2")
        if self.epoch_reads <= 0:
            raise ValueError("epoch_reads must be positive")


@dataclass
class PrefetchBufferConfig:
    """The memory-side Prefetch Buffer: 16 x 128 B (2 KB), set-associative."""

    entries: int = 16
    assoc: int = 4

    def validate(self) -> None:
        if self.entries <= 0 or self.assoc <= 0:
            raise ValueError("entries and assoc must be positive")
        if self.entries % self.assoc:
            raise ValueError("entries must be a multiple of assoc")


@dataclass
class AdaptiveSchedulingConfig:
    """Adaptive Scheduling (paper Section 3.5).

    The controller counts, per epoch, regular commands blocked from
    entering the CAQ by a bank held by an in-flight memory-side prefetch.
    If the count exceeds ``raise_threshold`` the policy steps toward 1
    (most conservative); below ``lower_threshold`` it steps toward 5.
    """

    enabled: bool = True
    fixed_policy: Optional[int] = None  # 1..5 to pin a policy; None = adapt
    initial_policy: int = 1  # start conservative; relax when conflicts are rare
    raise_threshold: int = 40
    lower_threshold: int = 4

    def validate(self) -> None:
        if self.fixed_policy is not None and not 1 <= self.fixed_policy <= 5:
            raise ValueError("fixed_policy must be in 1..5")
        if not 1 <= self.initial_policy <= 5:
            raise ValueError("initial_policy must be in 1..5")
        if self.lower_threshold > self.raise_threshold:
            raise ValueError("lower_threshold must not exceed raise_threshold")


#: Valid engine selections for the memory-side prefetcher.
MS_ENGINES = ("asd", "nextline", "p5")


@dataclass
class MemorySidePrefetcherConfig:
    """The memory-side prefetcher that lives in the memory controller.

    ``engine`` selects what drives prefetch generation:

    * ``"asd"`` — Adaptive Stream Detection (the paper's contribution);
    * ``"nextline"`` — always prefetch the next line (Figure 11 baseline);
    * ``"p5"`` — a Power5-style two-miss-confirm stream engine relocated
      into the controller (Figure 11 baseline).

    ``degree`` > 1 enables multi-line prefetching via the generalised
    inequality (6) — described but not evaluated in the paper; evaluated
    here as an extension.
    """

    enabled: bool = False
    engine: str = "asd"
    degree: int = 1
    stream_filter: StreamFilterConfig = field(default_factory=StreamFilterConfig)
    slh: SLHConfig = field(default_factory=SLHConfig)
    buffer: PrefetchBufferConfig = field(default_factory=PrefetchBufferConfig)
    lpq_depth: int = 3
    scheduling: AdaptiveSchedulingConfig = field(
        default_factory=AdaptiveSchedulingConfig
    )

    def validate(self) -> None:
        if self.engine not in MS_ENGINES:
            raise ValueError(f"engine must be one of {MS_ENGINES}")
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.engine == "asd" and self.degree >= self.slh.table_len:
            # inequality (6) compares lht(k) with lht(k + degree)
            raise ValueError(
                f"need 1 <= ms_prefetcher.degree < slh.table_len for the "
                f"asd engine (degree={self.degree}, "
                f"table_len={self.slh.table_len})"
            )
        if self.lpq_depth <= 0:
            raise ValueError("lpq_depth must be positive")
        self.stream_filter.validate()
        self.slh.validate()
        self.buffer.validate()
        self.scheduling.validate()


@dataclass
class ProcessorSidePrefetcherConfig:
    """Processor-side prefetcher (paper Section 4.2 + the future-work
    ASD variant).

    ``engine="power5"`` (default) is the stock Power5 unit: it waits for
    two consecutive cache-line misses before engaging (two-miss
    confirmation), tracks up to ``detect_entries`` candidate lines and
    ``max_streams`` concurrent streams, and in steady state keeps
    ``l1_lead`` lines ahead for L1 and ``l2_lead`` for L2.

    ``engine="asd"`` implements the paper's stated future work: the same
    Adaptive Stream Detection machinery observing the L1-miss stream and
    prefetching up to ``lead`` lines ahead into the caches whenever
    inequality (6) approves (see
    :mod:`repro.prefetch.asd_processor_side`).
    """

    enabled: bool = False
    engine: str = "power5"
    detect_entries: int = 12
    max_streams: int = 8
    l1_lead: int = 1
    l2_lead: int = 4
    ramp: int = 1  # initial lead on confirmation; grows to l2_lead
    # ASD-engine parameters
    lead: int = 4
    asd_stream_filter: StreamFilterConfig = field(
        default_factory=StreamFilterConfig
    )
    asd_slh: SLHConfig = field(default_factory=SLHConfig)

    def validate(self) -> None:
        if self.engine not in ("power5", "asd"):
            raise ValueError("engine must be 'power5' or 'asd'")
        if self.detect_entries <= 0 or self.max_streams <= 0:
            raise ValueError("table sizes must be positive")
        if self.l1_lead < 1 or self.l2_lead < self.l1_lead:
            raise ValueError("need l2_lead >= l1_lead >= 1")
        if not 1 <= self.ramp <= self.l2_lead:
            raise ValueError("need 1 <= ramp <= l2_lead")
        if not 1 <= self.lead < self.asd_slh.table_len:
            raise ValueError("need 1 <= lead < asd_slh.table_len")
        self.asd_stream_filter.validate()
        self.asd_slh.validate()


#: Valid reorder-queue scheduler selections.
SCHEDULERS = ("in_order", "memoryless", "ahb")


@dataclass
class ControllerConfig:
    """Power5+-style memory controller shell.

    Read/Write reorder queues feed a small FIFO CAQ (depth 3 on the
    Power5+) through a pluggable scheduler; the Final Scheduler arbitrates
    between the CAQ and the prefetcher's LPQ.
    """

    read_queue_depth: int = 8
    write_queue_depth: int = 8
    caq_depth: int = 3
    scheduler: str = "ahb"
    write_drain_threshold: int = 6  # start draining writes at this occupancy
    overhead_mc_cycles: int = 2  # fixed command/return path overhead
    pb_hit_latency_mc: int = 2  # extra latency of a Prefetch Buffer hit

    def validate(self) -> None:
        if self.scheduler not in SCHEDULERS:
            raise ValueError(f"scheduler must be one of {SCHEDULERS}")
        for name in ("read_queue_depth", "write_queue_depth", "caq_depth"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 <= self.write_drain_threshold <= self.write_queue_depth:
            raise ValueError("write_drain_threshold out of range")


@dataclass
class CoreConfig:
    """First-order trace-driven core.

    One instruction retires per CPU cycle while no load is blocking.
    Loads that miss to memory may overlap up to ``mlp`` outstanding line
    misses before the core stalls; store misses retire without stalling
    (write-validate allocation) and produce DRAM writes through dirty
    evictions.
    """

    cpu_ratio: int = 8  # CPU cycles per MC cycle (2132 MHz / 266 MHz)
    # Demand misses the core overlaps before stalling.  The default of 1
    # models the dependence-serialized miss behaviour of the sampled
    # traces; higher values emulate more aggressive out-of-order overlap
    # (prefetching gains shrink accordingly, as on any machine whose
    # core already hides latency itself).
    mlp: int = 1

    def validate(self) -> None:
        if self.cpu_ratio <= 0 or self.mlp <= 0:
            raise ValueError("cpu_ratio and mlp must be positive")


@dataclass
class SystemConfig:
    """Everything needed to instantiate one simulated system."""

    name: str = "custom"
    core: CoreConfig = field(default_factory=CoreConfig)
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    dram_power: DRAMPowerConfig = field(default_factory=DRAMPowerConfig)
    ms_prefetcher: MemorySidePrefetcherConfig = field(
        default_factory=MemorySidePrefetcherConfig
    )
    ps_prefetcher: ProcessorSidePrefetcherConfig = field(
        default_factory=ProcessorSidePrefetcherConfig
    )
    threads: int = 1

    def validate(self) -> "SystemConfig":
        """Validate every sub-config; returns self for chaining."""
        self.core.validate()
        self.hierarchy.validate()
        self.controller.validate()
        self.dram.validate()
        self.dram_power.validate()
        self.ms_prefetcher.validate()
        self.ps_prefetcher.validate()
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        return self

    def derive(self, **changes) -> "SystemConfig":
        """Return a shallow-copied config with top-level fields replaced."""
        return replace(self, **changes)

    def with_overrides(self, overrides: Iterable[Tuple[str, object]]) -> "SystemConfig":
        """A validated copy with each ``(dotted.path, value)`` field set,
        e.g. ``("ms_prefetcher.buffer.entries", 8)``; ``self`` is
        untouched.  A bad or repeated path, a value of another type than
        the field's (replacing ``None`` is allowed) or a result that
        fails :meth:`validate` raises ``ValueError`` naming the path."""
        config, paths = self, []
        for path, value in overrides:
            if path in paths:
                raise ValueError(f"override {path!r} is given twice")
            paths.append(path)
            config = _with_field(config, path.split("."), value, path)
        try:
            return config.validate()
        except (TypeError, ValueError) as exc:  # a mistyped ex-None field: TypeError
            raise ValueError(f"overrides {paths} fail validation: {exc}") from None


def _with_field(block: object, names: Sequence[str], value: object, path: str):
    """A copy of ``block`` with the field at ``names`` set to ``value``."""
    name, rest = names[0], names[1:]
    if name not in {f.name for f in fields(block)}:
        raise ValueError(f"override {path!r}: no field {name!r} in {type(block).__name__}")
    current = getattr(block, name)
    if is_dataclass(current) != bool(rest):
        raise ValueError(f"override {path!r} must lead through config blocks to a scalar")
    if rest:
        value = _with_field(current, rest, value, path)
    elif current is not None and type(value) is not type(current):
        raise ValueError(
            f"override {path!r}: expected {type(current).__name__}, got {value!r}"
        )
    return replace(block, **{name: value})
