"""Per-epoch time series of one run, from either fidelity tier.

:class:`EpochProbes` is the simulator's only recorder.  Bound to a live
:class:`~repro.system.simulator.System`, it installs the memory-side
prefetcher's epoch hook and, at each SLH epoch boundary, samples the
state the paper's dynamic claims are about — SLH snapshots per thread
and direction, queue depths, prefetch accuracy and coverage, delayed
regular commands, the Adaptive Scheduling policy index, and DRAM
activity/power — plus the window delta of every running stats counter
(:meth:`EpochProbes.counter`): the discard reasons, merges and policy
steps included.  The fast model (:func:`repro.fastsim.model.predict`)
has no live system: it hands each closed epoch's running counters and
point values to :meth:`EpochProbes.record_epoch` instead.

Both tiers share one sampling rule.  Epochs carry their 1-based index,
every ``interval``-th closed epoch is sampled starting with the first,
and every counter-derived series is a *delta* over the sampling window
(the change in its running total since the previous sample), so a
series entry describes what happened during that window, not the run
so far.  That is what makes Figure 3 style phase plots fall out of
probe data directly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro.common.stats import Stats
from repro.telemetry.series import Series

#: Direction key -> short series-name suffix.
_DIRECTION_NAMES = {1: "asc", -1: "desc"}


class EpochProbes:
    """Samples epoch-resolved series from one run of either tier.

    Parameters:
        interval: sample every N-th closed epoch (1 = every epoch).
        capacity: per-series bound, counters included (oldest samples
            are dropped past this; drops are counted per series).
    """

    def __init__(self, interval: int = 1, capacity: int = 4096) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.capacity = capacity
        self.series: Dict[str, Series] = {}
        #: exact tier: each stats counter's window delta, by ``block.key``
        self.counters: Dict[str, Series] = {}
        self.epochs_seen = 0
        self.samples_taken = 0
        self._bound = False
        self._system = None
        self._stats_blocks: Dict[str, Stats] = {}
        #: running totals at the previous sample (the window's start)
        self._prev: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind(self, system=None) -> None:
        """Attach to the one run this object records.

        ``system`` is the exact tier's live system, bound before it
        runs: the baseline totals are taken here so the first sample's
        deltas cover the first window, and the memory-side prefetcher
        calls :meth:`_on_epoch` at each boundary.  The fast model binds
        with no system and calls :meth:`record_epoch` itself.
        """
        if self._bound:
            raise RuntimeError("EpochProbes records exactly one run")
        self._bound = True
        if system is None:
            return
        self._system = system
        self._stats_blocks = {
            "mc": system.controller.stats,
            "ms": system.ms.stats,
            "pb": system.ms.buffer.stats,
            "lpq": system.ms.lpq.stats,
            "sched": system.ms.scheduler.stats,
            "dram": system.dram.stats,
            "core": system.core.stats,
        }
        self._prev = self._totals(system.now)
        system.ms.on_epoch = self._on_epoch

    def _series(self, name: str, table: Optional[Dict[str, Series]] = None) -> Series:
        """The named series of ``table`` (default :attr:`series`),
        created on first use."""
        if table is None:
            table = self.series
        s = table.get(name)
        if s is None:
            s = table[name] = Series(name, self.capacity)
        return s

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def _due(self) -> bool:
        """Count one closed epoch; True when the stride samples it."""
        self.epochs_seen += 1
        if (self.epochs_seen - 1) % self.interval:
            return False
        self.samples_taken += 1
        return True

    def _window(self, totals: Mapping[str, float]) -> Dict[str, float]:
        """Each running total's change since the previous sample."""
        prev = self._prev
        self._prev = dict(totals)
        return {name: total - prev.get(name, 0) for name, total in totals.items()}

    def record_epoch(
        self,
        epoch: int,
        totals: Mapping[str, float],
        points: Mapping[str, Any],
    ) -> None:
        """Fast tier: one closed epoch's running counters and point values.

        ``totals`` are running counters, recorded as window deltas;
        ``points`` are recorded as given.
        """
        if not self._due():
            return
        for name, delta in self._window(totals).items():
            self._series(name).record(epoch, delta)
        for name, value in points.items():
            self._series(name).record(epoch, value)

    def _on_epoch(self, t: int) -> None:
        """Epoch hook: sample the epoch that closed in the core phase of
        MC cycle ``t`` when the stride says so."""
        if self._due():
            self._sample(self.epochs_seen, t)

    def _totals(self, now: int) -> Dict[str, float]:
        """The bound system's running counters as ``block.key`` totals."""
        totals = {
            f"{block}.{key}": value
            for block, stats in self._stats_blocks.items()
            for key, value in stats.as_dict().items()
        }
        for key, value in self._system.power_model.snapshot().items():
            totals[f"power.{key}"] = value
        totals["now"] = now
        return totals

    def _sample(self, epoch: int, t: int) -> None:
        """Take one full sample of ``epoch``, closed at MC cycle ``t``."""
        system = self._system
        def rec(name, value):
            self._series(name).record(epoch, value)

        if system.loop_stats["mode"] == "event":
            # the event loop keeps the occupancy integrals as queue
            # accumulators: settle them at this sample's clock (the
            # boundary fires in the core phase of cycle t)
            system.controller.settle_integrals(t + 1)
        deltas = self._window(self._totals(t))
        blocks = self._stats_blocks
        for name, delta in deltas.items():
            if name.partition(".")[0] in blocks:  # not power.* or now
                self._series(name, self.counters).record(epoch, delta)

        # -- scheduling ------------------------------------------------
        rec("policy.index", system.ms.scheduler.policy)
        rec("sched.conflicts", deltas.get("sched.conflicts", 0))
        rec("mc.delayed_regular", deltas.get("mc.delayed_regular", 0))

        # -- queue depths ----------------------------------------------
        ticks = deltas.get("mc.ticks", 0)
        rec("queue.lpq", len(system.ms.lpq))
        rec("queue.caq", len(system.controller.caq))
        rec("queue.read", len(system.controller.queues.reads))
        rec("queue.write", len(system.controller.queues.writes))
        for queue in ("lpq", "caq", "read_queue", "write_queue"):
            avg = deltas.get(f"mc.occ_{queue}", 0) / ticks if ticks else 0.0
            rec(f"queue.{queue}.avg", avg)
        rec("pb.occupancy", system.ms.buffer.occupancy)

        # -- prefetch effectiveness ------------------------------------
        reads = deltas.get("mc.reads_arrived", 0)
        inserts = deltas.get("pb.inserts", 0)
        hits = deltas.get("pb.read_hits", 0)
        rec("mc.reads", reads)
        rec("prefetch.generated", deltas.get("ms.generated", 0))
        rec("prefetch.issued", deltas.get("ms.issued", 0))
        rec("prefetch.completed", deltas.get("ms.completed", 0))
        rec("prefetch.buffer_hits", deltas.get("ms.buffer_hits", 0))
        rec("prefetch.accuracy", hits / inserts if inserts else 0.0)
        rec(
            "prefetch.coverage",
            deltas.get("ms.buffer_hits", 0) / reads if reads else 0.0,
        )

        # -- DRAM activity and power -----------------------------------
        rec("dram.activations", deltas.get("dram.activations", 0))
        rec("dram.row_hits", deltas.get("dram.row_hits", 0))
        rec("dram.reads", deltas.get("dram.issued_reads", 0))
        rec("dram.writes", deltas.get("dram.issued_writes", 0))
        d_cycles = deltas["now"]
        if d_cycles > 0:
            energy_uj = system.power_model.interval_energy_uj(
                deltas["power.activations"],
                deltas["power.read_bursts"],
                deltas["power.write_bursts"],
                d_cycles,
            )
            t_ns = d_cycles * system.dram.config.timing.t_ck_ns
            rec("dram.energy_uj", energy_uj)
            rec("dram.power_mw", (energy_uj / t_ns) * 1e6 if t_ns else 0.0)

        # -- SLH snapshots (ASD engine only) ---------------------------
        self._sample_slh(epoch)

    def _sample_slh(self, epoch: int) -> None:
        """Record per-(thread, direction) likelihood-table snapshots.

        ``slh.lht.*`` holds the raw ``lht`` vector active for the new
        epoch, ``slh.bars.*`` its bar-heights form, ``slh.decision.*``
        the inequality-(5) prefetch verdict for every stream position —
        the exact decisions the engine will apply during the new epoch.
        """
        tables = self._system.ms.asd_tables()
        if tables is None:
            return
        degree = self._system.ms.config.degree
        for tid, pair in enumerate(tables):
            for direction, lht in pair.items():
                suffix = f"t{tid}.{_DIRECTION_NAMES[direction.step]}"
                self._series(f"slh.lht.{suffix}").record(
                    epoch, tuple(lht.epoch_start)
                )
                self._series(f"slh.bars.{suffix}").record(
                    epoch, tuple(lht.bars_epoch_start())
                )
                decisions = tuple(
                    lht.should_prefetch(k, degree)
                    for k in range(1, lht.lm - degree + 1)
                )
                self._series(f"slh.decision.{suffix}").record(epoch, decisions)

    # ------------------------------------------------------------------
    # access helpers
    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[Series]:
        """The named series, or None if never sampled."""
        return self.series.get(name)

    def counter(self, name: str) -> Optional[Series]:
        """Window deltas of the stats counter ``name`` (``block.key``,
        e.g. ``lpq.dropped_full``), or None if it never existed at a
        sample.  A counter's series starts at the first sample after
        its first write."""
        return self.counters.get(name)

    def scalar_names(self) -> List[str]:
        """Names of all scalar-valued series, sorted."""
        return sorted(n for n, s in self.series.items() if s.is_scalar)

    def vector_names(self) -> List[str]:
        """Names of all vector-valued (tuple) series, sorted."""
        return sorted(n for n, s in self.series.items() if not s.is_scalar)

    def sampled_epochs(self) -> List[int]:
        """Union of epoch indices present across every series."""
        epochs = set()
        for s in self.series.values():
            epochs.update(s.epochs())
        return sorted(epochs)

    def summary(self) -> Dict[str, Any]:
        """JSON-ready digest: coverage and per-series drop counts."""
        return {
            "interval": self.interval,
            "epochs_seen": self.epochs_seen,
            "samples_taken": self.samples_taken,
            "series": sorted(self.series),
            "dropped": {
                n: s.dropped for n, s in sorted(self.series.items()) if s.dropped
            },
        }
