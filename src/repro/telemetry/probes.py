"""Per-epoch time-series probes over a live :class:`~repro.system.simulator.System`.

:class:`EpochProbes` binds to a system and subscribes to the tracer's
``epoch_boundary`` events.  At every ``interval``-th epoch it samples
the state the paper's dynamic claims are about — SLH snapshots per
thread and direction, queue depths, prefetch accuracy and coverage,
delayed regular commands, the Adaptive Scheduling policy index, and
DRAM activity/power — into ring-buffered :class:`~repro.telemetry.series.Series`.

All per-epoch counters are *deltas* between consecutive samples
(computed with :meth:`repro.common.stats.Stats.snapshot_delta`), so a
series entry describes what happened during that sampling window, not
the run so far.  That is what makes Figure 3 style phase plots fall out
of probe data directly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.common.stats import Stats
from repro.telemetry.events import EpochBoundary, TraceEvent
from repro.telemetry.series import Series

#: Direction key -> short series-name suffix.
_DIRECTION_NAMES = {1: "asc", -1: "desc"}


class EpochProbes:
    """Samples epoch-resolved series from a bound system.

    Parameters:
        interval: sample every N-th epoch boundary (1 = every epoch).
        capacity: ring-buffer capacity per series (oldest samples are
            dropped past this; drops are counted per series).
    """

    def __init__(self, interval: int = 1, capacity: int = 4096) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.capacity = capacity
        self.series: Dict[str, Series] = {}
        self.epochs_seen = 0
        self.samples_taken = 0
        self._system = None
        self._stats_blocks: Dict[str, Stats] = {}
        self._prev: Dict[str, Dict[str, float]] = {}
        self._prev_power: Dict[str, int] = {}
        self._prev_now = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind(self, system) -> None:
        """Attach to a system and start listening for epoch boundaries.

        Must be called before the system runs; the baseline snapshot is
        taken here so the first sample's deltas cover the first window.
        """
        if self._system is not None:
            raise RuntimeError("EpochProbes binds to exactly one system")
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
        self._prev = {k: s.as_dict() for k, s in self._stats_blocks.items()}
        self._prev_power = system.power_model.snapshot()
        self._prev_now = system.now
        system.tracer.subscribe(self._on_event, kinds=("epoch_boundary",))

    def _series(self, name: str) -> Series:
        s = self.series.get(name)
        if s is None:
            s = self.series[name] = Series(name, self.capacity)
        return s

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def _on_event(self, event: TraceEvent) -> None:
        """Tracer sink: count epochs and sample on the configured stride."""
        assert isinstance(event, EpochBoundary)
        self.epochs_seen += 1
        if (self.epochs_seen - 1) % self.interval:
            return
        self._sample(event)

    def _sample(self, event: EpochBoundary) -> None:
        """Take one full sample at epoch ``event.epoch``."""
        system = self._system
        epoch = event.epoch
        self.samples_taken += 1
        def rec(name, value):
            self._series(name).record(epoch, value)

        if system.loop_stats["mode"] == "event":
            # the event loop keeps the occupancy integrals as queue
            # accumulators: settle them at this sample's clock (the
            # boundary fires in the core phase of cycle event.t)
            system.controller.settle_integrals(event.t + 1)
        deltas = {
            k: s.snapshot_delta(self._prev[k])
            for k, s in self._stats_blocks.items()
        }
        self._prev = {k: s.as_dict() for k, s in self._stats_blocks.items()}

        # -- scheduling ------------------------------------------------
        rec("policy.index", system.ms.scheduler.policy)
        rec("sched.conflicts", deltas["sched"].get("conflicts", 0))
        rec("mc.delayed_regular", deltas["mc"].get("delayed_regular", 0))

        # -- queue depths ----------------------------------------------
        mc = deltas["mc"]
        ticks = mc.get("ticks", 0)
        rec("queue.lpq", len(system.ms.lpq))
        rec("queue.caq", len(system.controller.caq))
        rec("queue.read", len(system.controller.queues.reads))
        rec("queue.write", len(system.controller.queues.writes))
        for queue in ("lpq", "caq", "read_queue", "write_queue"):
            avg = mc.get(f"occ_{queue}", 0) / ticks if ticks else 0.0
            rec(f"queue.{queue}.avg", avg)
        rec("pb.occupancy", system.ms.buffer.occupancy)

        # -- prefetch effectiveness ------------------------------------
        reads = mc.get("reads_arrived", 0)
        inserts = deltas["pb"].get("inserts", 0)
        hits = deltas["pb"].get("read_hits", 0)
        rec("mc.reads", reads)
        rec("prefetch.generated", deltas["ms"].get("generated", 0))
        rec("prefetch.issued", deltas["ms"].get("issued", 0))
        rec("prefetch.completed", deltas["ms"].get("completed", 0))
        rec("prefetch.buffer_hits", deltas["ms"].get("buffer_hits", 0))
        rec("prefetch.accuracy", hits / inserts if inserts else 0.0)
        rec(
            "prefetch.coverage",
            deltas["ms"].get("buffer_hits", 0) / reads if reads else 0.0,
        )

        # -- DRAM activity and power -----------------------------------
        dram = deltas["dram"]
        rec("dram.activations", dram.get("activations", 0))
        rec("dram.row_hits", dram.get("row_hits", 0))
        rec("dram.reads", dram.get("issued_reads", 0))
        rec("dram.writes", dram.get("issued_writes", 0))
        power = system.power_model.snapshot()
        d_cycles = event.t - self._prev_now
        if d_cycles > 0:
            energy_uj = system.power_model.interval_energy_uj(
                power["activations"] - self._prev_power["activations"],
                power["read_bursts"] - self._prev_power["read_bursts"],
                power["write_bursts"] - self._prev_power["write_bursts"],
                d_cycles,
            )
            t_ns = d_cycles * system.dram.config.timing.t_ck_ns
            rec("dram.energy_uj", energy_uj)
            rec("dram.power_mw", (energy_uj / t_ns) * 1e6 if t_ns else 0.0)
        self._prev_power = power
        self._prev_now = event.t

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
