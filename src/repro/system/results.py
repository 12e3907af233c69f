"""Run results and the derived metrics the paper reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.dram.power import PowerReport


@dataclass
class RunResult:
    """Everything measured in one simulation run.

    The paper's headline metric is execution time; ``gain_vs`` computes
    the "Performance Gain (%)" of its Figures 5-7: how much faster this
    run is than a baseline, ``(T_base / T_this - 1) * 100``.
    """

    config_name: str
    benchmark: str
    cycles: int  # MC (DDR bus) cycles
    instructions: int
    cpu_ratio: int
    stats: Dict[str, float] = field(default_factory=dict)
    power: Optional[PowerReport] = None
    #: ``{"probes": EpochProbes.summary()}`` when the run was probed;
    #: None otherwise — see repro.telemetry
    telemetry: Optional[Dict[str, object]] = None
    #: fidelity record (docs/fidelity.md): None for plain exact runs;
    #: fast-model results carry ``{"tier": "fast", "model_version": N}``
    #: plus, once a FidelityGate has calibrated the sweep, per-metric
    #: ``error_bars`` and the calibration summary they came from
    fidelity: Optional[Dict[str, object]] = None

    @property
    def telemetry_active(self) -> bool:
        """True when this run executed with probes attached."""
        return self.telemetry is not None

    @property
    def fidelity_tier(self) -> str:
        """``"fast"`` or ``"exact"`` — how this result was computed."""
        if self.fidelity is None:
            return "exact"
        return str(self.fidelity.get("tier", "exact"))

    def error_bar(self, metric: str) -> Optional[float]:
        """Validated relative-error bound for ``metric``, if attached.

        Fast results gain per-metric bounds once a
        :class:`repro.fastsim.gate.FidelityGate` has calibrated their
        sweep; exact results (and uncalibrated fast ones) return None.
        """
        if self.fidelity is None:
            return None
        bars = self.fidelity.get("error_bars")
        if not isinstance(bars, dict):
            return None
        value = bars.get(metric)
        return float(value) if isinstance(value, (int, float)) else None

    @property
    def cpu_cycles(self) -> int:
        return self.cycles * self.cpu_ratio

    @property
    def ipc(self) -> float:
        if self.cpu_cycles == 0:
            return 0.0
        return self.instructions / self.cpu_cycles

    def gain_vs(self, baseline: "RunResult") -> float:
        """Performance gain in percent over ``baseline`` (same trace)."""
        if self.cycles == 0:
            return 0.0
        return (baseline.cycles / self.cycles - 1.0) * 100.0

    def normalized_time_vs(self, baseline: "RunResult") -> float:
        """Execution time normalised to ``baseline`` (Figure 11's y-axis)."""
        if baseline.cycles == 0:
            return 0.0
        return self.cycles / baseline.cycles

    # ------------------------------------------------------------------
    # Figure 13 metrics
    # ------------------------------------------------------------------
    @property
    def pb_hits(self) -> float:
        return self.stats.get("mc.pb_hits_pre_caq", 0) + self.stats.get(
            "mc.pb_hits_caq", 0
        )

    @property
    def coverage(self) -> float:
        """Reads (incl. PS prefetches) served by the Prefetch Buffer."""
        reads = self.stats.get("mc.reads_arrived", 0)
        return self.pb_hits / reads if reads else 0.0

    @property
    def useful_prefetch_fraction(self) -> float:
        """MS-prefetched lines that were consumed by a read."""
        inserts = self.stats.get("pb.inserts", 0)
        if not inserts:
            return 0.0
        return self.stats.get("pb.read_hits", 0) / inserts

    @property
    def delayed_regular_fraction(self) -> float:
        """Regular commands delayed by memory-side prefetches."""
        regular = self.stats.get("mc.issued_regular", 0)
        if not regular:
            return 0.0
        return self.stats.get("mc.delayed_regular", 0) / regular

    def avg_read_latency(self, provenance: str = "demand") -> float:
        """Mean controller read latency in MC cycles (arrival to data).

        ``provenance`` is "demand" or "ps_prefetch".
        """
        count = self.stats.get(f"mc.lat_cnt_{provenance}", 0)
        if not count:
            return 0.0
        return self.stats.get(f"mc.lat_sum_{provenance}", 0) / count

    def read_latency_histogram(self, provenance: str = "demand") -> Dict[int, float]:
        """Log2-bucketed read-latency histogram.

        Keys are bucket lower bounds in MC cycles (1, 2, 4, 8, ...);
        values are completion counts.
        """
        prefix = f"mc.lat_hist_{provenance}_"
        out: Dict[int, float] = {}
        for key, value in self.stats.items():
            if key.startswith(prefix):
                out[1 << int(key[len(prefix):])] = value
        return dict(sorted(out.items()))

    # ------------------------------------------------------------------
    # power metrics (Figures 8-10: PMS vs PS)
    # ------------------------------------------------------------------
    def power_increase_vs(self, baseline: "RunResult") -> float:
        """DRAM average-power increase in percent over ``baseline``."""
        if self.power is None or baseline.power is None:
            raise ValueError("both runs need power reports")
        if baseline.power.avg_power_mw == 0:
            return 0.0
        return (self.power.avg_power_mw / baseline.power.avg_power_mw - 1) * 100

    def energy_reduction_vs(self, baseline: "RunResult") -> float:
        """DRAM energy reduction in percent relative to ``baseline``."""
        if self.power is None or baseline.power is None:
            raise ValueError("both runs need power reports")
        if baseline.power.energy_uj == 0:
            return 0.0
        return (1 - self.power.energy_uj / baseline.power.energy_uj) * 100

    def avg_queue_occupancy(self, queue: str = "read_queue") -> float:
        """Time-averaged queue occupancy.

        ``queue`` is one of "read_queue", "write_queue", "caq", "lpq".
        """
        ticks = self.stats.get("mc.ticks", 0)
        if not ticks:
            return 0.0
        return self.stats.get(f"mc.occ_{queue}", 0) / ticks

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable summary of the run (for tooling)."""
        out: Dict[str, object] = {
            "config": self.config_name,
            "benchmark": self.benchmark,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "ipc": self.ipc,
            "coverage": self.coverage,
            "useful_prefetch_fraction": self.useful_prefetch_fraction,
            "delayed_regular_fraction": self.delayed_regular_fraction,
            "avg_demand_latency_mc": self.avg_read_latency(),
            "stats": dict(self.stats),
        }
        if self.power is not None:
            out["power"] = {
                "energy_uj": self.power.energy_uj,
                "avg_power_mw": self.power.avg_power_mw,
                "background_energy_uj": self.power.background_energy_uj,
            }
        if self.telemetry is not None:
            out["telemetry"] = self.telemetry
        if self.fidelity is not None:
            out["fidelity"] = self.fidelity
        return out

    def summary(self) -> str:
        return (
            f"{self.benchmark:<12} {self.config_name:<14} "
            f"cycles={self.cycles:<10} ipc={self.ipc:.3f} "
            f"cov={self.coverage * 100:.1f}%"
        )
