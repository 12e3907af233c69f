"""Unit tests for the FidelityGate (sampling, calibration, attach)."""

import pytest

from repro.dram.power import PowerReport
from repro.fastsim.gate import (
    BOUND_FLOOR,
    BOUND_MARGIN,
    CalibrationRecord,
    FidelityGate,
    GATED_METRICS,
    metric_value,
    near_decision_boundary,
    relative_error,
)
from repro.fastsim.version import FAST_MODEL_VERSION
from repro.system.results import RunResult


def result(cycles=10_000, coverage=0.0, fast=False, **overrides):
    stats = {
        "mc.reads_arrived": 1000,
        "pb.hits": int(coverage * 1000),
    }
    stats.update(overrides.pop("stats", {}))
    fields = dict(
        config_name="PMS",
        benchmark="milc",
        cycles=cycles,
        instructions=8000,
        cpu_ratio=8,
        stats=stats,
        power=PowerReport(
            elapsed_ns=cycles * 3.75, energy_uj=100.0, avg_power_mw=500.0,
            activate_energy_uj=10.0, burst_energy_uj=20.0,
            background_energy_uj=70.0,
        ),
        fidelity=(
            {"tier": "fast", "model_version": FAST_MODEL_VERSION}
            if fast else None
        ),
    )
    fields.update(overrides)
    return RunResult(**fields)


class TestSampling:
    def test_deterministic_across_calls(self):
        keys = [f"key-{i}" for i in range(20)]
        assert FidelityGate().select(keys) == FidelityGate().select(keys)

    def test_sample_size_honours_fraction_and_minimum(self):
        gate = FidelityGate()
        assert gate.sample_size(0) == 0
        assert gate.sample_size(2) == 2      # capped at the population
        assert gate.sample_size(10) == 3     # the minimum dominates
        assert gate.sample_size(40) == 8     # the fraction dominates

    def test_selection_is_key_driven_not_positional(self):
        keys = [f"key-{i}" for i in range(10)]
        chosen = {keys[i] for i in FidelityGate().select(keys)}
        rotated = keys[3:] + keys[:3]
        rechosen = {rotated[i] for i in FidelityGate().select(rotated)}
        assert chosen == rechosen


class TestErrors:
    def test_relative_error_plain(self):
        fast, exact = result(cycles=11_000, fast=True), result(cycles=10_000)
        assert relative_error(fast, exact, "cycles") == pytest.approx(0.1)

    def test_denominator_floor_prevents_blowup(self):
        # coverage 0 vs 0.01: without the 0.02 floor this would be inf
        fast = result(coverage=0.01, fast=True)
        exact = result(coverage=0.0)
        err = relative_error(fast, exact, "coverage")
        assert err == pytest.approx(abs(
            metric_value(fast, "coverage") - 0.0
        ) / 0.02)

    def test_energy_reads_the_power_report(self):
        assert metric_value(result(), "energy_uj") == 100.0
        assert metric_value(result(power=None), "energy_uj") == 0.0


class TestCalibration:
    def test_bound_is_margin_over_worst_plus_floor(self):
        pairs = [
            (result(cycles=10_500, fast=True), result(cycles=10_000)),
            (result(cycles=9_000, fast=True), result(cycles=10_000)),
        ]
        record = FidelityGate().calibrate(pairs)
        stats = record.errors["cycles"]
        assert stats["max"] == pytest.approx(0.1)
        assert stats["mean"] == pytest.approx(0.075)
        assert record.bound("cycles") == pytest.approx(
            0.1 * BOUND_MARGIN + BOUND_FLOOR
        )

    def test_every_gated_metric_calibrated(self):
        record = FidelityGate().calibrate(
            [(result(fast=True), result())]
        )
        assert set(record.errors) == set(GATED_METRICS)
        assert record.model_version == FAST_MODEL_VERSION

    def test_empty_validation_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            FidelityGate().calibrate([])

    def test_record_round_trips_as_dict(self):
        record = FidelityGate().calibrate([(result(fast=True), result())])
        doc = record.as_dict()
        rebuilt = CalibrationRecord(**doc)
        assert rebuilt.error_bars() == record.error_bars()


class TestAttach:
    def test_fast_result_gains_bars_and_record(self):
        record = FidelityGate().calibrate(
            [(result(cycles=10_200, fast=True), result(cycles=10_000))]
        )
        fast = result(fast=True)
        FidelityGate.attach(fast, record)
        assert fast.error_bar("cycles") == record.bound("cycles")
        assert fast.fidelity["calibration"]["samples"] == 1

    def test_exact_result_passes_through(self):
        record = FidelityGate().calibrate([(result(fast=True), result())])
        exact = result()
        assert FidelityGate.attach(exact, record) is exact
        assert exact.fidelity is None


class TestDecisionBoundary:
    def make_record(self, cycle_bound):
        worst = (cycle_bound - BOUND_FLOOR) / BOUND_MARGIN
        fast = result(cycles=int(10_000 * (1 + worst)), fast=True)
        return FidelityGate().calibrate([(fast, result(cycles=10_000))])

    def test_gain_inside_the_band_escalates(self):
        record = self.make_record(0.05)
        baseline = result(cycles=10_000)
        close = result(cycles=9_700, fast=True)     # ~3.1% gain < 5%
        assert near_decision_boundary(close, baseline, record)

    def test_gain_outside_the_band_does_not(self):
        record = self.make_record(0.05)
        baseline = result(cycles=10_000)
        clear = result(cycles=7_000, fast=True)     # ~43% gain
        assert not near_decision_boundary(clear, baseline, record)

    def test_fast_baseline_widens_the_band(self):
        record = self.make_record(0.05)
        point = result(cycles=9_200, fast=True)     # ~8.7% gain
        exact_base = result(cycles=10_000)
        fast_base = result(cycles=10_000, fast=True)
        assert not near_decision_boundary(point, exact_base, record)
        assert near_decision_boundary(point, fast_base, record)
