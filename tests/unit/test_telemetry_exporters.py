"""Unit tests for repro.telemetry.exporters — CSV/JSON, reports."""

import json

from repro.telemetry.exporters import epoch_report, series_to_csv, series_to_json
from repro.telemetry.probes import EpochProbes


def _synthetic_probes() -> EpochProbes:
    """Probes pre-filled with hand-made series (no system required)."""
    probes = EpochProbes(interval=1, capacity=16)
    for epoch in (1, 2, 3):
        probes._series("policy.index").record(epoch, epoch % 3)
        probes._series("queue.lpq.avg").record(epoch, 0.5 * epoch)
        probes._series("queue.caq.avg").record(epoch, 0.25 * epoch)
        probes._series("prefetch.accuracy").record(epoch, 0.5)
        probes._series("prefetch.coverage").record(epoch, 0.25)
        probes._series("mc.delayed_regular").record(epoch, epoch)
        probes._series("dram.power_mw").record(epoch, 700.0 + epoch)
        probes._series("slh.lht.t0.asc").record(epoch, (0, 10, 5))
        probes._series("lpq.dropped_full", probes.counters).record(epoch, epoch)
        probes.samples_taken += 1
        probes.epochs_seen += 1
    return probes


class TestSeriesExport:
    def test_csv_one_row_per_epoch(self, tmp_path):
        probes = _synthetic_probes()
        path = str(tmp_path / "series.csv")
        rows = series_to_csv(probes, path)
        assert rows == 3
        with open(path) as handle:
            lines = handle.read().splitlines()
        header = lines[0].split(",")
        assert header[0] == "epoch"
        assert "policy.index" in header
        assert "slh.lht.t0.asc" not in header  # vectors excluded from CSV
        assert "lpq.dropped_full" not in header  # so are the counters
        assert len(lines) == 4

    def test_json_includes_vectors(self, tmp_path):
        probes = _synthetic_probes()
        path = str(tmp_path / "series.json")
        doc = series_to_json(probes, path)
        assert doc["series"]["slh.lht.t0.asc"]["values"][0] == [0, 10, 5]
        with open(path) as handle:
            on_disk = json.load(handle)
        assert on_disk["series"].keys() == doc["series"].keys()

    def test_json_without_path_returns_doc(self):
        doc = series_to_json(_synthetic_probes())
        assert doc["samples_taken"] == 3

    def test_json_carries_counters_apart_from_series(self):
        probes = _synthetic_probes()
        doc = series_to_json(probes)
        assert doc["counters"]["lpq.dropped_full"] == {
            "epochs": [1, 2, 3], "values": [1, 2, 3], "dropped": 0}
        assert "lpq.dropped_full" not in doc["series"]
        assert probes.counter("lpq.dropped_full").points() == [1, 2, 3]
        assert probes.counter("lpq.never_written") is None


class TestEpochReport:
    def test_report_renders_sampled_epochs(self):
        report = epoch_report(_synthetic_probes())
        assert "policy" in report
        assert "dram mW" in report
        for epoch in ("1", "2", "3"):
            assert epoch in report

    def test_report_empty_probes(self):
        assert "no epochs sampled" in epoch_report(EpochProbes())

    def test_report_honours_max_rows(self):
        report = epoch_report(_synthetic_probes(), max_rows=1)
        lines = [ln for ln in report.splitlines() if ln and ln[0].isdigit()]
        assert len(lines) == 1
