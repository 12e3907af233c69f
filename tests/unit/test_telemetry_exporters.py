"""Unit tests for repro.telemetry.exporters — JSONL, CSV/JSON, reports."""

import io
import json

import pytest

from repro.telemetry.events import EpochBoundary, PrefetchIssued
from repro.telemetry.exporters import (
    JsonlEventWriter,
    epoch_report,
    read_events_jsonl,
    series_to_csv,
    series_to_json,
)
from repro.telemetry.probes import EpochProbes
from repro.telemetry.tracer import Tracer


class TestJsonlRoundTrip:
    def test_events_round_trip_through_file(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        events = [
            EpochBoundary(t=10, epoch=1, reads=1000, policy=2),
            PrefetchIssued(t=11, line=7, thread=0),
        ]
        with JsonlEventWriter(path) as writer:
            for event in events:
                writer(event)
            assert writer.events_written == 2
        assert read_events_jsonl(path) == events

    def test_subscribed_writer_captures_emissions(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        tracer = Tracer()
        with JsonlEventWriter(path) as writer:
            tracer.subscribe(writer)
            tracer.emit(PrefetchIssued(t=1, line=2))
        events = read_events_jsonl(path)
        assert events == [PrefetchIssued(t=1, line=2)]

    def test_borrowed_stream_left_open(self):
        stream = io.StringIO()
        writer = JsonlEventWriter(stream)
        writer(EpochBoundary(t=1, epoch=1))
        writer.close()
        assert not stream.closed
        assert json.loads(stream.getvalue())["kind"] == "epoch_boundary"

    def test_blank_lines_skipped_unknown_kind_raises(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind":"epoch_boundary","t":1,"epoch":1,"reads":0,'
                        '"policy":0}\n\n')
        assert len(read_events_jsonl(str(path))) == 1
        path.write_text('{"kind":"bogus","t":1}\n')
        with pytest.raises(ValueError):
            read_events_jsonl(str(path))


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
