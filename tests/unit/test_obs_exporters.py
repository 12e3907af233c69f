"""Unit tests for repro.obs.exporters — exposition + snapshot codecs."""

import os

import pytest

from repro.obs import exporters
from repro.obs.metrics import MetricsRegistry


def populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    jobs = reg.counter("repro_sweep_jobs_total", "Jobs by outcome.",
                       ("outcome",))
    jobs.inc(3, outcome="serial")
    jobs.inc(outcome="store")
    reg.gauge("repro_queue_depth", "Queue depth.").set(7)
    hist = reg.histogram("repro_job_seconds", "Job seconds.",
                         buckets=(0.1, 1.0, 10.0))
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(99.0)
    return reg


def exposition(reg: MetricsRegistry) -> str:
    return exporters.render_exposition(exporters.registry_snapshot(reg))


class TestExposition:
    def test_help_and_type_lines(self):
        text = exposition(populated_registry())
        assert "# HELP repro_sweep_jobs_total Jobs by outcome." in text
        assert "# TYPE repro_sweep_jobs_total counter" in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert "# TYPE repro_job_seconds histogram" in text

    def test_sample_lines(self):
        text = exposition(populated_registry())
        assert 'repro_sweep_jobs_total{outcome="serial"} 3' in text
        assert 'repro_sweep_jobs_total{outcome="store"} 1' in text
        assert "repro_queue_depth 7" in text

    def test_histogram_lines_are_cumulative(self):
        text = exposition(populated_registry())
        assert 'repro_job_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_job_seconds_bucket{le="1"} 2' in text
        assert 'repro_job_seconds_bucket{le="10"} 2' in text
        assert 'repro_job_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_job_seconds_count 3" in text

    def test_empty_registry_renders_empty(self):
        assert exposition(MetricsRegistry()) == ""

    def test_unused_instruments_are_omitted(self):
        reg = MetricsRegistry()
        reg.counter("repro_never_incremented_total", "x")
        assert exposition(reg) == ""

    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.counter("repro_c_total", "", ("path",)).inc(path='a"b\\c\nd')
        text = exposition(reg)
        assert 'path="a\\"b\\\\c\\nd"' in text
        parsed = exporters.parse_exposition(text)
        assert parsed[("repro_c_total", (("path", 'a"b\\c\nd'),))] == 1.0


class TestParse:
    def test_round_trip_equals_rendered(self):
        reg = populated_registry()
        parsed = exporters.parse_exposition(exposition(reg))
        assert parsed[("repro_sweep_jobs_total", (("outcome", "serial"),))] == 3.0
        assert parsed[("repro_queue_depth", ())] == 7.0
        assert parsed[
            ("repro_job_seconds_bucket", (("le", "+Inf"),))
        ] == 3.0

    def test_malformed_line_raises(self):
        with pytest.raises(ValueError):
            exporters.parse_exposition('metric{oops} 1')
        with pytest.raises(ValueError):
            exporters.parse_exposition("name_only_no_value")

    def test_comments_and_blanks_are_skipped(self):
        assert exporters.parse_exposition("# HELP x y\n\n# TYPE x counter\n") == {}

    def test_empty_registry_round_trips_to_empty_dict(self):
        # the CI smoke's degenerate case: nothing rendered, nothing parsed
        assert exporters.parse_exposition(
            exposition(MetricsRegistry())
        ) == {}

    def test_escaped_label_values_round_trip(self):
        # every escape the 0.0.4 format defines, in one label value,
        # plus a comma and an equals sign that must not split the pair
        hostile = 'a\\b"c\nd,e=f'
        reg = MetricsRegistry()
        reg.counter("repro_c_total", "", ("path", "kind")).inc(
            2, path=hostile, kind="plain"
        )
        parsed = exporters.parse_exposition(exposition(reg))
        assert parsed[
            ("repro_c_total", (("kind", "plain"), ("path", hostile)))
        ] == 2.0

    def test_trailing_backslash_label_value(self):
        reg = MetricsRegistry()
        reg.counter("repro_c_total", "", ("p",)).inc(p="ends\\")
        parsed = exporters.parse_exposition(exposition(reg))
        assert parsed[("repro_c_total", (("p", "ends\\"),))] == 1.0

    def test_histogram_inf_sum_count_round_trip(self):
        reg = MetricsRegistry()
        hist = reg.histogram("repro_h_seconds", "", buckets=(0.5,),
                             labelnames=("stage",))
        hist.observe(0.1, stage="lease")
        hist.observe(9.0, stage="lease")
        parsed = exporters.parse_exposition(exposition(reg))
        stage = ("stage", "lease")
        assert parsed[("repro_h_seconds_bucket", (("le", "0.5"), stage))] == 1.0
        assert parsed[("repro_h_seconds_bucket", (("le", "+Inf"), stage))] == 2.0
        assert parsed[("repro_h_seconds_sum", (stage,))] == pytest.approx(9.1)
        assert parsed[("repro_h_seconds_count", (stage,))] == 2.0

    def test_inf_sample_value_parses(self):
        parsed = exporters.parse_exposition("g +Inf\nh -Inf\n")
        assert parsed[("g", ())] == float("inf")
        assert parsed[("h", ())] == float("-inf")


class TestSnapshot:
    def test_snapshot_round_trips_to_identical_exposition(self, tmp_path):
        reg = populated_registry()
        # label names out of sorted order: the file's keys come back
        # sorted, the exposition must not
        reg.counter("repro_fleet_total", "", ("worker", "outcome")).inc(
            2, worker="w1", outcome="executed"
        )
        document = exporters.registry_snapshot(reg)
        assert document["version"] == exporters.SNAPSHOT_VERSION
        path = exporters.write_snapshot(reg, directory=str(tmp_path))
        text = exporters.render_exposition(exporters.load_snapshot(path))
        assert text == exporters.render_exposition(document)
        assert 'repro_fleet_total{worker="w1",outcome="executed"} 2' in text

    def test_progress_section_is_embedded(self):
        document = exporters.registry_snapshot(
            MetricsRegistry(), progress={"done": 3, "total": 9}
        )
        assert document["progress"] == {"done": 3, "total": 9}

    def test_write_load_latest(self, tmp_path):
        directory = str(tmp_path / "metrics")
        path = exporters.write_snapshot(
            populated_registry(), directory=directory
        )
        assert os.path.basename(path) == "latest.json"
        loaded = exporters.load_snapshot(path)
        assert loaded["version"] == exporters.SNAPSHOT_VERSION
        found = exporters.latest_snapshot(directory)
        assert found is not None
        assert found[0] == path
        assert found[1] == loaded

    def test_write_snapshot_defaults_under_store_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        path = exporters.write_snapshot(MetricsRegistry())
        assert path == str(tmp_path / "metrics" / "latest.json")

    def test_latest_snapshot_missing_dir(self, tmp_path):
        assert exporters.latest_snapshot(str(tmp_path / "nope")) is None

    def test_latest_snapshot_skips_unreadable(self, tmp_path):
        directory = str(tmp_path)
        good = exporters.write_snapshot(
            populated_registry(), directory=directory, filename="good.json"
        )
        bad = tmp_path / "zz-newer.json"
        bad.write_text("{not json")
        os.utime(bad, (9999999999, 9999999999))
        found = exporters.latest_snapshot(directory)
        assert found is not None and found[0] == good
