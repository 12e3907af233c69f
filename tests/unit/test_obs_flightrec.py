"""Unit tests for repro.obs.flightrec and repro.obs.paths.

Includes the pin that keeps ``paths.obs_root()`` and the result
store's ``store_root()`` resolving identically.
"""

import logging
import os

from repro.experiments.store import store_root
from repro.obs import paths
from repro.obs.flightrec import (
    DEFAULT_CAPACITY,
    FlightRecorder,
    read_postmortem,
)
from repro.obs.metrics import MetricsRegistry


class TestPaths:
    def test_obs_root_matches_store_root(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", "/tmp/somewhere")
        assert paths.obs_root() == store_root()
        monkeypatch.delenv("REPRO_STORE_DIR")
        assert paths.obs_root() == store_root()
        monkeypatch.setenv("REPRO_STORE_DIR", "")  # empty -> default
        assert paths.obs_root() == store_root()

    def test_subdirectories(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", "/data/run1")
        assert paths.metrics_dir() == os.path.join("/data/run1", "metrics")
        assert paths.postmortem_dir() == os.path.join("/data/run1", "postmortem")
        assert paths.metrics_dir("/other") == os.path.join("/other", "metrics")


class TestRing:
    def test_note_appends_in_order_with_seq(self):
        rec = FlightRecorder()
        rec.note("submit", job="a")
        rec.note("retry", job="a", attempt=1)
        records = rec.records()
        assert [r["kind"] for r in records] == ["submit", "retry"]
        assert [r["seq"] for r in records] == [1, 2]
        assert records[1]["attempt"] == 1
        assert all("t_unix" in r for r in records)

    def test_ring_is_bounded(self):
        rec = FlightRecorder(capacity=3)
        for i in range(10):
            rec.note("n", i=i)
        records = rec.records()
        assert len(records) == 3
        assert [r["i"] for r in records] == [7, 8, 9]

    def test_default_capacity(self):
        rec = FlightRecorder()
        for i in range(DEFAULT_CAPACITY + 50):
            rec.note("n", i=i)
        assert len(rec.records()) == DEFAULT_CAPACITY


class TestLoggingCapture:
    def test_attach_captures_repro_loggers(self):
        rec = FlightRecorder()
        logger = logging.getLogger("repro.experiments.sweep")
        rec.attach("repro")
        try:
            logger.warning("job %s timed out", "abc")
        finally:
            rec.detach()
        logger.warning("after detach")  # must not be recorded
        records = [r for r in rec.records() if r["kind"] == "log"]
        assert len(records) == 1
        assert records[0]["level"] == "WARNING"
        assert records[0]["logger"] == "repro.experiments.sweep"
        assert records[0]["message"] == "job abc timed out"

    def test_detach_without_attach_is_noop(self):
        FlightRecorder().detach()


class TestPostmortem:
    def test_dump_and_read(self, tmp_path):
        rec = FlightRecorder(metrics=MetricsRegistry(enabled=False))
        rec.note("timeout", job="k1")
        path = rec.postmortem(
            "timeout", "k1", spec={"benchmark": "tonto"},
            extra={"timeout_s": 0.5}, directory=str(tmp_path),
        )
        assert path == str(tmp_path / "k1.json")
        doc = read_postmortem(path)
        assert doc["reason"] == "timeout"
        assert doc["job_key"] == "k1"
        assert doc["spec"] == {"benchmark": "tonto"}
        assert doc["extra"] == {"timeout_s": 0.5}
        assert doc["metrics"] is None  # disabled registry -> no snapshot
        assert [r["kind"] for r in doc["records"]] == ["timeout"]

    def test_dump_includes_metrics_when_enabled(self, tmp_path):
        reg = MetricsRegistry(enabled=True)
        reg.counter("repro_c_total").inc(4)
        rec = FlightRecorder(metrics=reg)
        doc = read_postmortem(
            rec.postmortem("worker_crash", "k2", directory=str(tmp_path))
        )
        names = {m["name"] for m in doc["metrics"]["metrics"]}
        assert "repro_c_total" in names

    def test_default_directory_is_postmortem_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        rec = FlightRecorder(metrics=MetricsRegistry(enabled=False))
        path = rec.postmortem("timeout", "k3")
        assert path == str(tmp_path / "postmortem" / "k3.json")

    def test_unwritable_directory_returns_none(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        rec = FlightRecorder(metrics=MetricsRegistry(enabled=False))
        assert rec.postmortem("x", "k", directory=str(blocker)) is None


class TestPostmortemRotation:
    @staticmethod
    def recorder(metrics=None):
        return FlightRecorder(
            metrics=metrics if metrics is not None
            else MetricsRegistry(enabled=False)
        )

    @staticmethod
    def age(directory, order):
        """Force distinct mtimes so eviction order is deterministic."""
        for offset, name in enumerate(order):
            path = os.path.join(directory, f"{name}.json")
            os.utime(path, (1000.0 + offset, 1000.0 + offset))

    def test_oldest_evicted_beyond_cap(self, tmp_path):
        rec = self.recorder()
        for key in ("k1", "k2", "k3"):
            rec.postmortem("timeout", key, directory=str(tmp_path))
        self.age(str(tmp_path), ("k1", "k2", "k3"))
        rec.postmortem("timeout", "k4", directory=str(tmp_path),
                       max_files=2)
        left = sorted(p.name for p in tmp_path.glob("*.json"))
        assert left == ["k3.json", "k4.json"]

    def test_just_written_survives_even_with_coarse_mtime(self, tmp_path):
        rec = self.recorder()
        for key in ("k1", "k2"):
            rec.postmortem("timeout", key, directory=str(tmp_path))
        rec.postmortem("timeout", "k3", directory=str(tmp_path))
        # rank the fresh dump oldest: it must still not be the victim
        os.utime(tmp_path / "k3.json", (1.0, 1.0))
        self.age(str(tmp_path), ("k1", "k2"))
        rec._rotate(str(tmp_path), str(tmp_path / "k3.json"), 1,
                    MetricsRegistry(enabled=False))
        assert (tmp_path / "k3.json").exists()

    def test_eviction_counter_increments(self, tmp_path):
        reg = MetricsRegistry(enabled=True)
        rec = self.recorder(metrics=reg)
        for key in ("k1", "k2", "k3"):
            rec.postmortem("timeout", key, directory=str(tmp_path))
        self.age(str(tmp_path), ("k1", "k2", "k3"))
        rec.postmortem("timeout", "k4", directory=str(tmp_path),
                       max_files=2)
        counter = reg.counter("repro_postmortem_evictions_total")
        assert sum(value for _labels, value in counter.samples()) == 2

    def test_env_cap_and_disable(self, tmp_path, monkeypatch):
        from repro.obs import flightrec

        monkeypatch.setenv("REPRO_POSTMORTEM_CAP", "7")
        assert flightrec._postmortem_cap() == 7
        monkeypatch.setenv("REPRO_POSTMORTEM_CAP", "not-a-number")
        assert flightrec._postmortem_cap() == flightrec.DEFAULT_POSTMORTEM_CAP
        monkeypatch.delenv("REPRO_POSTMORTEM_CAP")
        assert flightrec._postmortem_cap() == flightrec.DEFAULT_POSTMORTEM_CAP
        # cap 0 disables rotation entirely
        rec = self.recorder()
        for key in ("k1", "k2", "k3"):
            rec.postmortem("timeout", key, directory=str(tmp_path),
                           max_files=0)
        assert len(list(tmp_path.glob("*.json"))) == 3

    def test_under_cap_touches_nothing(self, tmp_path):
        rec = self.recorder()
        rec.postmortem("timeout", "k1", directory=str(tmp_path),
                       max_files=10)
        assert (tmp_path / "k1.json").exists()
