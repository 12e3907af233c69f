"""Endpoint tests for repro.obs.server against a real HTTP socket.

The server binds port 0 (OS-assigned) on 127.0.0.1 and is exercised
with urllib from the test process — no external tooling.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import exporters
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import SweepProgress
from repro.obs.server import ObsServer
from repro.obs.spans import SpanCollector


def get(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers, response.read().decode("utf-8")


@pytest.fixture()
def live_server():
    registry = MetricsRegistry(enabled=True)
    registry.counter("repro_sweep_jobs_total", "jobs", ("outcome",)).inc(
        2, outcome="serial"
    )
    registry.histogram("repro_sweep_job_seconds", "seconds").observe(0.2)
    progress = SweepProgress(total=4)
    progress.job_done("serial", seconds=0.2)
    server = ObsServer(registry=registry, progress=progress).start()
    yield server
    server.close()


class TestLiveEndpoints:
    def test_metrics_is_valid_exposition(self, live_server):
        status, headers, body = get(live_server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == exporters.EXPOSITION_CONTENT_TYPE
        parsed = exporters.parse_exposition(body)
        assert parsed[
            ("repro_sweep_jobs_total", (("outcome", "serial"),))
        ] == 2.0
        assert ("repro_sweep_job_seconds_count", ()) in parsed

    def test_metrics_json(self, live_server):
        status, _, body = get(live_server.url + "/metrics.json")
        document = json.loads(body)
        assert status == 200
        assert document["version"] == exporters.SNAPSHOT_VERSION
        assert document["progress"]["done"] == 1

    def test_healthz(self, live_server):
        status, _, body = get(live_server.url + "/healthz")
        health = json.loads(body)
        assert status == 200
        assert health["status"] == "ok"
        assert health["metrics_source"] == "live"
        assert health["uptime_seconds"] >= 0
        assert isinstance(health["pid"], int)

    def test_healthz_reports_protocol_and_span_plane(self, live_server):
        # fleet-skew visibility: which wire version and span plane this
        # process runs must be readable before any protocol error hits
        from repro.fabric.protocol import PROTOCOL_VERSION

        _, _, body = get(live_server.url + "/healthz")
        health = json.loads(body)
        assert health["protocol"] == PROTOCOL_VERSION
        assert health["obs"] == {"spans": "disabled"}

    def test_progress_json(self, live_server):
        status, _, body = get(live_server.url + "/progress.json")
        snap = json.loads(body)
        assert status == 200
        assert snap["done"] == 1
        assert snap["total"] == 4

    def test_progress_dashboard_html(self, live_server):
        for path in ("/progress", "/"):
            status, headers, body = get(live_server.url + path)
            assert status == 200
            assert headers["Content-Type"].startswith("text/html")
            assert "<progress" in body
            assert "sweep 1/4" in body

    def test_unknown_route_is_404(self, live_server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get(live_server.url + "/nope")
        err.value.close()  # the error holds the response's socket
        assert err.value.code == 404


class TestSpansEndpoint:
    def test_spans_json_serves_collector_contents(self):
        collector = SpanCollector(enabled=True)
        collector.add("sweep.job", 10.0, 1.5, benchmark="milc")
        server = ObsServer(
            registry=MetricsRegistry(enabled=True), spans=collector
        ).start()
        try:
            status, _, body = get(server.url + "/spans.json")
            document = json.loads(body)
            assert status == 200
            assert document["enabled"] is True
            assert document["dropped"] == 0
            assert [s["name"] for s in document["spans"]] == ["sweep.job"]
            _, _, health = get(server.url + "/healthz")
            obs = json.loads(health)["obs"]
            assert obs == {"spans": "enabled", "span_count": 1}
        finally:
            server.close()

    def test_no_collector_is_404(self):
        server = ObsServer(registry=MetricsRegistry(enabled=True)).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                get(server.url + "/spans.json")
            err.value.close()
            assert err.value.code == 404
        finally:
            server.close()


def read_frames(response, want: int, deadline_s: float = 10.0):
    """Parse SSE frames off a live response until ``want`` arrive.

    Keepalives arrive every 0.5 s, so the socket timeout never fires on
    a stream that is alive but silent; the deadline fails the test
    instead, naming what did arrive.
    """
    frames, kind, data = [], None, []
    deadline = time.monotonic() + deadline_s
    while len(frames) < want:
        if time.monotonic() > deadline:
            pytest.fail(f"{want} SSE frame(s) not read within {deadline_s}s; "
                        f"got {[k for k, _ in frames]}")
        line = response.readline().decode("utf-8").rstrip("\n")
        if line.startswith(":"):
            continue  # keepalive comment
        if line.startswith("event:"):
            kind = line.split(":", 1)[1].strip()
        elif line.startswith("data:"):
            data.append(line.split(":", 1)[1].strip())
        elif line == "" and (kind or data):
            frames.append((kind, json.loads("\n".join(data))))
            kind, data = None, []
    return frames


class TestEventsStream:
    def test_progress_and_span_events_stream(self):
        registry = MetricsRegistry(enabled=True)
        progress = SweepProgress(total=2)
        collector = SpanCollector(enabled=True)
        server = ObsServer(
            registry=registry, progress=progress, spans=collector
        ).start()
        try:
            response = urllib.request.urlopen(
                server.url + "/events", timeout=5
            )
            try:
                (hello_kind, hello), = read_frames(response, 1)
                assert hello_kind == "hello"
                assert hello["progress"]["total"] == 2
                # a finishing job and a finishing span must both fan out
                progress.job_done("serial", seconds=0.1)
                collector.add("sweep.job", 5.0, 0.1, benchmark="milc")
                frames = dict(read_frames(response, 2))
                assert frames["progress"]["done"] == 1
                assert "sweep 1/2" in frames["progress"]["line"]
                assert frames["span"]["name"] == "sweep.job"
            finally:
                response.close()
        finally:
            server.close()

    def test_stalled_client_blocks_no_writer(self):
        # the stream reads the records on its own thread; a client that
        # stops reading must not slow the sweep or the span plane
        progress = SweepProgress(total=10_000)
        collector = SpanCollector(enabled=True)
        server = ObsServer(
            registry=MetricsRegistry(enabled=True), progress=progress,
            spans=collector,
        ).start()
        try:
            response = urllib.request.urlopen(
                server.url + "/events", timeout=5
            )
            try:
                read_frames(response, 1)  # hello, then never read again

                def write():
                    for i in range(10_000):
                        progress.job_done("serial", seconds=0.001)
                        collector.add("sweep.job", float(i), 0.001)

                writer = threading.Thread(target=write)
                writer.start()
                writer.join(timeout=30)
                assert not writer.is_alive()
                assert progress.snapshot()["done"] == 10_000
                assert collector.since(0)[1] == 10_000
            finally:
                response.close()
        finally:
            server.close()

    def test_close_ends_the_stream(self):
        server = ObsServer(registry=MetricsRegistry(enabled=True)).start()
        response = urllib.request.urlopen(
            server.url + "/events", timeout=5
        )
        try:
            read_frames(response, 1)  # hello
            server.close()
            # the handler stops writing; the stream drains to EOF
            deadline = 200
            while response.readline() and deadline:
                deadline -= 1
            assert deadline > 0
        finally:
            response.close()


class TestCloseReleasesSocket:
    def test_socket_closed_even_when_shutdown_raises(self):
        """Regression: ``close()`` used to call ``server_close`` only
        after ``shutdown()`` returned, so a raising shutdown leaked the
        bound socket and every later bind hit EADDRINUSE."""
        server = ObsServer(registry=MetricsRegistry(enabled=True)).start()

        def exploding_shutdown():
            # still stop the serve loop (via the flag the real shutdown()
            # sets) so the test does not leave a spinning thread behind
            server._httpd._BaseServer__shutdown_request = True
            raise RuntimeError("half-torn-down serve loop")

        server._httpd.shutdown = exploding_shutdown
        with pytest.raises(RuntimeError, match="half-torn-down"):
            server.close()
        # the finally block must still have released the socket
        assert server._httpd.socket.fileno() == -1

    def test_clean_close_releases_the_socket_too(self):
        server = ObsServer(registry=MetricsRegistry(enabled=True)).start()
        server.close()
        assert server._httpd.socket.fileno() == -1


class TestSnapshotDirServing:
    def test_serves_latest_snapshot(self, tmp_path):
        registry = MetricsRegistry(enabled=True)
        registry.counter("repro_store_reads_total", "reads", ("result",)).inc(
            5, result="hit"
        )
        directory = str(tmp_path)
        exporters.write_snapshot(
            registry, directory=directory, progress={"done": 9, "total": 9,
                                                     "percent": 100.0,
                                                     "outcomes": {},
                                                     "events": {},
                                                     "eta_seconds": 0.0,
                                                     "elapsed_seconds": 1.0,
                                                     "hit_rate": 1.0,
                                                     "finished": True},
        )
        server = ObsServer(snapshot_dir=directory).start()
        try:
            _, _, body = get(server.url + "/metrics")
            parsed = exporters.parse_exposition(body)
            assert parsed[
                ("repro_store_reads_total", (("result", "hit"),))
            ] == 5.0
            _, _, health = get(server.url + "/healthz")
            assert "snapshot:" in json.loads(health)["metrics_source"]
            _, _, progress = get(server.url + "/progress.json")
            assert json.loads(progress)["done"] == 9
        finally:
            server.close()

    def test_live_and_snapshot_dir_metrics_are_byte_identical(self, tmp_path):
        registry = MetricsRegistry(enabled=True)
        registry.counter("repro_c_total", "", ("path",)).inc(path='a"b\nc')
        registry.counter("repro_fleet_total", "Two labels.",
                         ("worker", "outcome")).inc(3, worker="w1",
                                                    outcome="executed")
        registry.counter("repro_never_total", "Never incremented.")
        registry.gauge("repro_depth", "Depth.").set(7)
        registry.gauge("repro_ratio", "Ratio.").set(0.125)
        registry.histogram("repro_h_seconds", "Seconds.",
                           buckets=(0.5, 2.0)).observe(0.7)
        exporters.write_snapshot(registry, directory=str(tmp_path))
        live = ObsServer(registry=registry).start()
        stored = ObsServer(snapshot_dir=str(tmp_path)).start()
        try:
            _, _, live_text = get(live.url + "/metrics")
            _, _, stored_text = get(stored.url + "/metrics")
        finally:
            live.close()
            stored.close()
        assert 'repro_fleet_total{worker="w1",outcome="executed"} 3' in live_text
        assert live_text == stored_text

    def test_empty_dir_serves_empty_exposition(self, tmp_path):
        server = ObsServer(snapshot_dir=str(tmp_path)).start()
        try:
            status, _, body = get(server.url + "/metrics")
            assert status == 200
            assert body == ""
            _, _, health = get(server.url + "/healthz")
            assert "(empty)" in json.loads(health)["metrics_source"]
        finally:
            server.close()

    def test_needs_registry_or_dir(self):
        with pytest.raises(ValueError, match="registry or a snapshot_dir"):
            ObsServer()


class TestHealthStaleness:
    @staticmethod
    def write_aged_snapshot(directory, age_seconds):
        import time

        registry = MetricsRegistry(enabled=True)
        path = exporters.write_snapshot(registry, directory=directory)
        with open(path) as handle:
            document = json.load(handle)
        document["generated_unix"] = time.time() - age_seconds
        with open(path, "w") as handle:
            json.dump(document, handle)

    def test_fresh_snapshot_reports_age_and_ok(self, tmp_path):
        self.write_aged_snapshot(str(tmp_path), age_seconds=5)
        server = ObsServer(snapshot_dir=str(tmp_path), stale_after=600).start()
        try:
            _, _, body = get(server.url + "/healthz")
            health = json.loads(body)
            assert health["status"] == "ok"
            assert 0 <= health["snapshot_age_seconds"] < 600
        finally:
            server.close()

    def test_old_snapshot_flips_to_stale(self, tmp_path):
        # a sweep that died stops refreshing its snapshot; /healthz must
        # say so instead of answering "ok" forever
        self.write_aged_snapshot(str(tmp_path), age_seconds=3600)
        server = ObsServer(snapshot_dir=str(tmp_path), stale_after=600).start()
        try:
            _, _, body = get(server.url + "/healthz")
            health = json.loads(body)
            assert health["status"] == "stale"
            assert health["snapshot_age_seconds"] > 600
            assert health["stale_after_seconds"] == 600
        finally:
            server.close()

    def test_staleness_check_can_be_disabled(self, tmp_path):
        self.write_aged_snapshot(str(tmp_path), age_seconds=3600)
        server = ObsServer(snapshot_dir=str(tmp_path), stale_after=None).start()
        try:
            _, _, body = get(server.url + "/healthz")
            assert json.loads(body)["status"] == "ok"
        finally:
            server.close()

    def test_empty_dir_has_no_age(self, tmp_path):
        server = ObsServer(snapshot_dir=str(tmp_path)).start()
        try:
            _, _, body = get(server.url + "/healthz")
            health = json.loads(body)
            assert health["status"] == "ok"
            assert health["snapshot_age_seconds"] is None
        finally:
            server.close()

    def test_live_registry_mode_has_no_snapshot_age(self, tmp_path):
        server = ObsServer(registry=MetricsRegistry(enabled=True)).start()
        try:
            _, _, body = get(server.url + "/healthz")
            assert "snapshot_age_seconds" not in json.loads(body)
        finally:
            server.close()
