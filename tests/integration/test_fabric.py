"""Fabric integration tests: failure modes and the HTTP round trip.

The three failure modes named by the fabric design (docs/fabric.md):

* a worker killed mid-lease — its jobs re-queue after lease expiry and
  a second worker finishes the sweep;
* a coordinator restart with sweeps in flight — state rebuilds from
  the result store (resubmission dedupes everything already finished);
* duplicate submission of a fully-cached grid — zero jobs execute.

Plus one in-process end-to-end: a real :class:`WorkerAgent` draining a
real :class:`CoordinatorServer` over HTTP, results equal to a serial
``run_suite``.  The subprocess version of that loop (two workers, CLI
submission) lives in ``tools/fabric_smoke.py``.
"""

import threading

import pytest

from repro.experiments import runner, store, sweep
from repro.fabric import protocol
from repro.obs import critpath
from repro.obs import spans as obs_spans
from repro.fabric.agent import WorkerAgent
from repro.fabric.client import FabricClient
from repro.fabric.coordinator import Coordinator, CoordinatorServer
from repro.fabric.protocol import ProtocolError

ACCESSES = 300
SEED = 1


@pytest.fixture(autouse=True)
def _fresh_caches():
    runner.clear_cache()
    yield
    runner.clear_cache()


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_coordinator(root, **overrides):
    kwargs = dict(result_store=store.ResultStore(str(root)))
    kwargs.update(overrides)
    return Coordinator(**kwargs)


def grid_request(benchmarks=("milc",), configs=("NP", "PS")):
    return protocol.sweep_request(
        sweep.expand_grid(benchmarks, configs, accesses=ACCESSES, seed=SEED)
    )


def executed_item(key, job):
    """Simulate one leased job the way a worker would, as a wire item."""
    job, _spec, config = sweep.prepare(job)
    result = runner.simulate_job(
        config, job.benchmark, job.accesses, job.seed, job.threads
    )
    return {"key": key, "result": store.encode_result(result),
            "outcome": "executed", "seconds": 0.01, "error": None}


class TestWorkerDeath:
    def test_killed_worker_requeues_after_lease_expiry(self, tmp_path):
        clock = FakeClock()
        coordinator = make_coordinator(
            tmp_path / "store", lease_seconds=30.0, clock=clock
        )
        reply = coordinator.submit(grid_request())
        assert reply["queued"] == 2

        grant = coordinator.lease(protocol.lease_request("doomed", 2))
        _, doomed_jobs, _ = protocol.parse_lease_grant(grant)
        assert len(doomed_jobs) == 2
        # "doomed" is killed here: no completion, no heartbeats.  While
        # its lease is alive the jobs are not up for grabs...
        empty = protocol.parse_lease_grant(
            coordinator.lease(protocol.lease_request("rescuer", 2))
        )
        assert empty[0] is None and empty[1] == []
        # ...but once the lease expires they re-queue for anyone.
        clock.advance(31.0)
        lease_id, jobs, _ = protocol.parse_lease_grant(
            coordinator.lease(protocol.lease_request("rescuer", 2))
        )
        assert sorted(key for key, _j, _c in jobs) == sorted(
            key for key, _j, _c in doomed_jobs
        )
        ack = coordinator.complete(protocol.complete_report(
            "rescuer", lease_id, [executed_item(k, j) for k, j, _c in jobs]
        ))
        assert ack["accepted"] == 2
        status = coordinator.sweep_status(reply["sweep"])
        assert status["done"] is True
        assert status["counts"]["failed"] == 0

    def test_repeatedly_fatal_job_fails_instead_of_looping(self, tmp_path):
        clock = FakeClock()
        coordinator = make_coordinator(
            tmp_path / "store", lease_seconds=30.0, max_attempts=2,
            clock=clock,
        )
        reply = coordinator.submit(grid_request(configs=("NP",)))
        for _ in range(2):  # every worker that touches the job dies
            grant = coordinator.lease(protocol.lease_request("doomed", 1))
            assert protocol.parse_lease_grant(grant)[0] is not None
            clock.advance(31.0)
        empty = coordinator.lease(protocol.lease_request("doomed", 1))
        assert protocol.parse_lease_grant(empty)[0] is None
        status = coordinator.sweep_status(reply["sweep"])
        assert status["counts"]["failed"] == 1
        assert "presumed dead" in status["failed"][0]["error"]


    def test_late_result_for_a_failed_job_is_refused(self, tmp_path):
        clock = FakeClock()
        coordinator = make_coordinator(
            tmp_path / "store", lease_seconds=30.0, max_attempts=1,
            clock=clock,
        )
        reply = coordinator.submit(grid_request(configs=("NP",)))
        lease_id, jobs, _ = protocol.parse_lease_grant(
            coordinator.lease(protocol.lease_request("slow", 1))
        )
        clock.advance(31.0)  # the lease expires: the job's only attempt
        assert coordinator.sweep_status(reply["sweep"])["counts"]["failed"] == 1
        ack = coordinator.complete(protocol.complete_report(
            "slow", lease_id, [executed_item(k, j) for k, j, _c in jobs]
        ))
        assert ack["accepted"] == 0
        status = coordinator.sweep_status(reply["sweep"], include_results=True)
        assert status["counts"]["failed"] == 1
        assert [row["status"] for row in status["results"]] == ["failed"]
        assert "result" not in status["results"][0]


class TestCoordinatorRestart:
    def test_restart_rebuilds_from_the_store(self, tmp_path):
        shared = tmp_path / "store"
        first = make_coordinator(shared)
        request = grid_request(benchmarks=("milc", "tonto"))
        accepted = first.submit(request)
        assert accepted["queued"] == 4

        # Half the grid completes, then the coordinator dies with the
        # other half still queued.
        lease_id, jobs, _ = protocol.parse_lease_grant(
            first.lease(protocol.lease_request("w1", 2))
        )
        first.complete(protocol.complete_report(
            "w1", lease_id, [executed_item(k, j) for k, j, _c in jobs]
        ))
        done_keys = {key for key, _j, _c in jobs}

        # A fresh process: recovery must come from the on-disk store.
        runner.clear_cache()
        second = make_coordinator(shared)
        resubmitted = second.submit(request)
        assert resubmitted["total"] == 4
        assert resubmitted["deduped"] == 2
        assert resubmitted["queued"] == 2

        lease_id, remainder, _ = protocol.parse_lease_grant(
            second.lease(protocol.lease_request("w2", 4))
        )
        assert {key for key, _j, _c in remainder}.isdisjoint(done_keys)
        second.complete(protocol.complete_report(
            "w2", lease_id, [executed_item(k, j) for k, j, _c in remainder]
        ))
        status = second.sweep_status(resubmitted["sweep"])
        assert status["done"] is True
        assert status["progress"]["finished"] is True


class TestDuplicateSubmission:
    def test_fully_cached_grid_executes_nothing(self, tmp_path):
        suite = runner.run_suite(
            ["milc"], ["NP", "PS"], accesses=ACCESSES, seed=SEED
        )
        coordinator = make_coordinator(store.get_store().root)
        reply = coordinator.submit(grid_request())
        assert reply["total"] == 2
        assert reply["deduped"] == 2
        assert reply["queued"] == 0
        # nothing for a worker to do, and the sweep is born finished
        empty = coordinator.lease(protocol.lease_request("idle", 4))
        assert protocol.parse_lease_grant(empty)[0] is None
        status = coordinator.sweep_status(reply["sweep"], include_results=True)
        assert status["done"] is True
        assert status["progress"]["finished"] is True
        # ...and the served results are the serial run's, field for field
        for row in status["results"]:
            assert store.decode_result(row["result"]) == (
                suite[row["benchmark"]][row["config"]]
            )


class TestHttpRoundTrip:
    def test_agent_drains_a_live_server(self, tmp_path):
        coordinator = make_coordinator(tmp_path / "coordinator-store")
        server = CoordinatorServer(coordinator).start()
        try:
            client = FabricClient(server.url)
            accepted = client.submit(
                ["milc"], ["NP", "PS"], accesses=ACCESSES, seed=SEED
            )
            agent = WorkerAgent(
                server.url, worker_id="w1", capacity=4, poll_seconds=0.05,
                drain_idle_seconds=0.2,
                result_store=store.ResultStore(str(tmp_path / "worker-store")),
            )
            totals = agent.run()
            assert totals["executed"] == 2
            assert totals["errors"] == 0

            status = client.sweep_status(accepted["sweep"])
            assert status["counts"]["done"] == 2
            suite, record = client.fetch_calibrated_suite(accepted["sweep"])
            serial = runner.run_suite(
                ["milc"], ["NP", "PS"], accesses=ACCESSES, seed=SEED
            )
            assert suite == serial
            assert record is None  # an exact sweep has nothing to calibrate

            progress = client.progress()
            assert progress["done"] == 2
            assert progress["finished"] is True
            assert progress["outcomes"]["fabric"] == 2
            health = client.health()
            assert health["role"] == "fabric-coordinator"
            assert "w1" in health["workers"]
        finally:
            server.close()

    def test_protocol_violations_are_http_400(self, tmp_path):
        coordinator = make_coordinator(tmp_path / "store")
        server = CoordinatorServer(coordinator).start()
        try:
            client = FabricClient(server.url)
            with pytest.raises(ProtocolError, match="non-empty"):
                client.submit([], [])
            with pytest.raises(ProtocolError, match="unknown sweep"):
                client.sweep_status("sweep-404")
        finally:
            server.close()


class TestEventStream:
    """The coordinator's ``/events``, read through ``FabricClient.events()``."""

    @staticmethod
    def read_until(events, frames, stop):
        for kind, payload in events:
            frames.append((kind, payload))
            if stop(kind, payload):
                return
        pytest.fail(f"stream ended early; got {[k for k, _ in frames]}")

    def test_sweep_span_and_progress_frames(self, tmp_path):
        coordinator = make_coordinator(tmp_path / "coordinator-store")
        server = CoordinatorServer(coordinator).start()
        # events() skips keepalives, so a frame that never comes would
        # block it for good; closing the server ends the stream instead
        watchdog = threading.Timer(30.0, server.close)
        watchdog.start()
        client = FabricClient(server.url)
        events = client.events(timeout=10.0)
        frames = []
        try:
            assert next(events)[0] == "hello"
            accepted = client.submit(
                ["milc"], ["NP", "PS"], accesses=ACCESSES, seed=SEED
            )
            self.read_until(events, frames, lambda kind, _: kind == "sweep")
            assert frames[-1][1] == {"sweep": accepted["sweep"], "total": 2,
                                     "deduped": 0, "queued": 2}
            WorkerAgent(
                server.url, worker_id="w1", capacity=4, poll_seconds=0.05,
                drain_idle_seconds=0.2,
                result_store=store.ResultStore(str(tmp_path / "worker-store")),
            ).run()
            self.read_until(events, frames, lambda kind, doc: (
                kind == "progress" and doc["finished"]))
            finished_at = len(frames)
            held = {doc["span"] for doc in client.trace()["spans"]}

            def seen():
                return {doc["span"] for kind, doc in frames if kind == "span"}

            if not held <= seen():  # spans recorded after the last job
                self.read_until(events, frames, lambda *_: held <= seen())
        finally:
            events.close()
            watchdog.cancel()
            watchdog.join()
            server.close()

        kinds = [kind for kind, _ in frames]
        assert kinds.index("sweep") < kinds.index("span")
        spans = [doc for kind, doc in frames if kind == "span"]
        assert sorted(doc["name"] for doc in spans) == [
            "fabric.execute", "fabric.execute", "fabric.lease",
            "fabric.report", "fabric.submit", "fabric.sweep",
        ]
        assert len({doc["trace"] for doc in spans}) == 1
        # the root span closes with the sweep's progress, so it is read
        # no later than the progress frame that reports it finished
        before = {doc["name"] for kind, doc in frames[:finished_at]
                  if kind == "span"}
        assert {"fabric.submit", "fabric.sweep", "fabric.lease"} <= before
        progress = [doc for kind, doc in frames if kind == "progress"]
        assert all(doc["line"].startswith("sweep ") for doc in progress)
        assert progress[-1]["done"] == 2
        assert progress[-1]["outcomes"]["fabric"] == 2


class TestTraceStitching:
    """Protocol v3 acceptance: a two-worker run yields ONE stitched
    trace covering submit -> lease -> execute -> report per job."""

    def test_two_worker_sweep_stitches_into_one_trace(self, tmp_path):
        submit_spans = obs_spans.SpanCollector(enabled=True)
        obs_spans.set_default_collector(submit_spans)
        coordinator = make_coordinator(tmp_path / "coordinator-store")
        server = CoordinatorServer(coordinator).start()
        try:
            client = FabricClient(server.url)
            accepted = client.submit(
                ["milc", "tonto"], ["NP", "PS"], accesses=ACCESSES,
                seed=SEED,
            )
            agents = [
                WorkerAgent(
                    server.url, worker_id=f"w{n}", capacity=2,
                    poll_seconds=0.05, drain_idle_seconds=0.3,
                    result_store=store.ResultStore(
                        str(tmp_path / f"worker-{n}-store")
                    ),
                )
                for n in (1, 2)
            ]
            threads = [
                threading.Thread(target=agent.run) for agent in agents
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert client.sweep_status(accepted["sweep"])["done"] is True

            fleet = client.trace()["spans"]
            local = submit_spans.spans()
        finally:
            server.close()
            obs_spans.reset_default_collector()

        # one trace end to end: the submitter's span and everything the
        # coordinator collected (its own + worker-shipped) share it
        submit_local = [d for d in local if d["name"] == "fabric.submit"]
        assert len(submit_local) == 1
        traces = {doc["trace"] for doc in fleet}
        assert traces == {submit_local[0]["trace"]}

        by_name = {}
        by_id = {doc["span"]: doc for doc in fleet}
        for doc in fleet:
            by_name.setdefault(doc["name"], []).append(doc)
        root, = by_name["fabric.sweep"]
        assert root["parent"] == submit_local[0]["span"]
        for lease in by_name["fabric.lease"]:
            assert lease["parent"] == root["span"]
        # every job executed exactly once, under a lease, by our workers
        executes = by_name["fabric.execute"]
        assert sorted(
            (doc["attrs"]["benchmark"], doc["attrs"]["config"])
            for doc in executes
        ) == [("milc", "NP"), ("milc", "PS"),
              ("tonto", "NP"), ("tonto", "PS")]
        for doc in executes:
            assert by_id[doc["parent"]]["name"] == "fabric.lease"
            assert doc["attrs"]["worker"] in {"w1", "w2"}
        for report in by_name["fabric.report"]:
            assert by_id[report["parent"]]["name"] == "fabric.lease"
        # the analyzer reads the stitched tree directly
        analysis = critpath.analyze(fleet)
        assert analysis["traces"] == 1
        assert analysis["critical_path"][0]["name"] == "fabric.sweep"
        assert analysis["straggler"] is not None
        assert "/" in analysis["straggler"]["label"]
