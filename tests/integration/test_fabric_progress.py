"""The coordinator's job table as the only record of a fleet sweep.

Every progress view (``sweep_status``'s ``progress``, ``/progress.json``,
the ``/events`` frames, ``repro fabric watch``) derives from the job
table, and a sweep settles once, when every job is done or failed:

* deduped resubmissions do not pile up in ``/progress.json``, which
  covers the sweeps accepted since the fleet was last idle;
* a sweep whose job failed, by an error report or by lease expiry,
  settles, counts the failure and records an ``error`` root span;
* ``repro fabric watch`` exits on its own, with and without
  ``--sweep`` (run as a subprocess: a watch that never exits would
  hang a thread-based test);
* a failed job submitted again runs again, for the new sweep only,
  and the settled sweep keeps the status it settled with;
* ``/healthz`` counts sweeps without building their status.
"""

import os
import subprocess
import sys

from repro.fabric import protocol
from repro.fabric.client import FabricClient
from repro.fabric.coordinator import CoordinatorServer
from repro.fabric.state import CoordinatorState
from repro.obs.progress import render_line
from tests.integration.test_fabric import (
    FakeClock,
    executed_item,
    grid_request,
    make_coordinator,
)

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)


def lease(coordinator, worker="w1", capacity=4):
    lease_id, jobs, _ = protocol.parse_lease_grant(
        coordinator.lease(protocol.lease_request(worker, capacity))
    )
    return lease_id, jobs


def execute(coordinator, capacity=4):
    """Lease up to ``capacity`` jobs and report each one executed."""
    lease_id, jobs = lease(coordinator, capacity=capacity)
    coordinator.complete(protocol.complete_report(
        "w1", lease_id, [executed_item(key, job) for key, job, _c in jobs]
    ))


def fail(coordinator):
    """Lease one job and report it as an error."""
    lease_id, jobs = lease(coordinator, capacity=1)
    coordinator.complete(protocol.complete_report("w1", lease_id, [
        {"key": jobs[0][0], "result": None, "error": "injected"},
    ]))


def counts(progress):
    return progress["done"], progress["total"], progress["finished"]


def assert_failed_sweep_settled(coordinator, sweep_id):
    server = CoordinatorServer(coordinator).start()
    try:
        client = FabricClient(server.url)
        fleet = client.progress()
        status = client.sweep_status(sweep_id)
        spans = client.trace()["spans"]
        assert client.watch(sweep_id, timeout=5.0)["counts"]["failed"] == 1
    finally:
        server.close()
    assert status["counts"]["failed"] == 1
    for progress in (status["progress"], fleet):
        assert counts(progress) == (1, 1, True)
        assert progress["events"] == {"failed": 1}
        assert "1 failed" in render_line(progress)
    [root] = [doc for doc in spans if doc["name"] == "fabric.sweep"]
    assert root["status"] == "error"
    assert root["attrs"]["sweep"] == sweep_id


class TestProgressWindow:
    def test_deduped_resubmissions_read_one_sweep(self, tmp_path):
        coordinator = make_coordinator(tmp_path / "store")
        request = grid_request(configs=("NP",))
        coordinator.submit(request)
        execute(coordinator)
        for _ in range(3):
            assert coordinator.submit(request)["queued"] == 0
        server = CoordinatorServer(coordinator).start()
        try:
            progress = FabricClient(server.url).progress()
        finally:
            server.close()
        assert counts(progress) == (1, 1, True)
        assert progress["outcomes"]["store"] == 1
        assert progress["hit_rate"] == 1.0

    def test_overlapping_sweeps_sum_until_both_settle(self, tmp_path):
        coordinator = make_coordinator(tmp_path / "store")
        first = coordinator.submit(grid_request(configs=("NP", "PS")))
        coordinator.submit(grid_request(configs=("PS", "PMS")))
        # PS is queued once, for both sweeps
        assert coordinator.status()["queue_depth"] == 3
        assert counts(coordinator.fleet_progress()) == (0, 4, False)

        execute(coordinator, capacity=2)  # the first sweep's NP and PS
        assert coordinator.sweep_status(first["sweep"])["progress"][
            "finished"] is True
        assert counts(coordinator.fleet_progress()) == (3, 4, False)

        execute(coordinator)
        fleet = coordinator.fleet_progress()
        assert counts(fleet) == (4, 4, True)
        assert fleet["outcomes"]["fabric"] == 4
        assert fleet["eta_seconds"] == 0.0

        coordinator.submit(grid_request(benchmarks=("tonto",),
                                        configs=("NP",)))
        assert counts(coordinator.fleet_progress()) == (0, 1, False)


class TestFailedSweepSettles:
    def test_error_report_settles_the_sweep(self, tmp_path):
        coordinator = make_coordinator(tmp_path / "store", max_attempts=1)
        accepted = coordinator.submit(grid_request(configs=("NP",)))
        fail(coordinator)
        assert_failed_sweep_settled(coordinator, accepted["sweep"])

    def test_lease_expiry_settles_the_sweep(self, tmp_path):
        clock = FakeClock()
        coordinator = make_coordinator(
            tmp_path / "store", max_attempts=1, lease_seconds=30.0,
            clock=clock,
        )
        accepted = coordinator.submit(grid_request(configs=("NP",)))
        assert lease(coordinator, capacity=1)[0] is not None
        clock.advance(31.0)  # the worker died with the lease
        assert_failed_sweep_settled(coordinator, accepted["sweep"])


def watch(url, *extra):
    """``repro fabric watch`` in a subprocess, killed after 30 s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "fabric", "watch",
         "--coordinator", url, "--poll", "0.2", *extra],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=30,
    )


class TestFabricWatchExits:
    def test_without_sweep_on_an_idle_fleet(self, tmp_path):
        coordinator = make_coordinator(tmp_path / "store")
        coordinator.submit(grid_request(configs=("NP",)))
        execute(coordinator)
        server = CoordinatorServer(coordinator).start()
        try:
            proc = watch(server.url)
        finally:
            server.close()
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "sweep 1/1 (100%)" in proc.stdout

    def test_with_sweep_whose_job_failed(self, tmp_path):
        coordinator = make_coordinator(tmp_path / "store", max_attempts=1)
        accepted = coordinator.submit(grid_request(configs=("NP",)))
        fail(coordinator)
        server = CoordinatorServer(coordinator).start()
        try:
            proc = watch(server.url, "--sweep", accepted["sweep"])
        finally:
            server.close()
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "1 failed" in proc.stdout


class TestFailedJobResubmitted:
    def test_resubmission_runs_the_failed_job_again(self, tmp_path):
        coordinator = make_coordinator(tmp_path / "store", max_attempts=1)
        request = grid_request(configs=("NP",))
        first = coordinator.submit(request)["sweep"]
        fail(coordinator)
        settled = coordinator.state.sweeps[first].settled
        assert settled is not None

        accepted = coordinator.submit(request)
        assert accepted["queued"] == 1
        [key] = coordinator.state.sweeps[accepted["sweep"]].keys
        entry = coordinator.state.jobs[key]
        assert (entry.status, entry.attempts, entry.error) == ("queued", 0, None)
        assert entry.sweeps == [accepted["sweep"]]

        lease_id, jobs = lease(coordinator)
        assert [job_key for job_key, _job, _ctx in jobs] == [key]
        coordinator.complete(protocol.complete_report(
            "w1", lease_id, [executed_item(key, jobs[0][1])]
        ))
        status = coordinator.sweep_status(accepted["sweep"])
        assert status["counts"]["done"] == 1 and status["failed"] == []
        assert counts(status["progress"]) == (1, 1, True)
        assert status["progress"]["events"] == {}
        # the earlier sweep keeps its verdict
        assert coordinator.state.sweeps[first].settled == settled
        roots = {doc["attrs"]["sweep"]: doc["status"]
                 for doc in coordinator.spans.spans()
                 if doc["name"] == "fabric.sweep"}
        assert roots == {first: "error", accepted["sweep"]: "ok"}

    def test_settled_sweep_keeps_the_status_it_settled_with(self, tmp_path):
        coordinator = make_coordinator(tmp_path / "store", max_attempts=1)
        request = grid_request(configs=("NP",))
        first = coordinator.submit(request)["sweep"]
        fail(coordinator)
        before = coordinator.sweep_status(first)

        second = coordinator.submit(request)["sweep"]
        execute(coordinator)
        after = coordinator.sweep_status(first)
        assert after == before
        assert after["counts"]["failed"] == 1 and after["counts"]["done"] == 0
        assert [failure["error"] for failure in after["failed"]] == ["injected"]
        assert after["progress"]["events"] == {"failed": 1}
        assert after["progress"]["outcomes"]["store"] == 0
        status = coordinator.sweep_status(second)
        assert status["counts"]["done"] == 1 and status["failed"] == []
        assert status["progress"]["outcomes"]["fabric"] == 1


class TestHealth:
    def test_healthz_builds_no_sweep_status(self, tmp_path, monkeypatch):
        coordinator = make_coordinator(tmp_path / "store")
        request = grid_request(configs=("NP", "PS"))
        coordinator.submit(request)
        coordinator.submit(request)
        lease(coordinator, capacity=1)

        def no_sweep_status(self, sweep_id):
            raise AssertionError("/healthz built a sweep status")

        monkeypatch.setattr(CoordinatorState, "sweep_status", no_sweep_status)
        server = CoordinatorServer(coordinator).start()
        try:
            health = FabricClient(server.url).health()
        finally:
            server.close()
        assert health["sweeps"] == 2
        assert health["jobs"] == {"queued": 1, "leased": 1, "done": 0,
                                  "failed": 0}
        assert "w1" in health["workers"]
