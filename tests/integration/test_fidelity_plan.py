"""One fast-tier policy for both planes (docs/fidelity.md).

``fastsim.orchestrator.validation_plan`` and ``calibrate_plan`` decide
the fast tier's evidence for a local sweep and for a fleet one alike:

* a fleet ``fast`` sweep returns the results and the calibration record
  a local one does, field for field;
* a local ``fast`` sweep is one ``run_jobs`` call, and an ``auto``
  sweep at most two, with or without a job with overrides;
* a progress object counts every ``run_jobs`` call it is given, so a
  sweep's progress line and metrics snapshot end at its full job count.
"""

import json
import os

import pytest

from repro.cli import main
from repro.experiments import runner, store, sweep
from repro.fastsim import FidelityGate, orchestrator, run_fidelity_sweep
from repro.obs.paths import metrics_dir
from repro.obs.progress import SweepProgress

SEED = 1
#: compute-bound, so at least one point escalates (test_fidelity.py)
AUTO_GRID = sweep.expand_grid(["gamess", "povray", "ep"], ["NP", "PS"],
                              accesses=1200, seed=SEED)


@pytest.fixture(autouse=True)
def _fresh_caches():
    runner.clear_cache()
    yield
    runner.clear_cache()


class TestFleetLocalParity:
    BENCHMARKS = ["milc", "bwaves", "gamess", "lbm"]
    CONFIGS = ["NP", "PS", "MS", "PMS"]
    ACCESSES = 1500

    def test_fleet_fast_sweep_equals_the_local_one(self, tmp_path):
        from repro.fabric.agent import WorkerAgent
        from repro.fabric.client import FabricClient
        from repro.fabric.coordinator import Coordinator, CoordinatorServer

        coordinator = Coordinator(
            result_store=store.ResultStore(str(tmp_path / "coordinator"))
        )
        server = CoordinatorServer(coordinator).start()
        try:
            client = FabricClient(server.url)
            accepted = client.submit(
                self.BENCHMARKS, self.CONFIGS, accesses=self.ACCESSES,
                seed=SEED, fidelity="fast",
            )
            agent = WorkerAgent(
                server.url, worker_id="w1", capacity=4,
                poll_seconds=0.05, drain_idle_seconds=0.2,
                result_store=store.ResultStore(str(tmp_path / "worker")),
            )
            assert agent.run()["errors"] == 0
            suite, record = client.fetch_calibrated_suite(accepted["sweep"])
        finally:
            server.close()

        jobs = sweep.expand_grid(self.BENCHMARKS, self.CONFIGS,
                                 accesses=self.ACCESSES, seed=SEED)
        local = run_fidelity_sweep(jobs, "fast", use_store=False)
        assert accepted["total"] == len(jobs) + len(local.validated_indices)
        assert record == local.record
        assert {
            (job.benchmark, job.config_name): result
            for job, result in zip(jobs, local.results)
        } == {
            (benchmark, config): result
            for benchmark, per_config in suite.items()
            for config, result in per_config.items()
        }


class TestOneRunJobsCall:
    VARIANT = sweep.Job("milc", "PMS", accesses=1200, seed=SEED,
                        overrides=(("ms_prefetcher.buffer.entries", 8),))

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counting(specs, *args, **kwargs):
            calls.append(len(specs))
            return sweep.run_jobs(specs, *args, **kwargs)

        monkeypatch.setattr(orchestrator, "run_jobs", counting)
        return calls

    def test_fast_sweep_calls_run_jobs_once(self, calls):
        out = run_fidelity_sweep(AUTO_GRID, "fast", use_store=False)
        sample = FidelityGate().sample_size(len(AUTO_GRID))
        assert calls == [len(AUTO_GRID) + sample]
        assert out.stats.total == len(AUTO_GRID) + sample

    @pytest.mark.parametrize("variants", [0, 1])
    def test_auto_sweep_calls_run_jobs_twice(self, calls, variants):
        specs = AUTO_GRID + [self.VARIANT] * variants
        out = run_fidelity_sweep(specs, "auto", use_store=False)
        assert out.escalated_indices  # the second call is the escalation
        assert len(calls) == 2
        assert sum(calls) == out.stats.total
        if variants:
            assert out.results[-1].fidelity is None
            assert len(specs) - 1 not in (
                out.validated_indices + out.escalated_indices
            )


class TestProgressCountsEveryCall:
    def test_auto_sweep_progress_reaches_its_total(self):
        progress = SweepProgress()
        out = run_fidelity_sweep(AUTO_GRID, "auto", use_store=False,
                                 progress=progress)
        assert out.escalated_indices  # the escalation pass ran
        snap = progress.snapshot()
        assert snap["done"] == snap["total"] == out.stats.total
        assert snap["finished"] is True

    def test_cli_fast_sweep_ends_at_every_job(self, capsys):
        rc = main([
            "sweep", "-b", "milc", "bwaves", "gamess",
            "-c", "NP", "PS", "MS", "PMS", "-n", "1200", "--seed", "1",
            "--fidelity", "fast", "--jobs", "1", "--no-store",
        ])
        assert rc == 0
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("sweep ")]
        assert lines[-1].startswith("sweep 15/15 (100%)")
        with open(os.path.join(metrics_dir(), "latest.json"),
                  encoding="utf-8") as handle:
            snapshot = json.load(handle)["progress"]
        assert (snapshot["done"], snapshot["total"]) == (15, 15)
        assert snapshot["finished"] is True
