"""End-to-end observability of the sweep engine.

Covers the acceptance path of the obs subsystem: a sweep with metrics
enabled populates job/store/run counters; a forced worker crash or
timeout leaves a readable post-mortem JSON under
``.repro-results/postmortem/``; and a disabled registry keeps every
instrumented path on its zero-cost branch.  Run metrics are folded in
the sweep's parent from each result, so the simulator itself imports
no part of ``repro.obs``.
"""

import os
import subprocess
import sys
import time

import pytest

from repro.experiments import runner, store, sweep
from repro.obs import flightrec
from repro.obs import metrics as obs_metrics
from repro.obs.paths import postmortem_dir
from repro.obs.progress import SweepProgress
from repro.system.simulator import default_loop_mode

ACCESSES = 900
REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)


@pytest.fixture(autouse=True)
def clean():
    runner.clear_cache()
    obs_metrics.reset_default_registry()
    yield
    runner.clear_cache()
    obs_metrics.reset_default_registry()


def crashing_worker(payload, config):
    """Hard worker death (must be module-level to pickle)."""
    os._exit(13)


def hanging_worker(payload, config):
    """Never returns within any sane per-job timeout."""
    time.sleep(60)


class TestMetricsFlow:
    def test_serial_sweep_populates_registry(self):
        registry = obs_metrics.MetricsRegistry(enabled=True)
        spec = [sweep.Job("tonto", "NP", accesses=ACCESSES)]
        out = sweep.run_jobs(spec, metrics=registry)
        again = sweep.run_jobs(spec, metrics=registry)
        assert out.stats.executed_serial == 1
        assert again.stats.from_store == 1
        jobs = registry.counter("repro_sweep_jobs_total",
                                labelnames=("outcome",))
        assert jobs.value(outcome="serial") == 1.0
        assert jobs.value(outcome="store") == 1.0
        seconds = registry.histogram("repro_sweep_job_seconds",
                                     labelnames=("mode",))
        assert seconds.mean(mode="serial") > 0.0

    def test_store_and_run_metrics_via_default_registry(self):
        registry = obs_metrics.MetricsRegistry(enabled=True)
        obs_metrics.set_default_registry(registry)
        sweep.run_jobs([sweep.Job("milc", "NP", accesses=ACCESSES)])
        reads = registry.counter("repro_store_reads_total",
                                 labelnames=("result",))
        assert reads.value(result="miss") == 1.0
        assert registry.counter("repro_store_writes_total").value() == 1.0
        assert registry.counter("repro_store_bytes_written_total").value() > 0
        # the sweep folded the one executed job's totals
        completed = registry.counter("repro_runs_completed_total",
                                     labelnames=("config", "loop_mode"))
        assert sum(v for _, v in completed.samples()) == 1.0
        assert registry.counter("repro_run_cycles_total").value() > 0

    @pytest.mark.parametrize("jobs, fidelity", [
        (1, "exact"), (2, "exact"), (1, "fast"),
    ])
    def test_run_counters_see_every_executed_job(self, jobs, fidelity):
        # folded in the parent from each RunResult, so pool workers
        # (whose registries are discarded copies) and the fast tier
        # (which never reaches System._collect) count too; wired like
        # `repro sweep`, so a serial job counted twice would show
        registry = obs_metrics.MetricsRegistry(enabled=True)
        obs_metrics.set_default_registry(registry)
        specs = sweep.expand_grid(("milc", "lbm"), ("NP", "PMS"),
                                  accesses=ACCESSES, fidelity=fidelity)
        out = sweep.run_jobs(specs, jobs=jobs, metrics=registry)
        completed = registry.counter("repro_runs_completed_total",
                                     labelnames=("config", "loop_mode"))
        mode = "fast" if fidelity == "fast" else default_loop_mode()
        assert completed.samples() == [
            ({"config": "NP", "loop_mode": mode}, 2.0),
            ({"config": "PMS", "loop_mode": mode}, 2.0),
        ]
        assert registry.counter("repro_run_cycles_total").value() == sum(
            result.cycles for result in out.results
        )
        assert registry.counter("repro_run_instructions_total").value() == sum(
            result.instructions for result in out.results
        )
        # a store hit executes nothing, so it counts nothing
        sweep.run_jobs(specs, jobs=jobs, metrics=registry)
        assert sum(value for _, value in completed.samples()) == 4.0

    def test_simulator_imports_no_obs_module(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.system.simulator; print(sorted("
             "m for m in sys.modules if m.startswith('repro.obs')))"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_serial_and_pool_sweeps_register_the_same_metrics(self):
        names = {}
        for jobs in (1, 2):
            runner.clear_cache()
            registry = obs_metrics.MetricsRegistry(enabled=True)
            obs_metrics.set_default_registry(registry)
            specs = [sweep.Job("milc", "NP", accesses=ACCESSES),
                     sweep.Job("tonto", "PMS", accesses=ACCESSES)]
            out = sweep.run_jobs(specs, jobs=jobs, metrics=registry,
                                 use_store=False)
            assert (out.stats.executed_serial
                    + out.stats.executed_parallel) == 2
            names[jobs] = sorted(inst.name for inst in registry.collect())
        assert names[1] == names[2]
        assert "repro_runs_completed_total" in names[1]

    def test_parallel_sweep_reports_queue_wait_and_exec_time(self):
        registry = obs_metrics.MetricsRegistry(enabled=True)
        sweep.run_jobs(
            [sweep.Job("tonto", "NP", accesses=ACCESSES),
             sweep.Job("milc", "NP", accesses=ACCESSES)],
            jobs=2, metrics=registry,
        )
        seconds = registry.histogram("repro_sweep_job_seconds",
                                     labelnames=("mode",))
        assert seconds.mean(mode="parallel") > 0.0
        [(_, (_, _, count))] = registry.histogram(
            "repro_sweep_queue_wait_seconds"
        ).samples()
        assert count == 2

    def test_disabled_registry_registers_nothing(self):
        registry = obs_metrics.MetricsRegistry(enabled=False)
        sweep.run_jobs(
            [sweep.Job("tonto", "NP", accesses=ACCESSES)], metrics=registry
        )
        assert all(not inst.samples() for inst in registry.collect())

    def test_progress_is_driven(self):
        progress = SweepProgress()
        spec = [sweep.Job("tonto", "NP", accesses=ACCESSES)]
        sweep.run_jobs(spec, progress=progress)
        assert progress.snapshot()["outcomes"]["serial"] == 1
        assert progress.snapshot()["finished"] is True
        sweep.run_jobs(spec, progress=progress)  # begin() counts on
        snap = progress.snapshot()
        assert snap["total"] == 2
        assert snap["done"] == 2
        assert snap["finished"] is True
        assert snap["outcomes"]["store"] == 1
        assert snap["outcomes"]["serial"] == 1

    def test_run_suite_serial_path_drives_progress(self):
        progress = SweepProgress()
        runner.run_suite(("tonto",), ("NP", "PS"), accesses=ACCESSES,
                         progress=progress)
        snap = progress.snapshot()
        assert snap["done"] == 2
        assert snap["finished"] is True


class TestPostmortems:
    def test_worker_crash_writes_readable_postmortem(self):
        out = sweep.run_jobs(
            [sweep.Job("tonto", "NP", accesses=ACCESSES)],
            jobs=2, retries=1, worker=crashing_worker,
        )
        assert out.results[0] is not None  # sweep still completed
        assert out.stats.serial_fallbacks == 1
        directory = postmortem_dir()
        names = os.listdir(directory)
        assert len(names) == 1
        doc = flightrec.read_postmortem(os.path.join(directory, names[0]))
        assert doc["reason"] == "worker_crash"
        assert doc["spec"]["benchmark"] == "tonto"
        assert doc["job_key"] == names[0].removesuffix(".json")
        assert doc["extra"]["attempts"] == 2
        kinds = [r["kind"] for r in doc["records"]]
        assert "pool_break" in kinds
        assert "retry" in kinds
        assert "retry_exhausted" in kinds
        # the structured-logging satellite: log lines reach the ring
        log_lines = [r["message"] for r in doc["records"]
                     if r["kind"] == "log"]
        assert any("worker process died" in line for line in log_lines)
        assert any("exhausted" in line for line in log_lines)

    def test_timeout_writes_postmortem(self):
        sweep.run_jobs(
            [sweep.Job("tonto", "NP", accesses=ACCESSES)],
            jobs=2, timeout=0.5, worker=hanging_worker,
        )
        directory = postmortem_dir()
        [name] = os.listdir(directory)
        doc = flightrec.read_postmortem(os.path.join(directory, name))
        assert doc["reason"] == "timeout"
        assert doc["extra"]["timeout_s"] == 0.5
        assert any(r["kind"] == "timeout" for r in doc["records"])

    def test_clean_sweep_writes_nothing(self):
        sweep.run_jobs([sweep.Job("tonto", "NP", accesses=ACCESSES)])
        assert not os.path.isdir(postmortem_dir())

    def test_postmortem_embeds_metrics_when_enabled(self):
        registry = obs_metrics.MetricsRegistry(enabled=True)
        sweep.run_jobs(
            [sweep.Job("tonto", "NP", accesses=ACCESSES)],
            jobs=2, timeout=0.5, worker=hanging_worker, metrics=registry,
        )
        [name] = os.listdir(postmortem_dir())
        doc = flightrec.read_postmortem(
            os.path.join(postmortem_dir(), name)
        )
        names = {m["name"] for m in doc["metrics"]["metrics"]}
        assert "repro_sweep_events_total" in names


class TestSerialFallbackLogging:
    def test_pool_unavailable_is_logged_and_counted(self, monkeypatch, caplog):
        monkeypatch.setattr(sweep, "_make_executor", lambda workers: None)
        registry = obs_metrics.MetricsRegistry(enabled=True)
        with caplog.at_level("WARNING", logger="repro.experiments.sweep"):
            out = sweep.run_jobs(
                [sweep.Job("tonto", "NP", accesses=ACCESSES)],
                jobs=4, metrics=registry,
            )
        assert out.stats.serial_fallbacks == 1
        assert any("pool unavailable" in r.message for r in caplog.records)
        events = registry.counter("repro_sweep_events_total",
                                  labelnames=("event",))
        assert events.value(event="serial_fallback") == 1.0
