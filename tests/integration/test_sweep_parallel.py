"""Parallel-vs-serial equivalence and cross-session store reuse.

The determinism guarantee of docs/experiments.md: a `run_suite(jobs=N)`
result compares equal, field for field, to the `jobs=1` result for the
same spec, and a second session re-simulates nothing because every run
is served from the on-disk store.
"""

import os

import pytest

from repro.experiments import runner, store

ACCESSES = 1200
BENCHMARKS = ("tonto", "milc")
CONFIGS = ("NP", "PMS")


@pytest.fixture(autouse=True)
def clean():
    runner.clear_cache()
    yield
    runner.clear_cache()


class TestParallelEqualsSerial:
    def test_run_suite_jobs4_equals_jobs1(self):
        parallel = runner.run_suite(
            BENCHMARKS, CONFIGS, accesses=ACCESSES, jobs=4, use_store=False
        )
        runner.clear_cache()
        serial = runner.run_suite(
            BENCHMARKS, CONFIGS, accesses=ACCESSES, jobs=1, use_store=False
        )
        for bench in BENCHMARKS:
            for config in CONFIGS:
                p, s = parallel[bench][config], serial[bench][config]
                # dataclass equality covers every field, including the
                # stats dict and the nested PowerReport
                assert p == s, (bench, config)
                assert p.stats == s.stats

    def test_parallel_results_fill_the_run_cache(self):
        # the result store is the run cache: workers' results land in it
        runner.run_suite(BENCHMARKS, CONFIGS, accesses=ACCESSES, jobs=2)
        assert len(store.get_store()) == len(BENCHMARKS) * len(CONFIGS)
        # a follow-up serial call is served without simulating
        before = runner.cache_info()["simulated"]
        runner.run(BENCHMARKS[0], CONFIGS[0], accesses=ACCESSES)
        assert runner.cache_info()["simulated"] == before


class TestStoreOffTraffic:
    def test_suite_then_run_simulates_once(self, monkeypatch):
        # REPRO_STORE=0 still reuses a result within the process: the
        # report's grid calls depend on it (384 simulated, not 532)
        monkeypatch.setenv("REPRO_STORE", "0")
        suite = runner.run_suite(("tonto",), ("NP",), accesses=ACCESSES)
        again = runner.run("tonto", "NP", accesses=ACCESSES)
        assert runner.cache_info()["simulated"] == 1
        assert again == suite["tonto"]["NP"]
        assert not os.path.exists(store.store_root())  # nothing on disk


class TestStoreAcrossSessions:
    def test_second_session_simulates_nothing(self):
        runner.run_suite(BENCHMARKS, CONFIGS, accesses=ACCESSES)
        st = store.get_store()
        assert len(st) == len(BENCHMARKS) * len(CONFIGS)

        runner.clear_cache()  # simulate a fresh interpreter
        st.stats.reset()
        again = runner.run_suite(BENCHMARKS, CONFIGS, accesses=ACCESSES)
        assert runner.cache_info()["simulated"] == 0
        assert st.stats.hits == len(BENCHMARKS) * len(CONFIGS)
        assert {b: set(c) for b, c in again.items()} == {
            b: set(CONFIGS) for b in BENCHMARKS
        }

    def test_store_round_trip_preserves_derived_metrics(self):
        first = runner.run("tpcc", "PMS", accesses=ACCESSES)
        runner.clear_cache()
        second = runner.run("tpcc", "PMS", accesses=ACCESSES)
        assert second == first
        assert second.ipc == first.ipc
        assert second.coverage == first.coverage
        assert second.avg_read_latency() == first.avg_read_latency()
        assert second.read_latency_histogram() == first.read_latency_histogram()
        assert second.power.energy_uj == first.power.energy_uj

    def test_fresh_process_reads_the_store(self):
        suite = runner.run_suite(BENCHMARKS, CONFIGS, accesses=ACCESSES)
        runner.clear_cache()  # a fresh interpreter: only the store remains
        again = runner.run(BENCHMARKS[0], CONFIGS[1], accesses=ACCESSES)
        assert runner.cache_info()["simulated"] == 0
        assert again == suite[BENCHMARKS[0]][CONFIGS[1]]

    def test_stale_fingerprint_never_served(self, monkeypatch):
        runner.run("tonto", "NP", accesses=ACCESSES)
        runner.clear_cache()
        # a preset/config change after the entry was written
        monkeypatch.setattr(
            store, "config_fingerprint", lambda config: "deadbeef"
        )
        runner.run("tonto", "NP", accesses=ACCESSES)
        assert runner.cache_info()["simulated"] == 1
        assert len(store.get_store()) == 2

    def test_mutated_runs_round_trip_via_read_through(self):
        def degrade(config):
            config.ms_prefetcher.slh.epoch_reads = 500
            return config

        first = runner.run("tonto", "MS", accesses=ACCESSES,
                           mutate=degrade, mutate_key="epoch=500")
        runner.clear_cache()
        second = runner.run("tonto", "MS", accesses=ACCESSES,
                            mutate=degrade, mutate_key="epoch=500")
        assert second == first
        assert runner.cache_info()["simulated"] == 0

    def test_mutation_semantics_change_invalidates(self):
        def v1(config):
            config.ms_prefetcher.slh.epoch_reads = 500
            return config

        def v2(config):  # same mutate_key, different effect
            config.ms_prefetcher.slh.epoch_reads = 250
            return config

        first = runner.run("milc", "MS", accesses=ACCESSES,
                           mutate=v1, mutate_key="epoch")
        # same process, no clear_cache(): the job key fingerprints the
        # mutated config, so v2 must not be served v1's result
        second = runner.run("milc", "MS", accesses=ACCESSES,
                            mutate=v2, mutate_key="epoch")
        assert runner.cache_info()["simulated"] == 2
        assert second != first
        runner.clear_cache()
        assert runner.run("milc", "MS", accesses=ACCESSES,
                          mutate=v2, mutate_key="epoch") == second
        assert runner.cache_info()["simulated"] == 0


class TestTelemetryStaysSerial:
    def test_traced_suite_ignores_jobs(self):
        from repro.telemetry.probes import EpochProbes
        from repro.telemetry.tracer import Tracer

        tracer = Tracer()
        probes = EpochProbes(interval=1)

        def short_epochs(config):
            config.ms_prefetcher.slh.epoch_reads = 50
            return config

        results = runner.run_suite(
            ("tonto",), ("MS",), accesses=ACCESSES, jobs=4,
            tracer=tracer, probes=probes, mutate=short_epochs,
        )
        assert results["tonto"]["MS"].telemetry is not None
        assert probes.samples_taken > 0  # ran in THIS process, serially
        # traced runs are never stored, on disk or in memory
        assert len(store.get_store()) == 0
        assert len(store.active_store(use_store=False)) == 0
