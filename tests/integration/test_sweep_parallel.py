"""Parallel-vs-serial equivalence and cross-session store reuse.

The determinism guarantee of docs/experiments.md: a `run_suite(jobs=N)`
result compares equal, field for field, to the `jobs=1` result for the
same spec, and a second session re-simulates nothing because every run
is served from the on-disk store.
"""

import os

import pytest

from repro.experiments import runner, store, sweep
from repro.experiments.sensitivity import PB_SIZES

ACCESSES = 1200
BENCHMARKS = ("tonto", "milc")
CONFIGS = ("NP", "PMS")

#: Figure 14's cells: NP plus PMS at every Prefetch Buffer size.
FIG14_JOBS = [
    job
    for bench in BENCHMARKS
    for job in [sweep.Job(bench, "NP", accesses=ACCESSES)] + [
        sweep.Job(bench, "PMS", accesses=ACCESSES,
                  overrides=(("ms_prefetcher.buffer.entries", size),))
        for size in PB_SIZES
    ]
]


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

        # one more input: config variants, shipped to workers as data
        runner.clear_cache()
        parallel = sweep.run_jobs(FIG14_JOBS, jobs=2, use_store=False)
        runner.clear_cache()
        serial = sweep.run_jobs(FIG14_JOBS, jobs=1, use_store=False)
        assert parallel.stats.executed_parallel == len(FIG14_JOBS)
        assert parallel.results == serial.results
        assert len({r.cycles for r in serial.results}) > 2  # variants differ

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
        # report's figures share cells (340 distinct of 502 requested)
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

    def test_override_runs_round_trip(self):
        job = sweep.Job("tonto", "MS", accesses=ACCESSES,
                        overrides=(("ms_prefetcher.slh.epoch_reads", 500),))
        first = sweep.run_jobs([job]).results[0]
        runner.clear_cache()
        second = sweep.run_jobs([job])
        assert second.results[0] == first
        assert second.stats.from_store == 1
        assert runner.cache_info()["simulated"] == 0
