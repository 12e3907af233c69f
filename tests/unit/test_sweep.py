"""Unit tests for the parallel sweep engine's plumbing and robustness.

The crashing/hanging worker stubs below must be module-level functions
so they pickle across the process boundary.
"""

import os
import time

import pytest

from repro.experiments import runner, store, sweep

ACCESSES = 900


@pytest.fixture(autouse=True)
def clean():
    runner.clear_cache()
    yield
    runner.clear_cache()


def crashing_worker(payload, config):
    """Simulates a hard worker death (segfault/OOM-kill analogue)."""
    os._exit(13)


def hanging_worker(payload, config):
    """Never finishes within any reasonable per-job timeout."""
    time.sleep(60)


class TestJob:
    def test_resolve_fills_env_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_ACCESSES", "3333")
        monkeypatch.setenv("REPRO_SEED", "7")
        job = sweep.Job("tpcc", "NP").resolve()
        assert job.accesses == 3333
        assert job.seed == 7

    def test_resolve_keeps_explicit_values(self):
        job = sweep.Job("tpcc", "NP", accesses=500, seed=3).resolve()
        assert (job.accesses, job.seed) == (500, 3)

    def test_resolve_rejects_zero_accesses(self):
        with pytest.raises(ValueError, match="positive"):
            sweep.Job("tpcc", "NP", accesses=0).resolve()

    def test_resolve_rejects_mutate_key(self):
        # a variant is a job's overrides; it has no name of its own
        with pytest.raises(TypeError, match="mutate_key"):
            sweep.Job("tpcc", "NP", mutate_key="pb_entries=32")

    def test_run_jobs_rejects_mutate_key(self):
        # the spec keeps a constant mutate_key so existing keys stay valid
        _job, spec, _config = sweep.prepare(
            sweep.Job("tonto", "NP", accesses=ACCESSES)
        )
        assert spec["mutate_key"] is None


def key_of(job):
    return store.job_key(sweep.prepare(job)[1])


PB_ENTRIES = "ms_prefetcher.buffer.entries"


class TestJobKeyPins:
    """Job keys with no overrides, captured before overrides existed:
    any move here orphans every store entry on every machine."""

    @pytest.mark.parametrize("job, key", [
        (sweep.Job("milc", "PMS", accesses=2000, seed=1),
         "e70b218dd78929b8bf464a5221a67f66dcfefede7f50b4df06465786fb964547"),
        (sweep.Job("milc", "PMS", accesses=2000, seed=1, fidelity="fast"),
         "331968855a0e6853898eb52d02f161ba6863591d98af04bbbec5b1ac9fab5483"),
        (sweep.Job("tonto", "NP", accesses=2000, seed=1, threads=2,
                   scheduler="in_order"),
         "7edde5a78f223c62c673527730565b09659361463026e4cadfdf0b1419fb2c32"),
    ])
    def test_key_is_pinned(self, job, key):
        assert key_of(job) == key


class TestOverrides:
    def test_prepare_applies_them(self):
        job, _spec, config = sweep.prepare(sweep.Job(
            "milc", "PMS", accesses=2000,
            overrides=((PB_ENTRIES, 8), ("core.mlp", 2)),
        ))
        assert config.ms_prefetcher.buffer.entries == 8
        assert config.core.mlp == 2
        assert job.overrides == (("core.mlp", 2), (PB_ENTRIES, 8))  # sorted

    def test_resolve_sorts_and_jobs_stay_hashable(self):
        a = sweep.Job("milc", "PMS", overrides=((PB_ENTRIES, 8), ("core.mlp", 2)))
        b = sweep.Job("milc", "PMS", overrides=(("core.mlp", 2), (PB_ENTRIES, 8)))
        assert a.resolve() == b.resolve()
        assert hash(a.resolve()) == hash(b.resolve())

    def test_a_variant_equal_to_the_preset_shares_its_key(self):
        plain = sweep.Job("milc", "PMS", accesses=2000, seed=1)
        same = sweep.Job("milc", "PMS", accesses=2000, seed=1,
                         overrides=((PB_ENTRIES, 16),))
        other = sweep.Job("milc", "PMS", accesses=2000, seed=1,
                          overrides=((PB_ENTRIES, 8),))
        assert key_of(same) == key_of(plain)
        assert key_of(other) != key_of(plain)

    @pytest.mark.parametrize("overrides, named", [
        (((PB_ENTRIES + "s", 8),), "entriess"),                # unknown field
        (((f"{PB_ENTRIES}.x", 8),), "entries"),                # not a block
        (((PB_ENTRIES, 8.0),), PB_ENTRIES),                    # wrong type
        (((PB_ENTRIES, 8), (PB_ENTRIES, 32)), PB_ENTRIES),     # repeated
        (((PB_ENTRIES, 6),), PB_ENTRIES),                      # fails validate
        ((("name", "X"),), "name"),                            # job-owned
        ((("threads", 2),), "threads"),
        ((("controller.scheduler", "in_order"),), "controller.scheduler"),
        (((PB_ENTRIES, [8]),), PB_ENTRIES),                    # not a scalar
        ((("ms_prefetcher.scheduling.fixed_policy", "3"),), "fixed_policy"),
    ])
    def test_bad_override_names_its_path(self, overrides, named):
        job = sweep.Job("milc", "PMS", accesses=2000, overrides=overrides)
        with pytest.raises(ValueError, match=named):
            sweep.prepare(job)

    def test_none_may_be_replaced(self):
        _job, _spec, config = sweep.prepare(sweep.Job(
            "milc", "PMS", accesses=2000,
            overrides=(("ms_prefetcher.scheduling.fixed_policy", 3),),
        ))
        assert config.ms_prefetcher.scheduling.fixed_policy == 3

    def test_fast_jobs_refuse_them(self):
        job = sweep.Job("milc", "PMS", accesses=2000, fidelity="fast",
                        overrides=(("core.mlp", 2),))
        with pytest.raises(ValueError, match="overrides.*core.mlp"):
            job.resolve()

    def test_a_bad_override_fails_before_anything_runs(self):
        jobs = [sweep.Job("tonto", "NP", accesses=ACCESSES),
                sweep.Job("tonto", "PMS", accesses=ACCESSES,
                          overrides=(("core.mlpp", 2),))]
        with pytest.raises(ValueError, match="mlpp"):
            sweep.run_jobs(jobs)
        assert runner.cache_info()["simulated"] == 0


class TestServing:
    def test_serial_executes_and_stores(self):
        out = sweep.run_jobs([sweep.Job("tonto", "NP", accesses=ACCESSES)])
        assert out.stats.executed_serial == 1
        assert out.results[0].benchmark == "tonto"
        assert len(store.get_store()) == 1

    def test_second_call_is_served_from_cache(self):
        # the result store is the only cache; every read is a fresh
        # object equal to the first, field for field
        spec = [sweep.Job("tonto", "NP", accesses=ACCESSES)]
        first = sweep.run_jobs(spec)
        second = sweep.run_jobs(spec)
        assert second.stats.from_store == 1
        assert second.results[0] == first.results[0]
        assert second.results[0] is not first.results[0]
        assert runner.cache_info()["simulated"] == 1

    def test_cold_process_is_served_from_store(self):
        spec = [sweep.Job("tonto", "NP", accesses=ACCESSES)]
        first = sweep.run_jobs(spec)
        runner.clear_cache()  # "new session"
        second = sweep.run_jobs(spec)
        assert second.stats.from_store == 1
        assert second.results[0] == first.results[0]
        assert runner.cache_info()["simulated"] == 0

    def test_no_store_option(self):
        spec = [sweep.Job("tonto", "NP", accesses=ACCESSES)]
        sweep.run_jobs(spec, use_store=False)
        assert len(store.get_store()) == 0
        # the process-memory store serves the repeat instead
        again = sweep.run_jobs(spec, use_store=False)
        assert again.stats.from_store == 1
        assert runner.cache_info()["simulated"] == 1

    def test_results_align_with_specs(self):
        specs = [
            sweep.Job("tonto", "NP", accesses=ACCESSES),
            sweep.Job("milc", "NP", accesses=ACCESSES),
            sweep.Job("tonto", "PS", accesses=ACCESSES),
        ]
        out = sweep.run_jobs(specs)
        assert [(r.benchmark, r.config_name) for r in out.results] == [
            ("tonto", "NP"), ("milc", "NP"), ("tonto", "PS")
        ]


class TestSweepStatsSummary:
    def test_base_line_only(self):
        stats = sweep.SweepStats(total=3, from_store=1,
                                 executed_parallel=1, executed_serial=1)
        assert stats.summary() == (
            "3 jobs: 1 from store, 1 simulated in workers, "
            "1 simulated serially"
        )

    def test_robustness_counters_appear_only_when_nonzero(self):
        stats = sweep.SweepStats(total=2, retries=3, timeouts=1,
                                 pool_failures=2, serial_fallbacks=1)
        line = stats.summary()
        assert "3 retried" in line
        assert "1 timed out" in line
        assert "2 pool failures" in line
        assert "1 serial fallbacks" in line

    def test_store_section_appears_with_store_activity(self):
        stats = sweep.SweepStats(total=3, store_hits=2, store_misses=1,
                                 store_puts=1)
        assert "store: 2 hits / 1 misses, 1 written" in stats.summary()
        assert "corrupt" not in stats.summary()

    def test_store_corruption_is_called_out(self):
        stats = sweep.SweepStats(total=1, store_misses=1, store_errors=1,
                                 store_puts=1)
        assert "1 corrupt" in stats.summary()

    def test_no_store_activity_no_store_section(self):
        assert "store:" not in sweep.SweepStats(total=2, from_store=2).summary()

    def test_describe_is_an_alias(self):
        stats = sweep.SweepStats(total=1, from_store=1)
        assert stats.describe() == stats.summary()

    def test_run_jobs_populates_store_delta(self):
        out = sweep.run_jobs([sweep.Job("tonto", "NP", accesses=ACCESSES)])
        assert out.stats.store_misses == 1
        assert out.stats.store_puts == 1
        runner.clear_cache()
        again = sweep.run_jobs([sweep.Job("tonto", "NP", accesses=ACCESSES)])
        assert again.stats.store_hits == 1
        assert again.stats.store_puts == 0


class TestRobustness:
    def test_crashing_worker_falls_back_to_serial(self):
        out = sweep.run_jobs(
            [sweep.Job("tonto", "NP", accesses=ACCESSES)],
            jobs=2,
            retries=1,
            worker=crashing_worker,
        )
        assert out.results[0].benchmark == "tonto"
        assert out.stats.pool_failures >= 1
        assert out.stats.retries == 1
        assert out.stats.executed_serial == 1
        assert out.stats.executed_parallel == 0

    def test_crash_retry_budget_is_bounded(self):
        out = sweep.run_jobs(
            [sweep.Job("tonto", "NP", accesses=ACCESSES)],
            jobs=2,
            retries=3,
            worker=crashing_worker,
        )
        assert out.stats.retries == 3
        assert out.results[0] is not None

    def test_hanging_worker_times_out_to_serial(self):
        out = sweep.run_jobs(
            [sweep.Job("tonto", "NP", accesses=ACCESSES)],
            jobs=2,
            timeout=0.5,
            worker=hanging_worker,
        )
        assert out.stats.timeouts == 1
        assert out.stats.executed_serial == 1
        assert out.results[0].benchmark == "tonto"

    def test_unavailable_pool_degrades_to_serial(self, monkeypatch):
        monkeypatch.setattr(sweep, "_make_executor", lambda workers: None)
        out = sweep.run_jobs(
            [sweep.Job("tonto", "NP", accesses=ACCESSES)], jobs=4
        )
        assert out.stats.executed_serial == 1
        assert out.results[0] is not None

    def test_fallback_results_still_reach_the_store(self):
        sweep.run_jobs(
            [sweep.Job("tonto", "NP", accesses=ACCESSES)],
            jobs=2,
            retries=0,
            worker=crashing_worker,
        )
        runner.clear_cache()
        out = sweep.run_jobs([sweep.Job("tonto", "NP", accesses=ACCESSES)])
        assert out.stats.from_store == 1


class TestFidelityPlumbing:
    def test_job_rejects_unknown_fidelity(self):
        with pytest.raises(ValueError, match="fidelity"):
            sweep.Job("tonto", "NP", accesses=ACCESSES,
                      fidelity="approximate").resolve()

    def test_job_rejects_auto_pointing_at_orchestrator(self):
        # "auto" is a sweep policy, not a per-job tier
        with pytest.raises(ValueError, match="orchestrator"):
            sweep.Job("tonto", "NP", accesses=ACCESSES,
                      fidelity="auto").resolve()

    def test_fast_and_exact_jobs_have_distinct_identities(self):
        exact = sweep.prepare(sweep.Job("tonto", "NP", accesses=ACCESSES))
        fast = sweep.prepare(
            sweep.Job("tonto", "NP", accesses=ACCESSES, fidelity="fast")
        )
        assert store.job_key(exact[1]) != store.job_key(fast[1])
        assert "fidelity" not in exact[1]                 # legacy shape
        assert fast[1]["fidelity"] == "fast"
        assert "fast_model" in fast[1]

    def test_compute_job_dispatches_on_tier(self):
        job, _spec, config = sweep.prepare(
            sweep.Job("tonto", "NP", accesses=ACCESSES)
        )
        exact = sweep.compute_job(config, job.benchmark, job.accesses,
                                  job.seed, job.threads, "exact")
        fast = sweep.compute_job(config, job.benchmark, job.accesses,
                                 job.seed, job.threads, "fast")
        assert exact.fidelity is None
        assert fast.fidelity_tier == "fast"

    def test_run_jobs_counts_tiers(self):
        out = sweep.run_jobs([
            sweep.Job("tonto", "NP", accesses=ACCESSES),
            sweep.Job("tonto", "NP", accesses=ACCESSES, fidelity="fast"),
        ])
        assert out.stats.exact_jobs == 1
        assert out.stats.fast_jobs == 1
        assert out.results[0].fidelity is None
        assert out.results[1].fidelity_tier == "fast"

    def test_fast_tier_parallel_equals_serial(self):
        specs = [
            sweep.Job(b, c, accesses=ACCESSES, fidelity="fast")
            for b in ("tonto", "milc") for c in ("NP", "PMS")
        ]
        serial = sweep.run_jobs(specs, use_store=False)
        runner.clear_cache()
        parallel = sweep.run_jobs(specs, jobs=2, use_store=False)
        assert serial.results == parallel.results


class TestSweepStatsFidelity:
    def test_describe_reports_breakdown_when_fast_ran(self):
        stats = sweep.SweepStats(total=10, executed_serial=10,
                                 fast_jobs=8, exact_jobs=2, validated=2)
        assert stats.describe().endswith(
            "; fidelity: 8 fast / 2 exact, 2 validated"
        )

    def test_describe_unchanged_for_pure_exact_sweeps(self):
        stats = sweep.SweepStats(total=3, executed_serial=3, exact_jobs=3)
        assert "fidelity" not in stats.describe()
        assert stats.describe() == stats.summary()

    def test_merge_sums_counterwise(self):
        a = sweep.SweepStats(total=2, fast_jobs=2, store_puts=1)
        b = sweep.SweepStats(total=3, exact_jobs=3, validated=2, store_puts=2)
        a.merge(b)
        assert (a.total, a.fast_jobs, a.exact_jobs, a.validated,
                a.store_puts) == (5, 2, 3, 2, 3)
