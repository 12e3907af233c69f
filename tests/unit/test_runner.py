"""Unit tests for the experiment runner's environment handling."""

import pytest

from repro.experiments import runner


@pytest.fixture(autouse=True)
def clean(monkeypatch):
    runner.clear_cache()
    monkeypatch.delenv("REPRO_TRACE_ACCESSES", raising=False)
    monkeypatch.delenv("REPRO_SEED", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    yield
    runner.clear_cache()


class TestDefaults:
    def test_default_accesses(self):
        assert runner.default_accesses() == 20_000

    def test_env_overrides_accesses(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_ACCESSES", "777")
        assert runner.default_accesses() == 777

    def test_default_seed(self):
        assert runner.default_seed() == 1

    def test_env_overrides_seed(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "42")
        assert runner.default_seed() == 42

    def test_default_jobs(self, monkeypatch):
        assert runner.default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert runner.default_jobs() == 4

    @pytest.mark.parametrize("name, read", [
        ("REPRO_JOBS", runner.default_jobs),
        ("REPRO_SEED", runner.default_seed),
        ("REPRO_TRACE_ACCESSES", runner.default_accesses),
    ])
    def test_a_non_integer_names_the_variable_and_value(
        self, monkeypatch, name, read
    ):
        monkeypatch.setenv(name, "two")
        with pytest.raises(ValueError, match=f"{name}='two'"):
            read()


class TestAccessesValidation:
    """``accesses=0`` means zero, not "use the default" (falsy-arg bug)."""

    def test_get_trace_rejects_zero(self):
        with pytest.raises(ValueError, match="positive trace length"):
            runner.get_trace("tonto", 0)

    def test_get_trace_rejects_negative(self):
        with pytest.raises(ValueError, match="positive trace length"):
            runner.get_trace("tonto", -5)

    def test_run_rejects_zero(self):
        with pytest.raises(ValueError, match="positive trace length"):
            runner.run("tonto", "NP", accesses=0)

    def test_none_means_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_ACCESSES", "600")
        trace = runner.get_trace("tonto", None)
        assert len(trace.records) == 600


class TestTraceCache:
    def test_same_key_same_object(self):
        a = runner.get_trace("tonto", 500, seed=1)
        b = runner.get_trace("tonto", 500, seed=1)
        assert a is b

    def test_different_seed_different_trace(self):
        a = runner.get_trace("tonto", 500, seed=1)
        b = runner.get_trace("tonto", 500, seed=2)
        assert a.records != b.records

    def test_cache_info_counts(self):
        runner.get_trace("tonto", 500)
        runner.get_trace("milc", 500)
        assert runner.cache_info() == {
            "traces": 2, "trace_records": 1000, "simulated": 0,
        }

    def test_simulated_counter(self):
        runner.run("tonto", "NP", accesses=500, use_store=False)
        runner.run("tonto", "NP", accesses=500, use_store=False)  # memory hit
        assert runner.cache_info()["simulated"] == 1

    def test_records_held_stay_under_the_cap_over_a_long_run(self):
        # a fuzz run or fabric agent sees a new trace per candidate
        for seed in range(50):
            runner.get_trace("milc", 5000, seed=seed)
            assert runner.cache_info()["trace_records"] <= (
                runner.TRACE_CACHE_RECORDS
            )
        assert runner.cache_info()["traces"] < 50

    def test_least_recently_used_trace_goes_first(self, monkeypatch):
        monkeypatch.setattr(runner, "TRACE_CACHE_RECORDS", 1000)
        a = runner.get_trace("tonto", 500, seed=1)
        runner.get_trace("tonto", 500, seed=2)
        assert runner.get_trace("tonto", 500, seed=1) is a  # refreshed
        runner.get_trace("tonto", 500, seed=3)              # evicts seed 2
        assert runner.get_trace("tonto", 500, seed=1) is a
        assert runner.cache_info()["traces"] == 2

    def test_a_trace_over_the_cap_is_still_kept(self, monkeypatch):
        monkeypatch.setattr(runner, "TRACE_CACHE_RECORDS", 100)
        a = runner.get_trace("tonto", 500, seed=1)
        assert runner.get_trace("tonto", 500, seed=1) is a
        runner.get_trace("tonto", 500, seed=2)
        assert runner.cache_info() == {
            "traces": 1, "trace_records": 500, "simulated": 0,
        }

    def test_two_thread_grid_regenerates_nothing(self):
        for _ in ("NP", "PS", "MS", "PMS"):
            runner.get_trace("milc", 20_000, seed=1)
            runner.get_trace("milc", 20_000, seed=2)
        assert runner.cache_info()["traces"] == 2


class TestStoreReadThrough:
    def test_run_is_served_from_store_after_cache_clear(self):
        first = runner.run("tonto", "NP", accesses=500)
        runner.clear_cache()
        second = runner.run("tonto", "NP", accesses=500)
        assert second == first
        assert runner.cache_info()["simulated"] == 0

    def test_use_store_false_skips_the_store(self):
        from repro.experiments import store

        runner.run("tonto", "NP", accesses=500, use_store=False)
        assert len(store.get_store()) == 0

    def test_store_env_disable(self, monkeypatch):
        from repro.experiments import store

        monkeypatch.setenv("REPRO_STORE", "0")
        runner.run("tonto", "NP", accesses=500)
        assert len(store.get_store()) == 0


class TestRunConfigs:
    def test_run_suite_shape(self):
        results = runner.run_suite(("tonto",), ("NP",), accesses=800)
        assert set(results) == {"tonto"}
        assert set(results["tonto"]) == {"NP"}

    def test_run_suite_unknown_kwarg_raises_even_parallel(self):
        # A typo must raise TypeError, not be silently dropped.
        with pytest.raises(TypeError):
            runner.run_suite(("tonto",), ("NP",), accesses=800, jobs=2,
                             acesses=900)

    def test_scheduler_in_cache_key(self):
        # the store's job key (the one cache key) includes the scheduler
        from repro.experiments import store

        runner.run("tonto", "NP", accesses=800, scheduler="ahb")
        runner.run("tonto", "NP", accesses=800, scheduler="in_order")
        assert runner.cache_info()["simulated"] == 2
        assert len(store.get_store()) == 2
