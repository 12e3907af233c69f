"""Two-fidelity sweeps end to end (docs/fidelity.md).

The property the whole tier rests on: every FidelityGate validation
sample's relative error is within the advertised bound — asserted here
across the figure-5 suite grid at reduced trace length, plus the auto
tier's exact-replacement and decision-boundary escalation, the store
round-trip of calibrated error bars, and a fast-fidelity sweep through
a live fabric fleet.
"""

import pytest

from repro.experiments import runner, store, sweep
from repro.fastsim import FidelityGate, run_fidelity_sweep
from repro.fastsim.gate import GATED_METRICS, relative_error
from repro.workloads.profiles import suite_benchmarks

ACCESSES = 1200
SEED = 1


@pytest.fixture(autouse=True)
def _fresh_caches():
    runner.clear_cache()
    yield
    runner.clear_cache()


def grid(benchmarks, configs, accesses=ACCESSES):
    return sweep.expand_grid(benchmarks, configs, accesses=accesses,
                             seed=SEED)


class TestFigure5GridBound:
    """Property-style: the advertised bound holds on every sampled
    exact point of the full fig5 grid (17 benchmarks x NP/PS/MS/PMS)."""

    @pytest.fixture(scope="class")
    def outcome(self):
        runner.clear_cache()
        jobs = grid(suite_benchmarks("spec2006fp"), ["NP", "PS", "MS", "PMS"])
        return jobs, run_fidelity_sweep(jobs, fidelity="fast",
                                        use_store=False)

    def test_every_fast_result_carries_the_bars(self, outcome):
        _jobs, out = outcome
        assert out.record is not None
        for result in out.results:
            assert result.fidelity_tier == "fast"
            for metric in GATED_METRICS:
                assert result.error_bar(metric) == out.record.bound(metric)

    def test_bound_holds_on_every_validation_sample(self, outcome):
        jobs, out = outcome
        assert len(out.validated_indices) == FidelityGate().sample_size(
            len(jobs)
        )
        checked = 0
        for index in out.validated_indices:
            job = jobs[index]
            exact = runner.simulate_job(
                sweep.prepare(job)[2], job.benchmark, job.accesses,
                job.seed, job.threads,
            )
            for metric in GATED_METRICS:
                observed = relative_error(out.results[index], exact, metric)
                assert observed <= out.record.bound(metric), (
                    f"{job.benchmark}/{job.config_name}: {metric} error "
                    f"{observed:.4f} > bound {out.record.bound(metric):.4f}"
                )
            checked += 1
        assert checked >= 3

    def test_stats_report_the_tier_split(self, outcome):
        jobs, out = outcome
        sample = len(out.validated_indices)
        assert out.stats.fast_jobs == len(jobs)
        assert out.stats.exact_jobs == sample
        assert out.stats.validated == sample
        assert f"{len(jobs)} fast / {sample} exact" in out.stats.describe()


class TestAutoTier:
    BENCHMARKS = ["gamess", "povray", "ep"]  # low-gain: escalation bait
    CONFIGS = ["NP", "PS"]

    def run_auto(self, **kwargs):
        jobs = grid(self.BENCHMARKS, self.CONFIGS)
        return jobs, run_fidelity_sweep(jobs, fidelity="auto", **kwargs)

    def test_validated_slots_are_replaced_by_exact(self):
        _jobs, out = self.run_auto(use_store=False)
        for index in out.validated_indices:
            assert out.results[index].fidelity is None

    def test_boundary_points_escalate_to_exact(self):
        jobs, out = self.run_auto(use_store=False)
        # compute-bound benchmarks have ~zero PS gain, inside any
        # honest error band — at least one must escalate
        assert out.escalated_indices
        for index in out.escalated_indices:
            assert jobs[index].config_name != "NP"  # never the baseline
            assert out.results[index].fidelity is None

    def test_far_from_boundary_points_stay_fast(self):
        jobs, out = self.run_auto(use_store=False)
        exact_slots = set(out.validated_indices) | set(out.escalated_indices)
        fast_slots = [
            i for i in range(len(jobs)) if i not in exact_slots
        ]
        for index in fast_slots:
            assert out.results[index].fidelity_tier == "fast"
            assert out.results[index].error_bar("cycles") is not None


class TestAutoKeepsVariantsExact:
    """The fast model takes presets only, so ``auto`` runs a job with
    overrides exact instead of failing the whole sweep."""

    VARIANT = sweep.Job("milc", "PMS", accesses=2000, seed=SEED,
                        overrides=(("ms_prefetcher.buffer.entries", 8),))

    def test_lone_variant_returns_one_exact_result(self):
        out = run_fidelity_sweep([self.VARIANT], fidelity="auto")
        [result] = out.results
        assert result.fidelity is None
        assert result == sweep.run_jobs([self.VARIANT]).results[0]
        assert out.validated_indices == [] and out.escalated_indices == []

    def test_mixed_list_keeps_each_result_in_its_slot(self):
        plain = sweep.Job("milc", "PMS", accesses=2000, seed=SEED)
        out = run_fidelity_sweep([plain, self.VARIANT], fidelity="auto")
        first, second = out.results
        assert first.fidelity_tier == "fast" or 0 in out.validated_indices
        assert 1 not in out.validated_indices + out.escalated_indices
        assert second.fidelity is None
        assert second == sweep.run_jobs([self.VARIANT]).results[0]
        assert second != sweep.run_jobs([plain]).results[0]

    def test_fast_sweep_still_refuses_a_variant(self):
        with pytest.raises(ValueError, match="overrides"):
            run_fidelity_sweep([self.VARIANT], fidelity="fast")


class TestStoreRoundTrip:
    def test_calibrated_bars_survive_a_cold_process(self):
        jobs = grid(["milc", "cg"], ["NP", "PMS"])
        first = run_fidelity_sweep(jobs, fidelity="fast")
        assert first.stats.store_puts > 0
        runner.clear_cache()  # "new process": only the store remains
        again = run_fidelity_sweep(jobs, fidelity="fast")
        assert again.stats.from_store == again.stats.total
        assert again.results == first.results
        for result in again.results:
            assert result.error_bar("cycles") == again.record.bound("cycles")

    def test_fast_entries_do_not_shadow_exact_ones(self):
        jobs = grid(["milc"], ["NP"])
        run_fidelity_sweep(jobs, fidelity="fast")
        exact = run_fidelity_sweep(jobs, fidelity="exact")
        assert exact.results[0].fidelity is None


class TestFabricFastFidelity:
    def test_fleet_sweep_returns_calibrated_suite(self, tmp_path):
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
                ["milc"], ["NP", "PMS"], accesses=ACCESSES, seed=SEED,
                fidelity="fast",
            )
            # the fast grid plus the gate's exact validation twins
            assert accepted["total"] == 2 + FidelityGate().sample_size(2)
            agent = WorkerAgent(
                server.url, worker_id="w1", capacity=4,
                poll_seconds=0.05, drain_idle_seconds=0.2,
                result_store=store.ResultStore(str(tmp_path / "worker")),
            )
            totals = agent.run()
            assert totals["errors"] == 0
            suite, record = client.fetch_calibrated_suite(accepted["sweep"])
            assert record is not None and record.samples >= 1
            tiers = {
                result.fidelity_tier
                for per_config in suite.values()
                for result in per_config.values()
            }
            assert "exact" in tiers  # validation twins win their cells
            fast_rows = [
                result
                for per_config in suite.values()
                for result in per_config.values()
                if result.fidelity_tier == "fast"
            ]
            for result in fast_rows:
                assert result.error_bar("cycles") == record.bound("cycles")
        finally:
            server.close()
