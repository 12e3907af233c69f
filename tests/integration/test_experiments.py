"""Integration tests for the experiment harness (small traces).

Each experiment function must run end to end and produce data of the
right shape; the full-size qualitative assertions live in benchmarks/.
"""

import pytest

from repro.experiments import runner, store, sweep
from repro.experiments.ablation import fig11_ablation
from repro.experiments.efficiency import fig13_efficiency
from repro.experiments.extensions import asd_only, degree_sweep
from repro.experiments.hardware_cost import tab_hardware_cost
from repro.experiments.performance import performance_figure
from repro.experiments.power import power_figure
from repro.experiments.scheduler_interaction import tab_scheduler_interaction
from repro.experiments.sensitivity import (
    epoch_sweep,
    fig14_buffer_size,
    fig15_filter_size,
)
from repro.experiments.slh_figures import (
    fig16_slh_accuracy,
    fig2_slh_example,
    fig3_slh_phases,
    mc_read_stream,
)
from repro.experiments.smt import tab_smt
from repro.experiments.stream_lengths import fig12_stream_lengths

SMALL = 2500
BENCHES = ("GemsFDTD", "tpcc")


@pytest.fixture(autouse=True)
def fresh_cache():
    runner.clear_cache()
    yield
    runner.clear_cache()


class TestRunner:
    def test_run_caches(self):
        a = runner.run("tonto", "NP", accesses=SMALL)
        b = runner.run("tonto", "NP", accesses=SMALL)
        assert a == b  # the store serves an equal, fresh object
        assert runner.cache_info()["simulated"] == 1
        assert len(store.get_store()) == 1

    def test_override_runs_are_stored(self):
        job = sweep.Job("tonto", "NP", accesses=SMALL,
                        overrides=(("core.mlp", 2),))
        for _ in range(2):
            sweep.run_jobs([job])
        runner.run("tonto", "NP", accesses=SMALL)  # the preset: its own key
        assert runner.cache_info()["simulated"] == 2
        assert len(store.get_store()) == 2

    def test_smt_uses_distinct_seeds(self):
        runner.run("tonto", "NP", accesses=SMALL, threads=2)
        assert runner.cache_info()["traces"] == 2


class TestSLHFigures:
    def test_mc_read_stream_is_subset_of_trace_reads(self):
        trace = runner.get_trace("GemsFDTD", SMALL)
        reads = mc_read_stream(trace)
        trace_reads = [l for _, l, w in trace.records if not w]
        assert 0 < len(reads) <= len(trace_reads)

    def test_fig2_bars_normalised(self):
        bars = fig2_slh_example(accesses=SMALL, epoch_reads=500)
        assert abs(sum(bars[1:]) - 1.0) < 1e-9

    def test_fig3_multiple_epochs(self):
        fig = fig3_slh_phases(accesses=SMALL, epoch_reads=400)
        assert len(fig.epoch_bars) >= 2
        assert fig.table(epochs=[0, 1])

    def test_fig16_accuracy_reasonable(self):
        acc = fig16_slh_accuracy(accesses=SMALL, epoch_reads=500)
        assert 0 <= acc.rms_error < 0.5
        assert acc.table()

    @pytest.mark.parametrize(
        "figure", [fig3_slh_phases, fig16_slh_accuracy, fig12_stream_lengths]
    )
    def test_zero_accesses_is_an_error_not_the_default(self, figure):
        with pytest.raises(ValueError, match="positive trace length"):
            figure(accesses=0)


class TestPerformanceAndPower:
    def test_performance_figure_rows(self):
        suite = performance_figure("commercial", accesses=SMALL)
        assert len(suite.rows) == 5
        assert suite.avg_pms_vs_np == pytest.approx(
            sum(r.pms_vs_np for r in suite.rows) / 5
        )

    def test_power_figure_rows(self):
        fig = power_figure("commercial", accesses=SMALL)
        assert len(fig.rows) == 5
        assert fig.avg_energy_reduction == pytest.approx(
            sum(r["energy_reduction_pct"] for r in fig.rows) / 5
        )


class TestFocusFigures:
    def test_fig11_normalised_to_pms(self):
        fig = fig11_ablation(benchmarks=BENCHES, accesses=SMALL)
        for bench in BENCHES:
            assert fig.normalized[bench]["PMS"] == 1.0

    def test_fig12_percentages(self):
        fig = fig12_stream_lengths(benchmarks=BENCHES, accesses=SMALL)
        for bench in BENCHES:
            assert 0 < fig.short_fraction(bench) <= 100.0

    def test_fig13_ranges(self):
        fig = fig13_efficiency(benchmarks=BENCHES, accesses=SMALL)
        for row in fig.rows.values():
            assert 0 <= row.useful_pct <= 100
            assert 0 <= row.coverage_pct <= 100
            assert 0 <= row.delayed_pct <= 100

    def test_fig14_sweep_values(self):
        fig = fig14_buffer_size(benchmarks=("tpcc",), accesses=SMALL, sizes=(8, 16))
        assert set(fig.speedups["tpcc"]) == {8, 16}
        assert all(v > 0 for v in fig.speedups["tpcc"].values())

    def test_fig15_sweep_values(self):
        fig = fig15_filter_size(benchmarks=("tpcc",), accesses=SMALL, sizes=(4, 8))
        assert set(fig.speedups["tpcc"]) == {4, 8}


class TestEveryFigureRunsThroughRunJobs:
    def test_with_repro_jobs_2_nothing_simulates_in_this_process(
        self, monkeypatch
    ):
        # every cell, config variants included, runs in a worker
        monkeypatch.setenv("REPRO_JOBS", "2")
        one = {"benchmarks": ("tonto",), "accesses": SMALL}
        fig11_ablation(**one)
        fig13_efficiency(**one)
        fig14_buffer_size(**one, sizes=(8, 16))
        fig15_filter_size(**one, sizes=(4, 8))
        epoch_sweep(**one, lengths=(500,))
        tab_scheduler_interaction(**one)
        degree_sweep(**one, degrees=(1, 2))
        asd_only(**one)
        assert runner.cache_info()["simulated"] == 0
        assert len(store.get_store()) > 0


class TestTables:
    def test_smt_runs_two_threads(self):
        result = tab_smt(benchmarks=("tonto",), accesses=SMALL)
        assert "tonto" in result.rows

    def test_scheduler_interaction_all_schedulers(self):
        result = tab_scheduler_interaction(benchmarks=("tonto",), accesses=SMALL)
        assert set(result.gains) == {"ahb", "memoryless", "in_order"}

    def test_hardware_cost_table(self):
        table = tab_hardware_cost()
        assert set(table.costs) == {1, 2, 4}

    def test_degree_sweep(self):
        sweep = degree_sweep(benchmarks=("tonto",), accesses=SMALL, degrees=(1, 2))
        assert set(sweep.speedups["tonto"]) == {1, 2}

    def test_asd_only(self):
        result = asd_only(benchmarks=("tonto",), accesses=SMALL)
        assert set(result.gains["tonto"]) == {"asd", "ps", "ps_asd"}
