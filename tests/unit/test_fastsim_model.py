"""Unit tests for the fast analytic model (docs/fidelity.md)."""

from dataclasses import replace

import pytest

from repro import generate_trace, get_profile, make_config
from repro.fastsim import predict, simulate_job_fast
from repro.fastsim.banktables import bank_table, clear_tables
from repro.fastsim.model import miss_stream
from repro.fastsim.version import FAST_MODEL_VERSION
from repro.system.simulator import System
from repro.telemetry import EpochProbes, Tracer, series_to_json
from repro.workloads.trace import Trace

ACCESSES = 1500


def trace_for(benchmark, seed=1):
    return generate_trace(
        get_profile(benchmark).workload, ACCESSES, seed=seed
    )


class TestPrediction:
    def test_result_is_stamped_fast(self):
        result = predict(make_config("PMS"), [trace_for("milc")])
        assert result.fidelity == {
            "tier": "fast", "model_version": FAST_MODEL_VERSION,
        }
        assert result.fidelity_tier == "fast"
        assert result.error_bar("cycles") is None  # not yet calibrated

    def test_deterministic(self):
        a = predict(make_config("PMS"), [trace_for("milc")])
        b = predict(make_config("PMS"), [trace_for("milc")])
        assert a == b

    def test_metrics_are_sane(self):
        result = predict(make_config("PMS"), [trace_for("milc")])
        assert result.cycles > 0
        assert result.instructions >= ACCESSES  # accesses + gap work
        assert 0.0 <= result.coverage <= 1.0
        assert 0.0 <= result.useful_prefetch_fraction <= 1.0
        assert result.power is not None and result.power.energy_uj > 0

    def test_prefetching_configs_beat_np_on_streaming_workloads(self):
        # GemsFDTD is long-stream dominated: any sane model must show
        # the paper's qualitative ordering
        # longer trace: the SLH needs a few epochs of warmup before
        # ASD opens up, so coverage at unit-test scale would be noise
        trace = generate_trace(
            get_profile("GemsFDTD").workload, 6000, seed=1
        )
        np_result = predict(make_config("NP"), [trace])
        ms = predict(make_config("MS"), [trace])
        pms = predict(make_config("PMS"), [trace])
        assert pms.cycles < np_result.cycles
        assert ms.cycles < np_result.cycles
        # MS sees every miss at the controller, so its coverage is the
        # cleanest qualitative signal (PMS's PS engine absorbs streams
        # before the MC sees them)
        assert ms.coverage > 0.2
        assert np_result.coverage == 0.0

    def test_emits_fast_namespace_stats(self):
        result = predict(make_config("PMS"), [trace_for("milc")])
        assert any(key.startswith("fast.") for key in result.stats)

    def test_simulate_job_fast_uses_the_trace_cache(self):
        direct = predict(make_config("PMS"), [trace_for("milc")])
        viajob = simulate_job_fast(make_config("PMS"), "milc", ACCESSES, 1)
        assert viajob.cycles == direct.cycles

    def test_accepts_a_bare_trace_like_simulate(self):
        trace = trace_for("milc")
        assert predict(make_config("PMS"), trace) == predict(
            make_config("PMS"), [trace]
        )

    def test_empty_traces_rejected_by_name(self):
        with pytest.raises(ValueError, match="traces"):
            predict(make_config("PMS"), [])


class TestCapacityFilter:
    """The capacity filter runs once per trace, shared by every config."""

    def test_events_of_a_small_trace(self):
        # capacity 2: line 1 is written (dirty), 2 read, 1 hit, 3 read
        # evicts clean 2, 4 read evicts dirty 1 (its write-back first)
        trace = Trace([(0, 1, True), (1, 2, False), (2, 1, False),
                       (0, 3, False), (0, 4, False), (5, 3, False)])
        misses = miss_stream(trace, 2)
        assert list(misses.lines) == [2, 3, 1, 4]
        assert list(misses.writebacks) == [0, 0, 1, 0]
        assert list(misses.advances) == [3, 4, 1, 0]
        assert (misses.misses, misses.tail) == (4, 6)

    def test_configs_share_one_filter_pass(self):
        trace = trace_for("milc")
        predict(make_config("NP"), trace)
        memo = trace.miss_stream
        assert memo is not None
        for name in ("PS", "MS", "PMS"):
            predict(make_config(name), trace)
            assert trace.miss_stream is memo

    @pytest.mark.parametrize("name", ["NP", "PS", "MS", "PMS", "PMS_DEGREE3"])
    def test_shared_filter_gives_a_fresh_trace_result(self, name):
        shared = trace_for("GemsFDTD")
        for other in ("PMS_NEXTLINE", "MS", "NP"):
            predict(make_config(other), shared)
        fresh = Trace(list(shared.records), name=shared.name)
        assert predict(make_config(name), shared) == predict(
            make_config(name), fresh)

    def test_new_capacity_refilters(self):
        trace = trace_for("milc")
        predict(make_config("PMS"), trace)
        before = trace.miss_stream.capacity
        config = make_config("PMS")
        hier = config.hierarchy
        smaller = config.derive(hierarchy=replace(
            hier, l3=replace(hier.l3, size_bytes=hier.l3.size_bytes // 4)))
        fresh = Trace(list(trace.records), name=trace.name)
        assert predict(smaller, trace) == predict(smaller, fresh)
        assert trace.miss_stream.capacity < before


class TestProbes:
    def test_epoch_series_recorded(self):
        probes = EpochProbes()
        predict(make_config("PMS"), [trace_for("milc")], probes=probes)
        assert probes.samples_taken > 0
        rho = probes.get("fast.rho").points()
        assert rho, "no utilisation samples"
        assert all(0.0 <= value < 1.0 for value in rho)
        assert len(probes.get("mc.reads")) == probes.samples_taken

    @pytest.mark.parametrize("name", ["NP", "PS", "MS", "PMS"])
    def test_probes_do_not_change_the_result(self, name):
        # probes record the closed epochs only: the unclosed tail is
        # neither sampled nor counted
        trace = trace_for("milc")
        probes = EpochProbes()
        probed = predict(make_config(name), [trace], probes=probes)
        assert probed == predict(make_config(name), [trace])
        assert probes.samples_taken == probed.stats["fast.epochs"]
        assert probes.sampled_epochs() == list(
            range(1, probed.stats["fast.epochs"] + 1))

    def test_as_dict_is_json_shaped(self):
        probes = EpochProbes()
        predict(make_config("PMS"), [trace_for("milc")], probes=probes)
        doc = series_to_json(probes)
        assert doc["samples_taken"] == probes.samples_taken
        assert "fast.rho" in doc["series"]
        assert all(isinstance(value, list)
                   for value in doc["series"]["fast.slh_bars"]["values"])

    def test_probes_record_one_run(self):
        probes = EpochProbes()
        predict(make_config("PMS"), [trace_for("milc")], probes=probes)
        with pytest.raises(RuntimeError, match="one run"):
            predict(make_config("PMS"), [trace_for("milc")], probes=probes)
        exact = EpochProbes()
        System(make_config("PMS"), [trace_for("milc")],
               tracer=Tracer(enabled=True), probes=exact)
        with pytest.raises(RuntimeError, match="one run"):
            predict(make_config("PMS"), [trace_for("milc")], probes=exact)


class TestBankTables:
    def setup_method(self):
        clear_tables()

    def test_open_page_orders_hit_empty_miss(self):
        table = bank_table(make_config("NP").dram)
        assert table.read_hit < table.read_empty < table.read_miss
        assert table.write_hit < table.write_empty < table.write_miss

    def test_closed_page_collapses_classes(self):
        import dataclasses
        dram = dataclasses.replace(make_config("NP").dram,
                                   page_policy="closed")
        table = bank_table(dram)
        assert table.read_hit == table.read_miss == table.read_empty

    def test_tables_are_cached_by_identity(self):
        dram = make_config("NP").dram
        assert bank_table(dram) is bank_table(dram)
