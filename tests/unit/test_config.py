"""Unit tests for repro.common.config validation and derivation."""

from dataclasses import replace

import pytest

from repro.common.config import (
    AdaptiveSchedulingConfig,
    CacheConfig,
    ControllerConfig,
    DRAMConfig,
    DRAMPowerConfig,
    DRAMTimingConfig,
    MemorySidePrefetcherConfig,
    PrefetchBufferConfig,
    ProcessorSidePrefetcherConfig,
    SLHConfig,
    StreamFilterConfig,
    SystemConfig,
)


class TestDRAMTiming:
    def test_defaults_valid(self):
        DRAMTimingConfig().validate()

    def test_trc_must_cover_tras_trp(self):
        with pytest.raises(ValueError, match="t_rc"):
            DRAMTimingConfig(t_rc=10, t_ras=12, t_rp=4).validate()

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            DRAMTimingConfig(t_rcd=0).validate()


class TestDRAMConfig:
    def test_total_banks(self):
        assert DRAMConfig(ranks=2, banks_per_rank=8).total_banks == 16

    def test_invalid_ranks(self):
        with pytest.raises(ValueError):
            DRAMConfig(ranks=0).validate()

    def test_invalid_row_lines(self):
        with pytest.raises(ValueError):
            DRAMConfig(row_lines=0).validate()


class TestDRAMPowerConfig:
    def test_defaults_valid(self):
        DRAMPowerConfig().validate()

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            DRAMPowerConfig(e_read_nj=-1).validate()


class TestCacheConfig:
    def test_derived_geometry(self):
        cfg = CacheConfig(32 * 1024, 4, latency=1)
        assert cfg.num_lines == 256
        assert cfg.num_sets == 64

    def test_size_not_multiple_of_line(self):
        with pytest.raises(ValueError):
            CacheConfig(1000, 2, latency=1).validate()

    def test_smaller_than_one_set(self):
        with pytest.raises(ValueError):
            CacheConfig(128, 4, latency=1).validate()

    def test_non_power_of_two_sets_allowed(self):
        # the Power5+ L2 is 10-way; sets need not be a power of two
        CacheConfig(160 * 1024, 10, latency=13).validate()


class TestStreamFilterConfig:
    def test_defaults_valid(self):
        StreamFilterConfig().validate()

    def test_zero_slots_rejected(self):
        with pytest.raises(ValueError):
            StreamFilterConfig(slots=0).validate()

    def test_bad_lifetime_unit(self):
        with pytest.raises(ValueError, match="lifetime_unit"):
            StreamFilterConfig(lifetime_unit="days").validate()

    def test_cpu_unit_accepted(self):
        StreamFilterConfig(lifetime_unit="cpu", lifetime_init=3000).validate()


class TestSLHConfig:
    def test_defaults_valid(self):
        SLHConfig().validate()

    def test_table_too_short(self):
        with pytest.raises(ValueError):
            SLHConfig(table_len=1).validate()

    def test_zero_epoch(self):
        with pytest.raises(ValueError):
            SLHConfig(epoch_reads=0).validate()


class TestPrefetchBufferConfig:
    def test_paper_size_is_two_kb(self):
        cfg = PrefetchBufferConfig()
        assert cfg.entries == 16  # 16 x 128 B = 2 KB

    def test_entries_multiple_of_assoc(self):
        with pytest.raises(ValueError):
            PrefetchBufferConfig(entries=10, assoc=4).validate()


class TestAdaptiveSchedulingConfig:
    def test_fixed_policy_range(self):
        with pytest.raises(ValueError):
            AdaptiveSchedulingConfig(fixed_policy=6).validate()

    def test_threshold_ordering(self):
        with pytest.raises(ValueError):
            AdaptiveSchedulingConfig(
                raise_threshold=5, lower_threshold=10
            ).validate()


class TestMemorySidePrefetcherConfig:
    def test_engines(self):
        for engine in ("asd", "nextline", "p5"):
            MemorySidePrefetcherConfig(engine=engine).validate()

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            MemorySidePrefetcherConfig(engine="oracle").validate()

    def test_degree_must_be_positive(self):
        with pytest.raises(ValueError):
            MemorySidePrefetcherConfig(degree=0).validate()

    def test_asd_degree_must_stay_below_table_len(self):
        # inequality (6) reads lht(k + degree): degree 15 is the largest
        # a 16-entry table supports
        MemorySidePrefetcherConfig(degree=15).validate()
        with pytest.raises(ValueError, match=r"ms_prefetcher\.degree.*slh\.table_len"):
            MemorySidePrefetcherConfig(degree=16).validate()
        with pytest.raises(ValueError, match="degree=4, table_len=4"):
            MemorySidePrefetcherConfig(degree=4, slh=SLHConfig(table_len=4)).validate()
        # the other engines keep no Likelihood Tables
        MemorySidePrefetcherConfig(engine="nextline", degree=16).validate()

    def test_out_of_range_degree_fails_before_any_run(self):
        from repro.fastsim.model import simulate_job_fast
        from repro.system.presets import make_config
        from repro.system.simulator import System
        from repro.workloads.trace import Trace

        config = make_config("MS")
        config = config.derive(ms_prefetcher=replace(config.ms_prefetcher, degree=16))
        trace = Trace([(0, line, False) for line in range(64)])
        with pytest.raises(ValueError, match=r"ms_prefetcher\.degree"):
            System(config, trace)
        with pytest.raises(ValueError, match=r"ms_prefetcher\.degree"):
            simulate_job_fast(config, "bwaves", 200, 1)


class TestProcessorSideConfig:
    def test_paper_table_sizes(self):
        cfg = ProcessorSidePrefetcherConfig()
        assert cfg.detect_entries == 12
        assert cfg.max_streams == 8

    def test_lead_ordering(self):
        with pytest.raises(ValueError):
            ProcessorSidePrefetcherConfig(l1_lead=3, l2_lead=2).validate()

    def test_ramp_bounds(self):
        with pytest.raises(ValueError):
            ProcessorSidePrefetcherConfig(ramp=9, l2_lead=4).validate()


class TestControllerConfig:
    def test_caq_depth_is_three(self):
        assert ControllerConfig().caq_depth == 3

    def test_unknown_scheduler(self):
        with pytest.raises(ValueError):
            ControllerConfig(scheduler="magic").validate()

    def test_drain_threshold_range(self):
        with pytest.raises(ValueError):
            ControllerConfig(
                write_drain_threshold=99, write_queue_depth=8
            ).validate()


class TestSystemConfig:
    def test_default_validates(self):
        SystemConfig().validate()

    def test_validate_returns_self(self):
        cfg = SystemConfig()
        assert cfg.validate() is cfg

    def test_derive_replaces_field(self):
        cfg = SystemConfig().derive(name="x")
        assert cfg.name == "x"

    def test_derive_does_not_mutate_original(self):
        cfg = SystemConfig(name="orig")
        cfg.derive(name="new")
        assert cfg.name == "orig"

    def test_threads_must_be_positive(self):
        with pytest.raises(ValueError):
            SystemConfig(threads=0).validate()

    def test_with_overrides_replaces_nested_fields(self):
        cfg = SystemConfig()
        new = cfg.with_overrides([("ms_prefetcher.slh.epoch_reads", 500),
                                  ("dram.timing.burst_cycles", 6)])
        assert new.ms_prefetcher.slh.epoch_reads == 500
        assert new.dram.timing.burst_cycles == 6
        assert cfg.ms_prefetcher.slh.epoch_reads == 1000  # copy-on-write
        assert cfg.dram.timing.burst_cycles == 4
        assert new.hierarchy is cfg.hierarchy  # untouched blocks shared

    def test_with_overrides_names_the_path_of_a_bad_value(self):
        with pytest.raises(ValueError, match="core.mlp"):
            SystemConfig().with_overrides([("core.mlp", 0)])
        with pytest.raises(ValueError, match="core.mlp"):
            SystemConfig().with_overrides([("core.mlp", True)])

    def test_invalid_nested_config_caught(self):
        bad = SystemConfig()
        bad = bad.derive(core=replace(bad.core, cpu_ratio=0))
        with pytest.raises(ValueError):
            bad.validate()
