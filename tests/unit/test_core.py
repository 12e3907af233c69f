"""Unit tests for the trace-driven core model."""


from repro.cache.hierarchy import CacheHierarchy
from repro.common.config import (
    CacheConfig,
    ControllerConfig,
    CoreConfig,
    DRAMConfig,
    HierarchyConfig,
    MemorySidePrefetcherConfig,
    ProcessorSidePrefetcherConfig,
)
from repro.controller.controller import MemoryController
from repro.cpu.core import Core
from repro.dram.device import DRAMDevice
from repro.prefetch.memory_side import MemorySidePrefetcher
from repro.prefetch.processor_side import ProcessorSidePrefetcher
from repro.workloads.trace import Trace


def build_core(records, ps_enabled=False, mlp=2, threads_records=None):
    hierarchy = CacheHierarchy(
        HierarchyConfig(
            l1=CacheConfig(256, 2, latency=1),
            l2=CacheConfig(512, 2, latency=10),
            l3=CacheConfig(1024, 2, latency=50),
        )
    )
    ms = MemorySidePrefetcher(MemorySidePrefetcherConfig(enabled=False))
    controller = MemoryController(ControllerConfig(), DRAMDevice(DRAMConfig()), ms)
    ps = ProcessorSidePrefetcher(
        ProcessorSidePrefetcherConfig(enabled=ps_enabled, l1_lead=1, l2_lead=2, ramp=1)
    )
    traces = (
        [Trace(r) for r in threads_records]
        if threads_records
        else [Trace(records)]
    )
    core = Core(CoreConfig(mlp=mlp), hierarchy, ps, controller, traces)
    return core, controller


def drive(core, controller, limit=100_000):
    now = 0
    while not (core.done and controller.idle()):
        controller.tick(now)
        core.tick(now)
        now += 1
        if now > limit:
            raise AssertionError("core failed to finish")
    return now


class TestExecution:
    def test_empty_gap_trace_finishes(self):
        core, mc = build_core([(0, 100, False)])
        drive(core, mc)
        assert core.done

    def test_instruction_count(self):
        core, mc = build_core([(9, 100, False), (4, 200, False)])
        drive(core, mc)
        # gaps (9+4) plus one instruction per access
        assert core.retired_instructions == 15

    def test_pure_compute_time(self):
        # one access plus a long gap: time is dominated by the gap
        core, mc = build_core([(8000, 100, False)])
        cycles = drive(core, mc)
        assert cycles >= 8000 // CoreConfig().cpu_ratio

    def test_misses_issue_to_controller(self):
        core, mc = build_core([(0, 100, False), (0, 200, False)])
        drive(core, mc)
        assert mc.stats["reads_demand"] == 2

    def test_cache_hit_issues_nothing(self):
        core, mc = build_core([(0, 100, False), (0, 100, False)])
        drive(core, mc)
        assert mc.stats["reads_demand"] == 1

    def test_stores_do_not_read_memory(self):
        core, mc = build_core([(0, 100, True)])
        drive(core, mc)
        assert mc.stats["reads_demand"] == 0

    def test_mlp_blocks_at_limit(self):
        records = [(0, line * 10, False) for line in range(8)]
        core, mc = build_core(records, mlp=1)
        now = 0
        for now in range(3):
            mc.tick(now)
            core.tick(now)
        # with mlp=1 only one demand read can be outstanding
        assert mc.stats["reads_demand"] <= 1


class TestMerging:
    def test_duplicate_outstanding_line_not_reissued(self):
        core, mc = build_core([(0, 100, False), (0, 100, False)], mlp=4)
        drive(core, mc)
        assert mc.stats["reads_demand"] == 1
        assert core.stats["demand_merged"] >= 0  # second access hit after fill


class TestWritebackPath:
    def test_dirty_evictions_reach_controller(self):
        # write-validate many conflicting stores: dirty lines cascade out
        records = [(0, line * 2, True) for line in range(40)]
        core, mc = build_core(records)
        drive(core, mc)
        assert mc.stats["writes_arrived"] > 0


class TestPSIntegration:
    def test_ps_prefetches_reach_controller(self):
        records = [(0, 100 + i, False) for i in range(6)]
        core, mc = build_core(records, ps_enabled=True)
        drive(core, mc)
        assert mc.stats["reads_ps"] > 0

    def test_ps_fills_caches(self):
        records = [(20, 100 + i, False) for i in range(8)]
        core, mc = build_core(records, ps_enabled=True)
        drive(core, mc)
        assert core.stats["ps_fills"] > 0

    def test_ps_prefetch_reduces_demand_misses(self):
        records = [(30, 100 + i, False) for i in range(30)]
        base_core, base_mc = build_core(records, ps_enabled=False)
        drive(base_core, base_mc)
        ps_core, ps_mc = build_core(records, ps_enabled=True)
        drive(ps_core, ps_mc)
        assert ps_mc.stats["reads_demand"] < base_mc.stats["reads_demand"]


class TestSMT:
    def test_two_threads_finish(self):
        a = [(2, 100 + i, False) for i in range(5)]
        b = [(2, 9000 + 2 * i, False) for i in range(5)]
        core, mc = build_core(None, threads_records=[a, b])
        drive(core, mc)
        assert core.done
        assert mc.stats["reads_demand"] == 10

    def test_budget_split_between_threads(self):
        a = [(80, 100, False)]
        b = [(80, 9000, False)]
        core, mc = build_core(None, threads_records=[a, b])
        assert core.budget_per_thread == CoreConfig().cpu_ratio // 2
