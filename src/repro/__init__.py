"""repro — Adaptive Stream Detection memory-side prefetching.

A full-system, trace-driven reproduction of Hur & Lin, *"Memory
Prefetching Using Adaptive Stream Detection"* (MICRO 2006): the ASD
prefetcher and Adaptive Scheduling inside a Power5+-style memory
controller, together with every substrate the paper's evaluation needs
— a DDR2 DRAM model with power accounting, a three-level cache
hierarchy, reorder-queue schedulers, a Power5-style processor-side
prefetcher, a first-order core model, and synthetic workload profiles
for the three benchmark suites.

Quickstart::

    from repro import make_config, generate_trace, get_profile, simulate

    profile = get_profile("GemsFDTD")
    trace = generate_trace(profile.workload, n_accesses=20_000, seed=1)
    baseline = simulate(make_config("NP"), trace)
    pms = simulate(make_config("PMS"), trace)
    print(f"PMS vs NP: +{pms.gain_vs(baseline):.1f}%")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced table and figure.
"""

from repro.common.config import (
    AdaptiveSchedulingConfig,
    CacheConfig,
    ControllerConfig,
    CoreConfig,
    DRAMConfig,
    DRAMPowerConfig,
    DRAMTimingConfig,
    HierarchyConfig,
    MemorySidePrefetcherConfig,
    PrefetchBufferConfig,
    ProcessorSidePrefetcherConfig,
    SLHConfig,
    StreamFilterConfig,
    SystemConfig,
)
from repro.common.types import (
    LINE_SIZE,
    CommandKind,
    Direction,
    MemoryCommand,
    Provenance,
)
from repro.prefetch import (
    AdaptiveScheduler,
    LikelihoodTables,
    MemorySidePrefetcher,
    PrefetchBuffer,
    ProcessorSidePrefetcher,
    StreamFilter,
    slh_bars,
)
from repro.system import RunResult, System, make_config, simulate
from repro.telemetry import EpochProbes
from repro.workloads import (
    BENCHMARKS,
    FOCUS_BENCHMARKS,
    SUITES,
    BenchmarkProfile,
    StreamWorkload,
    Trace,
    generate_trace,
    get_profile,
    suite_benchmarks,
)

__version__ = "1.0.0"

__all__ = [
    "AdaptiveScheduler",
    "AdaptiveSchedulingConfig",
    "BENCHMARKS",
    "BenchmarkProfile",
    "CacheConfig",
    "CommandKind",
    "ControllerConfig",
    "CoreConfig",
    "Direction",
    "DRAMConfig",
    "DRAMPowerConfig",
    "DRAMTimingConfig",
    "EpochProbes",
    "FOCUS_BENCHMARKS",
    "HierarchyConfig",
    "LikelihoodTables",
    "LINE_SIZE",
    "MemoryCommand",
    "MemorySidePrefetcher",
    "MemorySidePrefetcherConfig",
    "PrefetchBuffer",
    "PrefetchBufferConfig",
    "ProcessorSidePrefetcher",
    "ProcessorSidePrefetcherConfig",
    "Provenance",
    "RunResult",
    "SLHConfig",
    "StreamFilter",
    "StreamFilterConfig",
    "StreamWorkload",
    "SUITES",
    "System",
    "SystemConfig",
    "Trace",
    "generate_trace",
    "get_profile",
    "make_config",
    "simulate",
    "slh_bars",
    "suite_benchmarks",
]
