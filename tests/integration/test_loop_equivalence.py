"""Golden equality: the event-driven loop against the per-cycle oracle.

The ``reference`` main-loop mode is the literal per-cycle tick — the
executable specification.  The ``event`` mode fast-forwards
deterministic waits and must land on a field-for-field identical
:class:`~repro.system.results.RunResult` (cycles, instructions, every
stat, power) for every benchmark character, config, and thread count —
and, in a seeded sample of regimes, under the config overrides the
defaults never reach (refresh deadlines, closed pages, long bursts,
other queue depths and schedulers, CPU-clock stream lifetimes).
"""

import random

import pytest

from repro import generate_trace, get_profile, make_config
from repro.system.simulator import (
    LOOP_MODES,
    System,
    default_loop_mode,
    resolve_loop_mode,
    simulate,
)
from repro.telemetry.probes import EpochProbes
from repro.workloads.profiles import SUITES

#: First benchmark of each suite: streaming FP, NAS kernel, commercial.
BENCHMARKS = tuple(names[0] for names in SUITES.values())

CONFIGS = ("NP", "PS", "MS", "PMS")

ACCESSES = 700


def _traces(benchmark, threads, seed=11):
    profile = get_profile(benchmark)
    return [
        generate_trace(profile.workload, ACCESSES, seed=seed + t)
        for t in range(threads)
    ]


def _run(config_name, traces, loop):
    config = make_config(config_name, threads=len(traces))
    system = System(config, traces)
    result = system.run(loop=loop)
    return system, result


@pytest.mark.parametrize("threads", (1, 2))
@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("bench", BENCHMARKS)
def test_event_loop_matches_reference(bench, config_name, threads):
    traces = _traces(bench, threads)
    _, ref = _run(config_name, traces, "reference")
    system, evt = _run(config_name, traces, "event")
    assert evt == ref  # RunResult equality is field-for-field
    # not vacuous: the event loop actually fast-forwarded
    assert system.loop_stats["jumps"] > 0
    assert system.loop_stats["cycles_skipped"] > 0
    assert (
        system.loop_stats["ticks_executed"]
        + system.loop_stats["cycles_skipped"]
        == evt.cycles
    )


@pytest.mark.parametrize("loop", LOOP_MODES)
def test_ticks_integral_covers_all_cycles(loop):
    # occupancy averages divide by mc.ticks: it must count every
    # simulated cycle, fast-forwarded ones included
    traces = _traces(BENCHMARKS[0], 1)
    _, result = _run("PMS", traces, loop)
    assert result.stats["mc.ticks"] == result.cycles


@pytest.mark.parametrize("loop", LOOP_MODES)
def test_max_cycles_raises_in_both_modes(loop):
    traces = _traces(BENCHMARKS[0], 1)
    config = make_config("PMS", threads=1)
    with pytest.raises(RuntimeError, match="exceeded"):
        System(config, traces).run(max_cycles=500, loop=loop)


def test_event_mode_never_overshoots_cap():
    # the cap must fire even when it lands inside a fast-forward window
    traces = _traces(BENCHMARKS[0], 1)
    config = make_config("PMS", threads=1)
    system = System(config, traces)
    with pytest.raises(RuntimeError, match="exceeded"):
        system.run(max_cycles=500, loop="event")
    assert system.now <= 501


@pytest.mark.parametrize("threads,interval", [
    pytest.param(1, 1, id="1"),
    pytest.param(2, 1, id="2"),
    pytest.param(1, 3, id="1-interval3"),
    pytest.param(2, 3, id="2-interval3"),
])
def test_probe_series_identical_across_modes(threads, interval):
    # EpochProbes reads the mc.ticks / mc.occ_* integrals mid-run, at
    # every sampled epoch boundary: the event loop must hold them exact
    # there, not only at the end of the run, whatever the stride
    traces = [
        generate_trace(get_profile("GemsFDTD").workload, 8000, seed=1 + t)
        for t in range(threads)
    ]
    series = {}
    for loop in LOOP_MODES:
        probes = EpochProbes(interval=interval)
        config = make_config("PMS", threads=threads)
        System(config, traces, probes=probes).run(loop=loop)
        series[loop] = {
            name: s.samples() for name, s in probes.series.items()
        }
    assert series["event"] == series["reference"]
    # not vacuous: several epochs, and every queue was occupied
    averages = [
        [value for _, value in samples]
        for name, samples in series["event"].items()
        if name.startswith("queue.") and name.endswith(".avg")
    ]
    assert len(averages) == 4
    sampled = list(range(1, probes.epochs_seen + 1, interval))
    assert probes.epochs_seen > 4 and probes.sampled_epochs() == sampled
    assert all(len(values) == len(sampled) and max(values) > 0
               for values in averages)


def test_resolve_loop_mode_validates():
    assert resolve_loop_mode(None) == default_loop_mode()
    assert resolve_loop_mode("reference") == "reference"
    with pytest.raises(ValueError, match="unknown loop mode"):
        resolve_loop_mode("turbo")


def test_env_default_loop_mode(monkeypatch):
    monkeypatch.setenv("REPRO_LOOP", "reference")
    assert default_loop_mode() == "reference"
    assert resolve_loop_mode(None) == "reference"


def test_simulate_passes_loop_through():
    traces = _traces(BENCHMARKS[0], 1)
    config = make_config("MS", threads=1)
    ref = simulate(config, traces, loop="reference")
    evt = simulate(config, traces, loop="event")
    assert ref == evt


# -- a seeded sample of regimes -----------------------------------------

#: configs the regime sample draws from
REGIME_CONFIGS = ("NP", "PS", "MS", "PMS", "PMS_POLICY1", "PMS_POLICY3",
                  "PMS_POLICY5", "PMS_NEXTLINE", "PMS_P5MC", "PMS_DEGREE4")

#: override families, each a list of alternative settings
REGIME_OVERRIDES = {
    "refresh": [(("dram.timing.t_refi", 150),), (("dram.timing.t_refi", 300),)],
    "closed_page": [(("dram.page_policy", "closed"),)],
    "burst6": [(("dram.timing.burst_cycles", 6),)],
    "caq_depth": [(("controller.caq_depth", 1),), (("controller.caq_depth", 8),)],
    "mlp": [(("core.mlp", 2),), (("core.mlp", 4),)],
    "scheduler": [(("controller.scheduler", "in_order"),),
                  (("controller.scheduler", "memoryless"),)],
    "lpq1": [(("ms_prefetcher.lpq_depth", 1),)],
    "epoch300": [(("ms_prefetcher.slh.epoch_reads", 300),)],
    "cpu_lifetimes": [(
        ("ms_prefetcher.stream_filter.lifetime_unit", "cpu"),
        ("ms_prefetcher.stream_filter.lifetime_init", 400),
        ("ms_prefetcher.stream_filter.lifetime_increment", 400),
        ("ms_prefetcher.stream_filter.lifetime_cap", 3200),
    )],
}

REGIME_BENCHMARKS = ("milc", "GemsFDTD", "bt", "tpcc")

REGIME_ACCESSES = 1500


def _regime_sample(cells=24, seed=31):
    """``(label, benchmark, config, threads, overrides)`` per cell.

    Each override family leads in every ninth cell, so all of them are
    drawn; the second family, every value, the config, the thread count
    and the benchmark come from a seeded generator.
    """
    rng = random.Random(seed)
    families = sorted(REGIME_OVERRIDES)
    sample = []
    for i in range(cells):
        first = families[i % len(families)]
        second = rng.choice([f for f in families if f != first])
        overrides = tuple(
            setting
            for family in (first, second)
            for setting in rng.choice(REGIME_OVERRIDES[family])
        )
        bench = rng.choice(REGIME_BENCHMARKS)
        config_name = rng.choice(REGIME_CONFIGS)
        threads = rng.choice((1, 2))
        label = f"{bench}-{config_name}-{threads}-{first}+{second}"
        sample.append((label, bench, config_name, threads, overrides))
    return sample


REGIME_SAMPLE = _regime_sample()


def _regime_run(bench, config_name, threads, overrides, loop, probes=None):
    traces = [
        generate_trace(get_profile(bench).workload, REGIME_ACCESSES, seed=1 + t)
        for t in range(threads)
    ]
    config = make_config(config_name, threads=threads).with_overrides(overrides)
    return System(config, traces, probes=probes).run(loop=loop)


@pytest.mark.parametrize(
    "bench,config_name,threads,overrides",
    [cell[1:] for cell in REGIME_SAMPLE],
    ids=[cell[0] for cell in REGIME_SAMPLE],
)
def test_event_loop_matches_reference_across_regimes(bench, config_name,
                                                     threads, overrides):
    ref = _regime_run(bench, config_name, threads, overrides, "reference")
    evt = _regime_run(bench, config_name, threads, overrides, "event")
    assert evt == ref
    if any(path == "dram.timing.t_refi" for path, _ in overrides):
        # not vacuous: the event loop met its refresh-deadline path
        assert evt.stats["dram.refreshes"] > 0


def test_regime_sample_draws_every_family():
    drawn = {path for cell in REGIME_SAMPLE for path, _ in cell[4]}
    assert drawn == {path for family in REGIME_OVERRIDES.values()
                     for settings in family for path, _ in settings}
    assert {cell[2] for cell in REGIME_SAMPLE} == set(REGIME_CONFIGS)
    assert {cell[3] for cell in REGIME_SAMPLE} == {1, 2}


def test_probe_series_identical_across_modes_under_overrides():
    # refresh deadlines and 300-read epochs: the probes sample mid-run
    # while the event loop catches up refreshes lazily
    overrides = (("dram.timing.t_refi", 150),
                 ("ms_prefetcher.slh.epoch_reads", 300))
    recorded = {}
    for loop in LOOP_MODES:
        probes = EpochProbes(interval=1)
        result = _regime_run("GemsFDTD", "PMS", 2, overrides, loop, probes)
        recorded[loop] = (
            result,
            {name: s.samples() for name, s in probes.series.items()},
            {name: s.samples() for name, s in probes.counters.items()},
        )
    assert recorded["event"] == recorded["reference"]
    result, series, counters = recorded["event"]
    assert result.stats["dram.refreshes"] > 0
    assert len(series["policy.index"]) == result.stats["ms.epochs"] > 4
    assert any(value for _, value in counters["dram.refreshes"])
