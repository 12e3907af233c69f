"""Integration tests for the telemetry subsystem against live runs.

Covers the acceptance claims in docs/telemetry.md: a probed run records
every quantity the simulator counts, per epoch window (series plus the
stats counters' window deltas); probe series line up with the
simulator's own state (the SLH decision series must equal the
inequality-(5) verdicts recomputed from the recorded ``lht`` vectors);
and probes flow through the CLI and the experiment runner without
polluting the result store.  Both fidelity tiers record into the same
``EpochProbes``: one stride, one window-delta rule, closed epochs only.
"""

import json

import pytest

from repro.cli import main
from repro.experiments import runner
from repro.fastsim import simulate_job_fast
from repro.system.presets import make_config
from repro.system.simulator import System, simulate
from repro.telemetry import (
    EpochProbes,
    epoch_report,
    series_to_csv,
    series_to_json,
)
from repro.workloads.trace import Trace


def _two_phase_trace(n_streams: int = 60, length: int = 12) -> Trace:
    """Phase 1: long ascending streams.  Phase 2: isolated single reads.

    The phase flip makes the SLH histogram (and hence the inequality-(5)
    decisions) change across epochs, which is what the probe-consistency
    test needs to be meaningful.
    """
    records = []
    base = 0
    for s in range(n_streams):
        for i in range(length):
            records.append((3, base + i, False))
        base += 1024
    for s in range(n_streams * length):
        records.append((3, base + s * 977, False))
    return Trace(records, name="two_phase")


def _small_epoch_config(epoch_reads: int = 200):
    config = make_config("PMS")
    config.ms_prefetcher.slh.epoch_reads = epoch_reads
    return config


class TestTracedRun:
    """A probed run: the epoch hook samples, nothing else is attached."""

    def test_probes_cover_every_former_event_kind(self):
        # epochs, prefetch issue, hits, discards by reason, policy steps,
        # queue depths and DRAM commands each have a series or a stats
        # counter's window deltas, nonzero in some window
        probes = EpochProbes(interval=1)
        result = simulate(_small_epoch_config(), [_two_phase_trace()],
                          probes=probes)
        assert result.telemetry_active
        assert probes.epochs_seen == result.stats["ms.epochs"] > 4
        assert probes.sampled_epochs() == list(range(1, probes.epochs_seen + 1))

        def moved(series):
            return series is not None and any(series.points())

        kinds = {
            "epoch_boundary": [probes.counter("ms.epochs")],
            "prefetch_issued": [probes.get("prefetch.issued")],
            "prefetch_hit": [probes.get("prefetch.buffer_hits"),
                             probes.counter("ms.merged_reads")],
            "prefetch_discard": [probes.counter(name) for name in (
                "lpq.dropped_full", "lpq.dropped_duplicate", "lpq.squashed",
                "pb.evicted_unused", "pb.write_invalidations",
                "ms.completed_cancelled", "core.ps_dropped_queue")],
            "policy_change": [probes.counter("sched.steps_conservative"),
                              probes.counter("sched.steps_aggressive")],
            "queue_depth": [probes.get(f"queue.{q}.avg") for q in (
                "lpq", "caq", "read_queue", "write_queue")],
            "dram_command": [probes.get("dram.reads"), probes.get("dram.writes")],
        }
        for kind, sources in kinds.items():
            assert any(moved(series) for series in sources), kind
        # every window of the epoch counter is exactly one epoch
        assert probes.counter("ms.epochs").points() == [1] * probes.epochs_seen

    def test_untraced_run_attaches_no_telemetry(self):
        result = simulate(_small_epoch_config(), [_two_phase_trace(10, 8)])
        assert not result.telemetry_active
        assert "telemetry" not in result.to_dict()

    def test_slh_decision_series_matches_inequality(self):
        """slh.decision.* must equal lht(k) < 2*lht(k+d) recomputed from
        the recorded lht vectors — the probe reads the same tables the
        engine prefetches from."""
        probes = EpochProbes(interval=1)
        config = _small_epoch_config()
        simulate(config, [_two_phase_trace()], probes=probes)

        degree = config.ms_prefetcher.degree
        checked = 0
        for name in probes.vector_names():
            if not name.startswith("slh.lht."):
                continue
            suffix = name[len("slh.lht."):]
            decisions = dict(probes.get(f"slh.decision.{suffix}").samples())
            for epoch, lht in probes.get(name).samples():
                lm = len(lht) - 1
                expected = tuple(
                    lht[k] < (lht[k + degree] << 1)
                    for k in range(1, lm - degree + 1)
                )
                assert decisions[epoch] == expected
                checked += 1
        assert checked >= 4, "too few SLH samples to be meaningful"
        # the phase flip must actually change some decision vector
        asc = probes.get("slh.decision.t0.asc")
        assert len(set(asc.points())) > 1

    def test_probe_policy_series_matches_boundary_events(self):
        # the scheduler counts each boundary under the policy it adopted
        # there: with one epoch per window, that counter moves by one
        # exactly for the policy the probe sampled
        probes = EpochProbes(interval=1)
        simulate(_small_epoch_config(), [_two_phase_trace()], probes=probes)
        windows = {
            policy: dict(probes.counter(f"sched.epochs_at_policy_{policy}")
                         .samples())
            for policy in range(1, 6)
            if probes.counter(f"sched.epochs_at_policy_{policy}") is not None
        }
        samples = probes.get("policy.index").samples()
        assert len({policy for _, policy in samples}) > 1
        for epoch, policy in samples:
            for other, window in windows.items():
                assert window.get(epoch, 0) == (other == policy), (epoch, other)


class TestProbesNeedNoTracer:
    """The memory-side prefetcher's epoch hook is the only wiring a
    probed run needs."""

    def test_simulate_samples_with_probes_alone(self):
        probes = EpochProbes(interval=1)
        simulate(_small_epoch_config(), [_two_phase_trace()], probes=probes)
        assert probes.samples_taken == probes.epochs_seen > 0
        runner_probes = EpochProbes(interval=2)
        result = runner.simulate_job(make_config("PMS"), "GemsFDTD", 4000, 1,
                                     probes=runner_probes)
        assert runner_probes.samples_taken > 0
        assert result.telemetry == {"probes": runner_probes.summary()}

    def test_system_refuses_a_tracer(self):
        # the keyword stays for callers that pass tracer=None
        System(_small_epoch_config(), [_two_phase_trace(10, 8)], tracer=None)
        with pytest.raises(TypeError, match="tracer"):
            System(_small_epoch_config(), [_two_phase_trace(10, 8)],
                   tracer=object())


#: (benchmark, config) cells both tiers probe, at 8,000 accesses
TIER_CELLS = [(bench, config) for bench in ("GemsFDTD", "milc")
              for config in ("PS", "PMS")]
TIER_INTERVALS = (1, 3)


def _probe_run(tier, bench, config, interval):
    """(probes, result, closed epochs) of one probed run of ``tier``."""
    probes = EpochProbes(interval=interval)
    if tier == "exact":
        result = runner.simulate_job(make_config(config), bench, 8000, 1,
                                     probes=probes)
        return probes, result, int(result.stats.get("ms.epochs", 0))
    result = simulate_job_fast(make_config(config), bench, 8000, 1,
                               probes=probes)
    return probes, result, int(result.stats["fast.epochs"])


@pytest.fixture(scope="module")
def tier_runs():
    return {
        (tier, bench, config, interval): _probe_run(tier, bench, config,
                                                    interval)
        for tier in ("exact", "fast")
        for bench, config in TIER_CELLS
        for interval in TIER_INTERVALS
    }


class TestOneSeriesModel:
    """The exact and fast tiers record into one ``EpochProbes`` schema."""

    def test_both_tiers_sample_every_kth_closed_epoch(self, tier_runs):
        for (tier, bench, config, interval), run in tier_runs.items():
            probes, _result, closed = run
            # closed epochs 1, 1+k, 1+2k, ...; never the unclosed tail
            assert probes.epochs_seen == closed, (tier, bench, config)
            assert probes.sampled_epochs() == list(
                range(1, closed + 1, interval)), (tier, bench, config)
        for bench, _ in TIER_CELLS:
            # not vacuous: under PMS both tiers close several epochs (the
            # exact tier's epochs are the memory-side engine's, so PS
            # closes none there)
            for tier in ("exact", "fast"):
                assert tier_runs[tier, bench, "PMS", 3][2] > 3

    def test_one_name_for_reads_and_fast_names_for_the_rest(self, tier_runs):
        for (tier, bench, config, interval), run in tier_runs.items():
            probes, _result, closed = run
            if closed:
                assert "mc.reads" in probes.series, (tier, bench, config)
            if tier == "fast":
                assert all(name == "mc.reads" or name.startswith("fast.")
                           for name in probes.series), sorted(probes.series)

    def test_reads_are_counted_per_window(self, tier_runs):
        for (tier, bench, config, interval), run in tier_runs.items():
            if interval != 1 or not run[2]:
                continue
            probes, result, _closed = run
            reads = probes.get("mc.reads").points()
            # one epoch's reads each, never a running total: together
            # they are the closed epochs' reads, the tail left out
            assert min(reads) >= 1000, (tier, bench, config, reads)
            assert sum(reads) <= result.stats["mc.reads_arrived"] - (
                result.stats.get("fast.ps_overshoot_reads", 0))
            if tier == "exact":
                assert reads == [1000] * len(reads)
            # a stride of 3 sums the windows it spans
            window = dict(probes.get("mc.reads").samples())
            strided = tier_runs[tier, bench, config, 3][0].get("mc.reads")
            start = 0
            for epoch, value in strided.samples():
                assert value == sum(window[e] for e in range(start + 1,
                                                             epoch + 1))
                start = epoch

    def test_exporters_serve_fast_probes(self, tier_runs, tmp_path):
        probes = tier_runs["fast", "GemsFDTD", "PMS", 1][0]
        rows = series_to_csv(probes, str(tmp_path / "fast.csv"))
        header = (tmp_path / "fast.csv").read_text().splitlines()[0]
        assert rows == probes.samples_taken
        assert "mc.reads" in header.split(",")
        doc = series_to_json(probes, str(tmp_path / "fast.json"))
        assert doc["series"]["fast.slh_bars"]["epochs"] == (
            probes.sampled_epochs())
        report = epoch_report(probes)
        assert str(probes.sampled_epochs()[-1]) in report
        assert "no epochs sampled" not in report


class TestCliTelemetry:
    def test_run_probe_interval_prints_epoch_report(self, capsys):
        assert main([
            "run", "-b", "GemsFDTD", "-n", "4000", "--probe-interval", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "epoch telemetry" in out
        assert "MC cycles" in out

    def test_run_json_includes_telemetry_block(self, capsys):
        assert main([
            "run", "-b", "GemsFDTD", "-n", "4000", "--json",
            "--probe-interval", "2",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        probes = doc["telemetry"]["probes"]
        assert list(doc["telemetry"]) == ["probes"]
        assert probes["interval"] == 2
        assert probes["samples_taken"] > 0

    def test_run_without_flags_has_no_telemetry(self, capsys):
        assert main(["run", "-b", "GemsFDTD", "-n", "2000", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "telemetry" not in doc

    def test_telemetry_subcommand_exports(self, tmp_path, capsys):
        csv_path = tmp_path / "series.csv"
        json_path = tmp_path / "series.json"
        assert main([
            "telemetry", "-b", "GemsFDTD", "-n", "4000",
            "--series-csv", str(csv_path), "--series-json", str(json_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "epoch telemetry" in out
        assert f"series JSON: {json_path}" in out
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("epoch,")
        doc = json.loads(json_path.read_text())
        assert any(n.startswith("slh.lht.") for n in doc["series"])
        assert any(doc["counters"]["lpq.squashed"]["values"])

    def test_compare_probes_each_config_in_process(self, capsys):
        before = runner.cache_info()["simulated"]
        assert main([
            "compare", "-b", "tonto", "-n", "2000", "--probe-interval", "1",
        ]) == 0
        out = capsys.readouterr().out
        # probed runs are simulated on every call and never stored
        assert runner.cache_info()["simulated"] == before + 4
        for config in ("NP", "PS", "MS", "PMS"):
            assert config in out
