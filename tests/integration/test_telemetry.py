"""Integration tests for the telemetry subsystem against live runs.

Covers the acceptance claims in docs/telemetry.md: a traced run emits
the full event catalogue as parseable JSONL; probe series line up with
the simulator's own state (the SLH decision series must equal the
inequality-(5) verdicts recomputed from the recorded ``lht`` vectors);
and telemetry flows through the CLI and the experiment runner without
polluting the run cache.
"""

import gc
import json

import pytest

from repro.cli import main
from repro.experiments import runner
from repro.system.presets import make_config
from repro.system.simulator import System, simulate
from repro.telemetry import (
    NULL_TRACER,
    EpochProbes,
    TelemetrySession,
    Tracer,
    read_events_jsonl,
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
    def test_event_log_covers_the_catalogue(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        session = TelemetrySession(trace_events=path, probe_interval=1)
        result = simulate(
            _small_epoch_config(), [_two_phase_trace()],
            tracer=session.tracer, probes=session.probes,
        )
        session.close()

        assert result.telemetry_active
        events = read_events_jsonl(path)
        kinds = {e.kind for e in events}
        for kind in ("epoch_boundary", "prefetch_issued", "prefetch_hit",
                     "prefetch_discard", "policy_change", "dram_command",
                     "queue_depth"):
            assert kind in kinds, f"missing {kind}"
        assert len(events) == session.tracer.total_events

        boundaries = [e for e in events if e.kind == "epoch_boundary"]
        assert [b.epoch for b in boundaries] == list(
            range(1, len(boundaries) + 1)
        )
        times = [e.t for e in events]
        assert times == sorted(times)

    def test_untraced_run_attaches_no_telemetry(self):
        result = simulate(_small_epoch_config(), [_two_phase_trace(10, 8)])
        assert not result.telemetry_active
        assert "telemetry" not in result.to_dict()

    def test_slh_decision_series_matches_inequality(self):
        """slh.decision.* must equal lht(k) < 2*lht(k+d) recomputed from
        the recorded lht vectors — the probe reads the same tables the
        engine prefetches from."""
        tracer = Tracer()
        probes = EpochProbes(interval=1)
        config = _small_epoch_config()
        simulate(config, [_two_phase_trace()], tracer=tracer, probes=probes)

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

    def test_probe_policy_series_matches_boundary_events(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        session = TelemetrySession(trace_events=path, probe_interval=1)
        simulate(
            _small_epoch_config(), [_two_phase_trace()],
            tracer=session.tracer, probes=session.probes,
        )
        session.close()
        by_epoch = {
            e.epoch: e.policy
            for e in read_events_jsonl(path)
            if e.kind == "epoch_boundary"
        }
        for epoch, policy in session.probes.get("policy.index").samples():
            assert by_epoch[epoch] == policy


class TestProbesNeedATracer:
    """Probes sample on the tracer's epoch events: without an enabled
    tracer they would record nothing, and binding them to the shared
    NULL_TRACER would keep every such System alive for the process."""

    @staticmethod
    def _held():
        """(sinks on NULL_TRACER, live System objects)."""
        gc.collect()
        sinks = len(NULL_TRACER._global_sinks) + sum(
            len(sinks) for sinks in NULL_TRACER._kind_sinks.values()
        )
        return sinks, sum(isinstance(o, System) for o in gc.get_objects())

    def test_simulate_refuses_probes_without_enabled_tracer(self):
        before = self._held()
        for tracer in (None, Tracer(enabled=False)):
            with pytest.raises(ValueError, match="probes"):
                simulate(_small_epoch_config(), [_two_phase_trace(10, 8)],
                         tracer=tracer, probes=EpochProbes())
        with pytest.raises(ValueError, match="probes"):
            runner.run("tonto", "PMS", accesses=500, probes=EpochProbes())
        assert self._held() == before

    def test_probes_with_enabled_tracer_still_sample(self):
        probes = EpochProbes(interval=1)
        simulate(_small_epoch_config(), [_two_phase_trace()],
                 tracer=Tracer(), probes=probes)
        assert probes.samples_taken > 0


class TestRunnerCache:
    def test_traced_request_never_served_from_cache(self):
        runner.clear_cache()
        try:
            plain = runner.run("tonto", "PMS", accesses=1500)
            assert runner.cache_info()["simulated"] == 1
            tracer = Tracer()
            traced = runner.run("tonto", "PMS", accesses=1500, tracer=tracer)
            assert runner.cache_info()["simulated"] == 2
            assert traced.telemetry_active
            assert not plain.telemetry_active
            assert tracer.total_events > 0
            # traced results themselves are not stored
            again = Tracer()
            runner.run("tonto", "PMS", accesses=1500, tracer=again)
            assert runner.cache_info()["simulated"] == 3
            assert again.total_events == tracer.total_events
        finally:
            runner.clear_cache()

    def test_disabled_tracer_still_cacheable(self):
        runner.clear_cache()
        try:
            plain = runner.run("tonto", "PMS", accesses=1500)
            again = runner.run(
                "tonto", "PMS", accesses=1500, tracer=Tracer(enabled=False)
            )
            assert again == plain
            assert runner.cache_info()["simulated"] == 1
        finally:
            runner.clear_cache()


class TestCliTelemetry:
    def test_run_trace_events_writes_parseable_jsonl(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        assert main([
            "run", "-b", "GemsFDTD", "-n", "4000",
            "--trace-events", str(path), "--probe-interval", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "telemetry" in out
        assert "epoch telemetry" in out
        kinds = set()
        with open(path) as fh:
            for line in fh:
                kinds.add(json.loads(line)["kind"])
        for kind in ("epoch_boundary", "prefetch_issued", "prefetch_hit",
                     "prefetch_discard", "policy_change"):
            assert kind in kinds

    def test_run_json_includes_telemetry_block(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        assert main([
            "run", "-b", "GemsFDTD", "-n", "4000", "--json",
            "--trace-events", str(path),
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        telemetry = doc["telemetry"]
        assert telemetry["tracer"]["total_events"] > 0
        assert telemetry["events_written"] > 0

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
        assert "events:" in out
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("epoch,")
        doc = json.loads(json_path.read_text())
        assert any(n.startswith("slh.lht.") for n in doc["series"])

    def test_compare_splits_event_logs_per_config(self, tmp_path, capsys):
        base = tmp_path / "cmp.jsonl"
        assert main([
            "compare", "-b", "tonto", "-n", "2000",
            "--trace-events", str(base),
        ]) == 0
        for config in ("NP", "PS", "MS", "PMS"):
            per_config = tmp_path / f"cmp.{config}.jsonl"
            assert per_config.exists(), config
            first = json.loads(per_config.read_text().splitlines()[0])
            assert "kind" in first
