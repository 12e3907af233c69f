"""Unit tests for the fabric wire protocol (codec + validation), and
the wire schema every message kind must keep at each protocol version."""

import json

import pytest

from repro.experiments import store, sweep
from repro.fabric import protocol
from repro.fabric.agent import WorkerAgent
from repro.fabric.client import FabricClient
from repro.fabric.coordinator import Coordinator
from repro.fabric.protocol import PROTOCOL_VERSION, ProtocolError
from repro.obs import spans as obs_spans

#: The wire schema per protocol version: the fields of one job, and the
#: fields each message kind carries beyond ``protocol``/``kind``.  A
#: field-set change without a ``PROTOCOL_VERSION`` bump leaves mixed
#: fleets mis-parsing each other, so a change must bump the version and
#: pin the new version's schema here.
WIRE_SCHEMAS = {
    4: {
        "job": ("benchmark", "config", "accesses", "seed", "threads",
                "scheduler", "fidelity"),
        "kinds": {
            "complete_ack": ("accepted", "duplicates", "errors"),
            "complete_report": ("items", "lease", "metrics", "spans",
                                "worker"),
            "heartbeat": ("lease", "worker"),
            "heartbeat_ack": ("alive", "lease"),
            "lease_grant": ("jobs", "lease", "lease_seconds", "trace"),
            "lease_request": ("capacity", "worker"),
            "sweep_accepted": ("deduped", "queued", "sweep", "total"),
            "sweep_request": ("jobs", "priority", "trace"),
        },
    },
}


def resolved_job(**overrides):
    fields = dict(benchmark="milc", config_name="NP", accesses=2000,
                  seed=1, threads=1, scheduler="ahb")
    fields.update(overrides)
    return sweep.Job(**fields)


def captured_submissions(monkeypatch):
    """Route FabricClient's HTTP calls into a list (no coordinator)."""
    sent = []

    def call(self, path, document=None):
        sent.append(document)
        return protocol.envelope("sweep_accepted", sweep="sweep-1",
                                 total=0, deduped=0, queued=0)

    monkeypatch.setattr(FabricClient, "_call", call)
    return sent


class TestEnvelope:
    def test_envelope_carries_version_and_kind(self):
        message = protocol.envelope("heartbeat", worker="w1")
        assert message["protocol"] == PROTOCOL_VERSION
        assert message["kind"] == "heartbeat"
        assert message["worker"] == "w1"

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            protocol.check_envelope([1, 2], "heartbeat")

    def test_version_mismatch_rejected(self):
        stale = protocol.envelope("heartbeat")
        stale["protocol"] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="version mismatch"):
            protocol.check_envelope(stale, "heartbeat")

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ProtocolError, match="expected message kind"):
            protocol.check_envelope(
                protocol.envelope("lease_request"), "heartbeat"
            )


class TestJobCodec:
    def test_round_trip(self):
        job = resolved_job(threads=2, scheduler="in_order")
        assert protocol.decode_job(protocol.encode_job(job)) == job

    def test_unresolved_job_rejected(self):
        # env-backed defaults differ per host, so the wire form must be
        # fully resolved
        with pytest.raises(ProtocolError, match="resolved"):
            protocol.encode_job(resolved_job(accesses=None))
        with pytest.raises(ProtocolError, match="resolved"):
            protocol.encode_job(resolved_job(seed=None))

    def test_job_with_overrides_refused(self):
        # the wire names presets only: a peer would drop the variant
        job = resolved_job(overrides=(("core.mlp", 2),))
        with pytest.raises(ValueError, match="overrides"):
            protocol.encode_job(job)

    def test_unknown_fields_rejected(self):
        payload = protocol.encode_job(resolved_job())
        payload["surprise"] = 1
        with pytest.raises(ProtocolError, match="unknown job fields"):
            protocol.decode_job(payload)

    def test_wrong_types_rejected(self):
        payload = protocol.encode_job(resolved_job())
        payload["accesses"] = "2000"
        with pytest.raises(ProtocolError, match="accesses"):
            protocol.decode_job(payload)

    def test_bool_is_not_an_int(self):
        payload = protocol.encode_job(resolved_job())
        payload["seed"] = True
        with pytest.raises(ProtocolError, match="seed"):
            protocol.decode_job(payload)


class TestSweepRequest:
    def test_grid_form_expands_like_the_sweep_engine(self, monkeypatch):
        # the client expands a grid with the sweep engine's own rule and
        # resolves env-backed defaults on the submitting host
        sent = captured_submissions(monkeypatch)
        monkeypatch.setenv("REPRO_TRACE_ACCESSES", "500")
        FabricClient("http://coordinator").submit(
            ["milc", "tonto"], ["NP", "PS"], seed=3
        )
        jobs, priority = protocol.parse_sweep_request(sent[0])
        assert priority == 0
        assert jobs == sweep.expand_grid(
            ["milc", "tonto"], ["NP", "PS"], accesses=500, seed=3
        )

    def test_grid_fields_without_jobs_are_refused(self):
        request = protocol.envelope(
            "sweep_request", benchmarks=["milc"], configs=["NP"],
            accesses=500, seed=3, priority=0,
        )
        with pytest.raises(ProtocolError, match="jobs"):
            protocol.parse_sweep_request(request)

    def test_version_3_request_is_refused(self):
        request = protocol.sweep_request([resolved_job()])
        request["protocol"] = 3
        with pytest.raises(ProtocolError, match="version mismatch"):
            protocol.parse_sweep_request(request)

    def test_explicit_jobs_form(self):
        request = protocol.envelope(
            "sweep_request",
            jobs=[protocol.encode_job(resolved_job())],
            priority=5,
        )
        jobs, priority = protocol.parse_sweep_request(request)
        assert jobs == [resolved_job()]
        assert priority == 5

    def test_empty_grid_rejected(self):
        with pytest.raises(ProtocolError, match="non-empty"):
            protocol.parse_sweep_request(protocol.sweep_request([]))

    def test_bad_priority_rejected(self):
        request = protocol.sweep_request([resolved_job()])
        request["priority"] = "urgent"
        with pytest.raises(ProtocolError, match="priority"):
            protocol.parse_sweep_request(request)


class TestLeaseMessages:
    def test_lease_request_round_trip(self):
        parsed = protocol.parse_lease_request(
            protocol.lease_request("w1", 4)
        )
        assert parsed == ("w1", 4)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ProtocolError, match=">= 1"):
            protocol.parse_lease_request(protocol.lease_request("w1", 0))

    def test_lease_grant_round_trip(self):
        job = resolved_job()
        grant = protocol.lease_grant("lease-1", [("k1", job, None)], 30.0)
        lease_id, jobs, seconds = protocol.parse_lease_grant(grant)
        assert lease_id == "lease-1"
        assert jobs == [("k1", job, None)]
        assert seconds == 30.0

    def test_lease_grant_carries_trace_context(self):
        job = resolved_job()
        ctx = {"trace": "t" * 32, "span": "s" * 16}
        grant = protocol.lease_grant(
            "lease-1", [("k1", job, ctx)], 30.0, trace=ctx
        )
        _lease_id, jobs, _seconds = protocol.parse_lease_grant(grant)
        assert jobs == [("k1", job, ctx)]
        assert grant["trace"] == ctx

    def test_lease_grant_malformed_trace_rejected(self):
        job = resolved_job()
        grant = protocol.lease_grant("lease-1", [("k1", job, None)], 30.0)
        grant["jobs"][0]["trace"] = {"trace": "only-half"}
        with pytest.raises(ProtocolError, match="trace"):
            protocol.parse_lease_grant(grant)

    def test_empty_grant_means_nothing_queued(self):
        lease_id, jobs, _ = protocol.parse_lease_grant(
            protocol.lease_grant(None, [], 30.0)
        )
        assert lease_id is None
        assert jobs == []


class TestCompleteReport:
    def test_round_trip_with_metrics(self):
        report = protocol.complete_report(
            "w1", "lease-1",
            [{"key": "k1", "result": {"x": 1}, "outcome": "executed",
              "seconds": 0.5, "error": None}],
            metrics={"jobs": 1.0},
        )
        worker, lease_id, items, metrics, spans = (
            protocol.parse_complete_report(report)
        )
        assert (worker, lease_id) == ("w1", "lease-1")
        assert items[0]["key"] == "k1"
        assert items[0]["result"] == {"x": 1}
        assert items[0]["seconds"] == 0.5
        assert metrics == {"jobs": 1.0}
        assert spans == []

    def test_error_item_allowed_without_result(self):
        report = protocol.complete_report(
            "w1", "lease-1", [{"key": "k1", "error": "boom"}]
        )
        _, _, items, _, _ = protocol.parse_complete_report(report)
        assert items[0]["result"] is None
        assert items[0]["error"] == "boom"

    def test_item_needs_result_or_error(self):
        report = protocol.complete_report(
            "w1", "lease-1", [{"key": "k1"}]
        )
        with pytest.raises(ProtocolError, match="neither result nor error"):
            protocol.parse_complete_report(report)

    def test_non_numeric_metrics_dropped(self):
        report = protocol.complete_report(
            "w1", None, [{"key": "k1", "result": {}}],
            metrics={"ok": 2, "bad": "nan-ish", "flag": True},
        )
        _, _, _, metrics, _ = protocol.parse_complete_report(report)
        assert metrics == {"ok": 2.0}

    def test_report_ships_worker_spans(self):
        span = obs_spans.make_span(
            "fabric.execute", 100.0, 0.25, "t" * 32,
            attributes={"worker": "w1"},
        )
        report = protocol.complete_report(
            "w1", "lease-1", [{"key": "k1", "result": {}}], spans=[span]
        )
        _, _, _, _, spans = protocol.parse_complete_report(report)
        assert spans == [span]

    def test_malformed_span_rejected(self):
        report = protocol.complete_report(
            "w1", "lease-1", [{"key": "k1", "result": {}}]
        )
        report["spans"] = [{"name": "fabric.execute"}]
        with pytest.raises(ProtocolError, match="span"):
            protocol.parse_complete_report(report)


class TestTraceOnTheWire:
    """Protocol v3: messages may carry a span context (docs/fabric.md)."""

    def test_sweep_request_carries_submitter_context(self):
        ctx = {"trace": "a" * 32, "span": "b" * 16}
        request = protocol.sweep_request([resolved_job()], trace=ctx)
        assert protocol.trace_context(request) == ctx

    def test_absent_trace_parses_as_none(self):
        request = protocol.sweep_request([resolved_job()])
        assert protocol.trace_context(request) is None

    def test_malformed_trace_rejected(self):
        request = protocol.sweep_request([resolved_job()])
        request["trace"] = {"span": "orphan"}
        with pytest.raises(ProtocolError, match="trace"):
            protocol.trace_context(request)


class TestHeartbeat:
    def test_round_trip(self):
        parsed = protocol.parse_heartbeat(protocol.heartbeat("w1", "lease-9"))
        assert parsed == ("w1", "lease-9")

    def test_missing_lease_rejected(self):
        message = protocol.envelope("heartbeat", worker="w1")
        with pytest.raises(ProtocolError, match="lease"):
            protocol.parse_heartbeat(message)


class TestFidelityOnTheWire:
    """Protocol v2: jobs carry their fidelity tier (docs/fidelity.md)."""

    def test_protocol_version_is_4(self):
        # v2 added fidelity tiers; v3 added trace context + worker span
        # shipping; v4 dropped the grid form of sweep_request — all
        # breaking bumps for older peers
        assert PROTOCOL_VERSION == 4

    def test_fast_job_round_trip(self):
        job = resolved_job(fidelity="fast")
        decoded = protocol.decode_job(protocol.encode_job(job))
        assert decoded == job
        assert decoded.fidelity == "fast"

    def test_missing_fidelity_defaults_to_exact(self):
        payload = protocol.encode_job(resolved_job())
        payload.pop("fidelity", None)
        assert protocol.decode_job(payload).fidelity == "exact"

    def test_unknown_fidelity_rejected(self):
        payload = protocol.encode_job(resolved_job())
        payload["fidelity"] = "approximate"
        with pytest.raises(ProtocolError, match="fidelity"):
            protocol.decode_job(payload)

    def test_sweep_policy_auto_is_not_a_wire_tier(self):
        payload = protocol.encode_job(resolved_job())
        payload["fidelity"] = "auto"
        with pytest.raises(ProtocolError, match="fidelity"):
            protocol.decode_job(payload)

    def test_grid_request_carries_fidelity(self):
        request = protocol.sweep_request(sweep.expand_grid(
            ["milc"], ["NP", "PS"], accesses=2000, seed=1, fidelity="fast"
        ))
        jobs, _priority = protocol.parse_sweep_request(request)
        assert [job.fidelity for job in jobs] == ["fast", "fast"]

    def test_explicit_jobs_form_preserves_mixed_tiers(self):
        jobs = [resolved_job(fidelity="fast"),
                resolved_job(config_name="PS")]
        request = protocol.sweep_request(jobs)
        decoded, _priority = protocol.parse_sweep_request(request)
        assert [job.fidelity for job in decoded] == ["fast", "exact"]


class TestClientSubmitFidelity:
    @pytest.mark.parametrize("fidelity", ["exactt", "auto"])
    def test_unknown_fidelity_is_refused_before_sending(self, monkeypatch,
                                                        fidelity):
        sent = captured_submissions(monkeypatch)
        with pytest.raises(ValueError, match="fidelity.*exact.*fast"):
            FabricClient("http://coordinator").submit(
                ["milc"], ["NP", "PMS"], accesses=500, seed=1,
                fidelity=fidelity,
            )
        assert sent == []

    def test_fast_adds_the_exact_validation_twins(self, monkeypatch):
        from repro.fastsim.gate import FidelityGate

        sent = captured_submissions(monkeypatch)
        FabricClient("http://coordinator").submit(
            ["milc"], ["NP", "PMS"], accesses=500, seed=1, fidelity="fast",
        )
        jobs, _priority = protocol.parse_sweep_request(sent[0])
        tiers = [job.fidelity for job in jobs]
        assert tiers[:2] == ["fast", "fast"]
        assert tiers[2:] == ["exact"] * FidelityGate().sample_size(2)


class InProcessClient(FabricClient):
    """A client whose requests reach a Coordinator through JSON text but
    without HTTP."""

    def __init__(self, coordinator):
        super().__init__("in-process")
        self.routes = {
            "/v1/sweeps": coordinator.submit,
            "/v1/lease": coordinator.lease,
            "/v1/heartbeat": coordinator.heartbeat,
            "/v1/complete": coordinator.complete,
        }

    def _call(self, path, document=None):
        reply = self.routes[path](json.loads(json.dumps(document)))
        return json.loads(json.dumps(reply))


@pytest.fixture(scope="class")
def wire_traffic(tmp_path_factory):
    """Drive a coordinator and a worker through submit, lease, heartbeat
    and complete; return every document ``protocol.envelope`` built and
    every kind ``protocol.check_envelope`` accepted."""
    produced, consumed = [], set()
    envelope, check_envelope = protocol.envelope, protocol.check_envelope

    def recording_envelope(kind, **fields):
        message = envelope(kind, **fields)
        produced.append(message)
        return message

    def recording_check(document, kind):
        checked = check_envelope(document, kind)
        consumed.add(kind)
        return checked

    root = tmp_path_factory.mktemp("wire")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "envelope", recording_envelope)
        patch.setattr(protocol, "check_envelope", recording_check)
        coordinator = Coordinator(
            result_store=store.ResultStore(str(root / "coordinator"))
        )
        client = InProcessClient(coordinator)
        client.submit(["milc"], ["NP", "PMS"], accesses=300, seed=1,
                      fidelity="fast")
        lease_id, jobs, _seconds = client.lease("w0", 1)
        assert client.heartbeat("w0", lease_id) is True
        client.complete("w0", lease_id, [
            {"key": jobs[0][0], "result": None, "error": "injected"},
        ])
        totals = WorkerAgent(
            "in-process", worker_id="w1", client=client, poll_seconds=0.01,
            drain_idle_seconds=0.0,
            result_store=store.ResultStore(str(root / "worker")),
        ).run()
    assert totals["executed"] >= 3 and totals["errors"] == 0
    return produced, consumed


class TestWireSchema:
    """The replies and requests a live fleet exchanges, against the
    schema pinned for this build's ``PROTOCOL_VERSION``."""

    def test_every_kind_produced_is_consumed(self, wire_traffic):
        produced, consumed = wire_traffic
        assert {message["kind"] for message in produced} == consumed

    def test_kinds_match_the_pinned_schema(self, wire_traffic):
        produced, _consumed = wire_traffic
        schema = WIRE_SCHEMAS[PROTOCOL_VERSION]["kinds"]
        assert {message["kind"] for message in produced} == set(schema)

    def test_field_sets_match_the_pinned_schema(self, wire_traffic):
        produced, _consumed = wire_traffic
        schema = WIRE_SCHEMAS[PROTOCOL_VERSION]["kinds"]
        for message in produced:
            fields = sorted(set(message) - {"protocol", "kind"})
            assert tuple(fields) == schema[message["kind"]], message["kind"]

    def test_job_wire_fields_match_the_pinned_schema(self, wire_traffic):
        produced, _consumed = wire_traffic
        job_fields = WIRE_SCHEMAS[PROTOCOL_VERSION]["job"]
        assert protocol._JOB_WIRE_FIELDS == job_fields
        jobs = [job for message in produced if message["kind"] == "sweep_request"
                for job in message["jobs"]]
        jobs += [entry["job"] for message in produced
                 if message["kind"] == "lease_grant" for entry in message["jobs"]]
        assert jobs
        for job in jobs:
            assert tuple(job) == job_fields
