"""Unit tests for repro.obs.spans.

Pins the disabled-by-default contract (NULL_SPANS / NULL_SPAN mirrors
NULL_METRICS), the encoded-span schema the fabric ships on the wire,
snapshot round-trips, and the Chrome trace-event export the
``repro obs trace export`` command renders for Perfetto.
"""

import json

import pytest

from repro.obs import spans as obs_spans
from repro.obs.spans import (
    NULL_SPAN,
    NULL_SPANS,
    SpanCollector,
    SpanError,
    check_context,
    check_span,
    load_spans,
    make_span,
    to_chrome_trace,
    write_spans,
)


class TestEncodedForm:
    def test_make_span_shape(self):
        doc = make_span("sweep.job", 100.0, 1.5, "t" * 32,
                        attributes={"benchmark": "milc"})
        assert doc["name"] == "sweep.job"
        assert doc["trace"] == "t" * 32
        assert doc["parent"] is None
        assert doc["start_unix"] == 100.0
        assert doc["duration_s"] == 1.5
        assert doc["status"] == "ok"
        assert doc["attrs"] == {"benchmark": "milc"}
        assert check_span(doc) == doc

    def test_negative_duration_clamped(self):
        assert make_span("x", 0.0, -3.0, "t")["duration_s"] == 0.0

    def test_check_span_rejects_non_object(self):
        with pytest.raises(SpanError, match="JSON object"):
            check_span([1, 2])

    def test_check_span_rejects_missing_ids(self):
        with pytest.raises(SpanError, match="'trace'"):
            check_span({"name": "x", "trace": "", "span": "s",
                        "status": "ok", "start_unix": 0, "duration_s": 0})

    def test_check_span_rejects_bool_number(self):
        doc = make_span("x", 0.0, 1.0, "t")
        doc["duration_s"] = True
        with pytest.raises(SpanError, match="duration_s"):
            check_span(doc)

    def test_check_span_rejects_unknown_fields(self):
        doc = make_span("x", 0.0, 1.0, "t")
        doc["surprise"] = 1
        with pytest.raises(SpanError, match="unknown span fields"):
            check_span(doc)

    def test_check_context(self):
        assert check_context(None) is None
        ctx = {"trace": "t", "span": "s"}
        assert check_context(ctx) == ctx
        with pytest.raises(SpanError, match="'span'"):
            check_context({"trace": "t"})
        with pytest.raises(SpanError, match="object or null"):
            check_context("t/s")


class TestDisabledContract:
    def test_null_collector_returns_null_span(self):
        span = NULL_SPANS.span("sweep.run_jobs", total=4)
        assert span is NULL_SPAN
        assert not span.enabled
        assert span.context() is None
        assert span.set_attr(extra=1) is span
        assert span.finish() is None
        with span:
            pass  # context-manager form is a no-op too
        assert len(NULL_SPANS) == 0

    def test_null_collector_ignores_add_and_ingest(self):
        assert NULL_SPANS.add("x", 0.0, 1.0) is None
        assert NULL_SPANS.ingest([make_span("x", 0.0, 1.0, "t")]) == 0
        assert len(NULL_SPANS) == 0

    def test_default_resolves_to_null_without_optin(self, monkeypatch):
        monkeypatch.delenv("REPRO_SPANS", raising=False)
        obs_spans.reset_default_collector()
        try:
            assert obs_spans.default_collector() is NULL_SPANS
        finally:
            obs_spans.reset_default_collector()

    def test_env_var_enables_live_collector(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPANS", "1")
        obs_spans.reset_default_collector()
        try:
            collector = obs_spans.default_collector()
            assert collector.enabled
            assert collector is not NULL_SPANS
        finally:
            obs_spans.reset_default_collector()

    def test_set_default_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPANS", "0")
        mine = SpanCollector(enabled=True)
        obs_spans.set_default_collector(mine)
        try:
            assert obs_spans.default_collector() is mine
        finally:
            obs_spans.reset_default_collector()


class TestLiveSpans:
    def test_span_records_on_finish_with_parent_chain(self):
        collector = SpanCollector(enabled=True)
        with collector.span("sweep.run_jobs", total=2) as root:
            child = collector.span("sweep.job", parent=root,
                                   benchmark="milc")
            child.finish()
        docs = collector.spans()
        assert [d["name"] for d in docs] == ["sweep.job", "sweep.run_jobs"]
        job, run = docs
        assert job["trace"] == run["trace"]
        assert job["parent"] == run["span"]
        assert run["parent"] is None
        assert run["attrs"] == {"total": 2}

    def test_parent_can_be_wire_context(self):
        collector = SpanCollector(enabled=True)
        ctx = {"trace": "t" * 32, "span": "p" * 16}
        span = collector.span("fabric.sweep", parent=ctx)
        assert span.trace_id == ctx["trace"]
        assert span.parent_id == ctx["span"]

    def test_parent_can_be_full_span_doc(self):
        # add() returns the encoded doc; chaining it as a parent is how
        # the sweep engine builds job -> queue_wait/exec subtrees
        collector = SpanCollector(enabled=True)
        parent_doc = collector.add("sweep.job", 10.0, 2.0)
        child = collector.add("sweep.exec", 10.5, 1.5, parent=parent_doc)
        assert child["trace"] == parent_doc["trace"]
        assert child["parent"] == parent_doc["span"]

    def test_bad_parent_rejected(self):
        collector = SpanCollector(enabled=True)
        with pytest.raises(SpanError, match="parent context"):
            collector.span("x", parent={"trace": "t"})
        with pytest.raises(SpanError, match="cannot parent"):
            collector.span("x", parent=42)

    def test_exception_flips_status_to_error(self):
        collector = SpanCollector(enabled=True)
        with pytest.raises(RuntimeError):
            with collector.span("fabric.submit"):
                raise RuntimeError("boom")
        assert collector.spans()[0]["status"] == "error"

    def test_finish_is_idempotent(self):
        collector = SpanCollector(enabled=True)
        span = collector.span("x")
        assert span.finish() is not None
        assert span.finish() is None
        assert len(collector) == 1

    def test_bounded_with_eviction_count(self):
        collector = SpanCollector(enabled=True, capacity=3)
        for i in range(5):
            collector.add("x", float(i), 0.1)
        assert len(collector) == 3
        assert collector.dropped == 2
        assert [d["start_unix"] for d in collector.spans()] == [2.0, 3.0, 4.0]

    def test_ingest_validates(self):
        collector = SpanCollector(enabled=True)
        good = make_span("fabric.execute", 0.0, 1.0, "t")
        assert collector.ingest([good]) == 1
        with pytest.raises(SpanError):
            collector.ingest([{"name": "bad"}])

    def test_since_reads_each_later_span_once(self):
        # the /events cursor: a count of every span ever recorded, so
        # evicted spans still advance it and held ones are read once
        collector = SpanCollector(enabled=True, capacity=3)
        assert collector.since(0) == ([], 0)
        for i in range(5):
            collector.add("x", float(i), 0.1)
        spans, count = collector.since(0)
        assert [d["start_unix"] for d in spans] == [2.0, 3.0, 4.0]
        assert count == 5
        spans, count = collector.since(4)
        assert [d["start_unix"] for d in spans] == [4.0]
        assert collector.since(count) == ([], 5)
        collector.span("y").finish()
        spans, count = collector.since(count)
        assert [d["name"] for d in spans] == ["y"] and count == 6


class TestSnapshots:
    def test_write_and_load_round_trip(self, tmp_path):
        collector = SpanCollector(enabled=True)
        collector.add("sweep.job", 5.0, 1.0, benchmark="tonto")
        path = write_spans(collector, directory=str(tmp_path))
        assert path == str(tmp_path / "latest.json")
        loaded = load_spans(path)
        assert loaded == collector.spans()
        with open(path) as handle:
            assert json.load(handle)["version"] == obs_spans.SPANS_VERSION

    def test_load_rejects_non_snapshot(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text("[1, 2]")
        with pytest.raises(SpanError, match="span snapshot"):
            load_spans(str(path))

    def test_default_directory_is_spans_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        path = write_spans([])
        assert path == str(tmp_path / "spans" / "latest.json")


class TestChromeTraceExport:
    def test_events_rebased_with_worker_lanes(self):
        trace = "t" * 32
        spans = [
            make_span("fabric.sweep", 100.0, 2.0, trace),
            make_span("fabric.execute", 100.5, 1.0, trace,
                      attributes={"worker": "w1"}),
            make_span("fabric.execute", 100.6, 0.5, trace,
                      attributes={"worker": "w2"}),
        ]
        document = to_chrome_trace(spans)
        events = [e for e in document["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in document["traceEvents"] if e["ph"] == "M"]
        assert [e["ts"] for e in events] == [0, 500000, 600000]
        assert events[0]["dur"] == 2000000
        assert events[0]["cat"] == "fabric"
        assert {e["args"]["name"] for e in meta} == {"main", "w1", "w2"}
        # each distinct lane gets its own tid, shared pid
        assert len({e["tid"] for e in events}) == 3
        assert {e["pid"] for e in events} == {1}

    def test_empty_input(self):
        assert to_chrome_trace([])["traceEvents"] == []
