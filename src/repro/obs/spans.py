"""Span-based wall-clock tracing for the sweep/fabric pipeline.

Where :mod:`repro.obs.metrics` counts *what* happened, spans record
*where the time went*: every unit of work (a sweep, a job, a lease, a
worker execution) becomes one record with a trace id, a span id, an
optional parent span id, a wall-clock start, a duration, and free-form
attributes.  Records from different processes — the pool parent, the
fabric coordinator, remote workers — stitch into one tree as long as
they share trace/parent ids, which the fabric carries on the wire
(protocol v3, see docs/fabric.md).

The collector follows the same disabled-by-default contract as
``NULL_METRICS``: instrumented sites ask
:func:`default_collector`, which resolves to the shared, permanently
disabled :data:`NULL_SPANS` unless the process installed a live
collector (``set_default_collector``, the CLI does) or the environment
exports ``REPRO_SPANS=1``.  ``SpanCollector.span`` on a disabled
collector returns the shared no-op :data:`NULL_SPAN` before any id
generation or clock read, so the off state costs one branch per site.

Finished spans are stored as plain JSON-ready dicts in a bounded deque
(oldest evicted first, evictions counted), which makes fleet ingestion
(:meth:`SpanCollector.ingest`), snapshot export (:func:`write_spans`)
and the Chrome trace-event conversion (:func:`to_chrome_trace`)
operate on one shape.  Wall-clock reads are legitimate here — the span
plane measures the host, not the simulated machine (``repro/obs/`` is
on the DET001 allowlist, see docs/linting.md).
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from collections import deque
from typing import (
    Any,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.common.files import durable_write
from repro.obs.paths import spans_dir

#: Schema version of encoded spans and span snapshot documents.
SPANS_VERSION = 1

#: Default bound of the in-memory collector (finished spans kept).
DEFAULT_CAPACITY = 4096


class SpanError(ValueError):
    """An encoded span (or span context) violates the schema."""


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id."""
    return uuid.uuid4().hex


def _new_span_id() -> str:
    return uuid.uuid4().hex[:16]


# ---------------------------------------------------------------------------
# encoded form


def make_span(
    name: str,
    start_unix: float,
    duration_s: float,
    trace_id: str,
    span_id: Optional[str] = None,
    parent_id: Optional[str] = None,
    status: str = "ok",
    attributes: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Build the encoded (wire/snapshot) form of one finished span."""
    return {
        "name": str(name),
        "trace": str(trace_id),
        "span": span_id if span_id is not None else _new_span_id(),
        "parent": parent_id,
        "start_unix": float(start_unix),
        "duration_s": max(0.0, float(duration_s)),
        "status": str(status),
        "attrs": dict(attributes or {}),
    }


def check_span(document: Any) -> Dict[str, Any]:
    """Validate an encoded span (e.g. off the wire); returns a copy.

    Raises :class:`SpanError` on any shape violation so a skewed or
    malicious worker cannot poison the coordinator's span store.
    """
    if not isinstance(document, Mapping):
        raise SpanError("span must be a JSON object")
    for field_name in ("name", "trace", "span", "status"):
        value = document.get(field_name)
        if not isinstance(value, str) or not value:
            raise SpanError(f"span field '{field_name}' must be a non-empty string")
    parent = document.get("parent")
    if parent is not None and not isinstance(parent, str):
        raise SpanError("span field 'parent' must be a string or null")
    for field_name in ("start_unix", "duration_s"):
        value = document.get(field_name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpanError(f"span field '{field_name}' must be a number")
    attrs = document.get("attrs", {})
    if not isinstance(attrs, Mapping):
        raise SpanError("span field 'attrs' must be an object")
    unknown = set(document) - {
        "name", "trace", "span", "parent", "start_unix", "duration_s",
        "status", "attrs",
    }
    if unknown:
        raise SpanError(f"unknown span fields: {sorted(unknown)}")
    return make_span(
        document["name"], document["start_unix"], document["duration_s"],
        document["trace"], span_id=document["span"], parent_id=parent,
        status=document["status"], attributes=attrs,
    )


def check_context(value: Any, where: str = "trace context") -> Optional[Dict[str, str]]:
    """Validate a wire trace context; returns ``{"trace", "span"}`` or None."""
    if value is None:
        return None
    if not isinstance(value, Mapping):
        raise SpanError(f"{where} must be an object or null")
    trace = value.get("trace")
    span = value.get("span")
    if not isinstance(trace, str) or not trace:
        raise SpanError(f"{where} needs a non-empty 'trace' id")
    if not isinstance(span, str) or not span:
        raise SpanError(f"{where} needs a non-empty 'span' id")
    return {"trace": trace, "span": span}


ParentLike = Union["Span", Mapping[str, Any], None]


def _resolve_parent(parent: ParentLike, trace_id: Optional[str]):
    """``(trace id, parent span id)`` from a Span / context / nothing."""
    if parent is None:
        return (trace_id if trace_id else new_trace_id()), None
    if isinstance(parent, Span):
        return parent.trace_id, parent.span_id
    if isinstance(parent, Mapping):
        trace = parent.get("trace")
        span = parent.get("span")
        if isinstance(trace, str) and trace and isinstance(span, str) and span:
            return trace, span
        raise SpanError("parent context needs 'trace' and 'span' ids")
    raise SpanError(f"cannot parent a span on {type(parent).__name__}")


# ---------------------------------------------------------------------------
# live handles


class Span:
    """A live, in-flight span; finishes into its collector.

    Usable as a context manager — an exception escaping the block
    flips the status to ``"error"`` (and re-raises).
    """

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start_unix",
                 "attributes", "status", "_collector", "_t0", "_done")

    #: Mirrors the metrics guard idiom: sites may skip attribute
    #: computation entirely when the span is the shared null handle.
    enabled = True

    def __init__(self, collector: "SpanCollector", name: str,
                 trace_id: str, parent_id: Optional[str],
                 attributes: Dict[str, Any]):
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self.attributes = attributes
        self.status = "ok"
        self._collector = collector
        self.start_unix = time.time()
        self._t0 = time.perf_counter()
        self._done = False

    def set_attr(self, **attributes: Any) -> "Span":
        self.attributes.update(attributes)
        return self

    def context(self) -> Dict[str, str]:
        """The wire-portable ``{"trace", "span"}`` context of this span."""
        return {"trace": self.trace_id, "span": self.span_id}

    def finish(self, status: Optional[str] = None) -> Optional[Dict[str, Any]]:
        """Record the span (idempotent); returns the encoded form."""
        if self._done:
            return None
        self._done = True
        if status is not None:
            self.status = status
        document = make_span(
            self.name, self.start_unix, time.perf_counter() - self._t0,
            self.trace_id, span_id=self.span_id, parent_id=self.parent_id,
            status=self.status, attributes=self.attributes,
        )
        self._collector.record(document)
        return document

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        self.finish("error" if exc_type is not None else None)
        return False


class _NullSpan:
    """Shared no-op stand-in returned by disabled collectors."""

    __slots__ = ()
    enabled = False
    name = ""
    trace_id = ""
    span_id = ""
    parent_id = None
    status = "ok"

    def set_attr(self, **_attributes: Any) -> "_NullSpan":
        return self

    def context(self) -> None:
        return None

    def finish(self, _status: Optional[str] = None) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, _exc_type, _exc, _tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


# ---------------------------------------------------------------------------
# the collector


class SpanCollector:
    """Bounded, thread-safe store of finished spans (encoded dicts)."""

    def __init__(self, enabled: bool = True, capacity: int = DEFAULT_CAPACITY):
        self.enabled = enabled
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._spans: Deque[Dict[str, Any]] = deque(maxlen=self.capacity)
        self._dropped = 0

    def span(self, name: str, parent: ParentLike = None,
             trace_id: Optional[str] = None, **attributes: Any):
        """Open a live span; no-op handle when the collector is disabled."""
        if not self.enabled:
            return NULL_SPAN
        trace, parent_id = _resolve_parent(parent, trace_id)
        return Span(self, name, trace, parent_id, dict(attributes))

    def add(self, name: str, start_unix: float, duration_s: float,
            parent: ParentLike = None, trace_id: Optional[str] = None,
            status: str = "ok", **attributes: Any) -> Optional[Dict[str, Any]]:
        """Record an already-measured span (e.g. from worker timing stamps)."""
        if not self.enabled:
            return None
        trace, parent_id = _resolve_parent(parent, trace_id)
        document = make_span(name, start_unix, duration_s, trace,
                             parent_id=parent_id, status=status,
                             attributes=attributes)
        self.record(document)
        return document

    def record(self, document: Dict[str, Any]) -> None:
        """Append one encoded span; oldest evicted at capacity."""
        if not self.enabled:
            return
        with self._lock:
            if len(self._spans) == self.capacity:
                self._dropped += 1
            self._spans.append(document)

    def ingest(self, documents: Iterable[Mapping[str, Any]]) -> int:
        """Validate and record remotely-produced spans; returns the count."""
        count = 0
        if not self.enabled:
            return count
        for document in documents:
            self.record(check_span(document))
            count += 1
        return count

    def spans(self) -> List[Dict[str, Any]]:
        """A point-in-time copy of every stored span, oldest first."""
        with self._lock:
            return list(self._spans)

    def since(self, count: int) -> Tuple[List[Dict[str, Any]], int]:
        """Spans recorded after the first ``count``, and the new count.

        The count covers every span ever recorded, evicted ones
        included, so a reader that keeps it as a cursor sees each later
        span once, as long as the collector still holds it.
        """
        with self._lock:
            held = len(self._spans)
            recorded = self._dropped + held
            new = min(held, recorded - count)
            return [self._spans[i] for i in range(held - new, held)], recorded

    @property
    def dropped(self) -> int:
        """Spans evicted because the collector was full."""
        with self._lock:
            return self._dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


#: The shared, permanently disabled collector (the default).
NULL_SPANS = SpanCollector(enabled=False)

_default_lock = threading.Lock()
_default: Optional[SpanCollector] = None
_default_resolved: Optional[SpanCollector] = None


def default_collector() -> SpanCollector:
    """The process-wide collector instrumented sites report to.

    Resolution (cached): ``set_default_collector`` > ``REPRO_SPANS``
    env (any value but ""/"0" enables a live collector) > NULL_SPANS.
    """
    global _default_resolved
    with _default_lock:
        if _default_resolved is None:
            if _default is not None:
                _default_resolved = _default
            elif os.environ.get("REPRO_SPANS", "") not in ("", "0"):
                _default_resolved = SpanCollector(enabled=True)
            else:
                _default_resolved = NULL_SPANS
        return _default_resolved


def set_default_collector(collector: SpanCollector) -> None:
    """Install ``collector`` as the process-wide default (CLI/fleet)."""
    global _default, _default_resolved
    with _default_lock:
        _default = collector
        _default_resolved = collector


def reset_default_collector() -> None:
    """Forget any installed default (tests; CLI teardown)."""
    global _default, _default_resolved
    with _default_lock:
        _default = None
        _default_resolved = None


# ---------------------------------------------------------------------------
# snapshots and export


def write_spans(source: Union[SpanCollector, Iterable[Mapping[str, Any]]],
                directory: Optional[str] = None,
                filename: str = "latest.json") -> str:
    """Atomically dump spans as a versioned JSON snapshot; returns the path.

    Defaults to ``<store-root>/spans/latest.json``, next to the metrics
    snapshot the same run wrote.
    """
    spans = source.spans() if isinstance(source, SpanCollector) else list(source)
    document = {
        "version": SPANS_VERSION,
        "generated_unix": time.time(),
        "spans": spans,
    }
    directory = directory if directory is not None else spans_dir()
    path = os.path.join(directory, filename)
    with durable_write(path) as handle:
        json.dump(document, handle, sort_keys=True)
    return path


def load_spans(path: str) -> List[Dict[str, Any]]:
    """Read a span snapshot back; validates every span."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, Mapping) or "spans" not in document:
        raise SpanError(f"{path} is not a span snapshot")
    return [check_span(span) for span in document["spans"]]


def to_chrome_trace(spans: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Convert spans to Chrome trace-event JSON (Perfetto-loadable).

    Spans land as complete (``"ph": "X"``) events on one process, with
    one named thread lane per distinct ``worker`` attribute (local
    spans share the ``"main"`` lane); timestamps are rebased to the
    earliest span so the viewer opens at t=0.
    """
    ordered = sorted(spans, key=lambda doc: doc["start_unix"])
    base = ordered[0]["start_unix"] if ordered else 0.0
    lanes: Dict[str, int] = {}
    events: List[Dict[str, Any]] = []
    for doc in ordered:
        attrs = dict(doc.get("attrs", {}))
        lane = str(attrs.get("worker", "main"))
        tid = lanes.setdefault(lane, len(lanes) + 1)
        events.append({
            "ph": "X",
            "name": doc["name"],
            "cat": doc["name"].split(".", 1)[0],
            "ts": int(round((doc["start_unix"] - base) * 1e6)),
            "dur": int(round(doc["duration_s"] * 1e6)),
            "pid": 1,
            "tid": tid,
            "args": {**attrs, "trace": doc["trace"], "span": doc["span"],
                     "parent": doc.get("parent"), "status": doc["status"]},
        })
    metadata = [
        {"ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
         "args": {"name": lane}}
        for lane, tid in sorted(lanes.items(), key=lambda item: item[1])
    ]
    return {"displayTimeUnit": "ms", "traceEvents": metadata + events}
