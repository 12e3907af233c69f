"""Versioned JSON wire protocol between coordinator, workers, clients.

Every message is a JSON object carrying ``{"protocol": N, "kind": K}``;
:func:`check_envelope` rejects version or kind mismatches up front, so
a skewed peer fails loudly instead of corrupting the queue.

Job identity is *not* negotiated over the wire: both sides derive it
independently.  A job travels as its five resolved fields (benchmark,
config, accesses, seed, threads, scheduler); each side runs it through
:func:`repro.experiments.sweep.prepare`, which rebuilds the
:class:`~repro.common.config.SystemConfig` from the named preset and
fingerprints it into the store spec.  The SHA-256
:func:`repro.experiments.store.job_key` over that spec is therefore
identical on every host running the same code — a worker detecting a
key mismatch against its lease is detecting *code* skew, and reports an
error instead of storing a result under a wrong identity.  Results ride
the store's lossless codec (:func:`~repro.experiments.store.
encode_result`), so a payload computed remotely decodes field-for-field
equal to a local run.

Messages (all ``POST`` bodies/responses; see docs/fabric.md):

* ``sweep_request`` / ``sweep_accepted`` — submit a list of resolved
  jobs; answer with sweep id + dedupe counts.
* ``lease_request`` / ``lease_grant``    — claim up to ``capacity``
  queued jobs under one expiring lease.
* ``complete_report`` / ``complete_ack`` — return executed results
  (or per-job errors) plus a worker-side metrics delta.
* ``heartbeat`` / ``heartbeat_ack``      — extend a lease while a
  batch is still executing.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments import sweep
from repro.fastsim.version import JOB_FIDELITIES
from repro.obs import spans as obs_spans

#: Bumped on any incompatible wire change; both sides refuse mismatches.
#: 2: jobs carry a ``fidelity`` tier ("exact" or "fast") — version-1
#: peers would reject the field, and silently dropping it would execute
#: fast jobs at the wrong tier, so the change is incompatible.
#: 3: distributed span tracing — submissions and lease grants carry a
#: ``trace`` context, lease-grant job entries carry their parenting
#: context, and completion reports ship the worker's finished spans.
#: Dropping these on one side would silently produce severed traces, so
#: the change is incompatible.
#: 4: ``sweep_request`` carries only resolved ``jobs``; the grid form
#: (``benchmarks`` x ``configs`` with env-backed defaults filled in on
#: the coordinator) is gone, so defaults resolve on the submitting host.
#: A v3 grid submission would fail here for lack of ``jobs``, so the
#: version stamp refuses it up front instead.
PROTOCOL_VERSION = 4

#: Job fields as they appear on the wire (store-spec naming).
_JOB_WIRE_FIELDS = ("benchmark", "config", "accesses", "seed", "threads",
                    "scheduler", "fidelity")


class ProtocolError(ValueError):
    """A message that violates the wire protocol (version, shape, type)."""


def envelope(kind: str, **fields: object) -> Dict[str, object]:
    """A new message of ``kind`` with the version stamp applied."""
    message: Dict[str, object] = {"protocol": PROTOCOL_VERSION, "kind": kind}
    message.update(fields)
    return message


def check_envelope(
    document: object, kind: str
) -> Mapping[str, object]:
    """Validate the version stamp and kind; returns the document."""
    if not isinstance(document, Mapping):
        raise ProtocolError(
            f"expected a JSON object, got {type(document).__name__}"
        )
    version = document.get("protocol")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks {version!r}, this "
            f"build speaks {PROTOCOL_VERSION}"
        )
    if document.get("kind") != kind:
        raise ProtocolError(
            f"expected message kind {kind!r}, got {document.get('kind')!r}"
        )
    return document


def _require(document: Mapping[str, object], field: str, types, kind: str):
    value = document.get(field)
    if not isinstance(value, types) or isinstance(value, bool):
        raise ProtocolError(
            f"{kind}.{field} must be {getattr(types, '__name__', types)}, "
            f"got {value!r}"
        )
    return value


def trace_context(
    document: Mapping[str, object], where: str = "trace"
) -> Optional[Dict[str, str]]:
    """The validated span context under a message's ``trace`` field.

    Returns ``{"trace", "span"}`` or None (untraced peers send null);
    a malformed context is a protocol violation, not a span error.
    """
    try:
        return obs_spans.check_context(document.get("trace"), where)
    except obs_spans.SpanError as exc:
        raise ProtocolError(str(exc)) from None


# -- jobs ---------------------------------------------------------------
def encode_job(job: sweep.Job) -> Dict[str, object]:
    """Wire form of one *resolved* job (store-spec field names); the wire
    names presets only, so a job with ``overrides`` is refused."""
    if job.overrides:
        raise ProtocolError(f"job.overrides {job.overrides} cannot go on the wire")
    if job.accesses is None or job.seed is None:
        raise ProtocolError(
            "jobs must be resolved (accesses and seed filled in) before "
            "they go on the wire — env-backed defaults differ per host"
        )
    return {
        "benchmark": job.benchmark,
        "config": job.config_name,
        "accesses": job.accesses,
        "seed": job.seed,
        "threads": job.threads,
        "scheduler": job.scheduler,
        "fidelity": job.fidelity,
    }


def decode_job(payload: object) -> sweep.Job:
    """Inverse of :func:`encode_job`, with field validation.

    ``fidelity`` is optional on the way in (defaulting to "exact") but
    must name a per-job tier — the "auto" *sweep* policy is lowered to
    explicit fast + exact jobs before anything goes on the wire.
    """
    if not isinstance(payload, Mapping):
        raise ProtocolError(f"job must be a JSON object, got {payload!r}")
    unknown = set(payload) - set(_JOB_WIRE_FIELDS)
    if unknown:
        raise ProtocolError(f"unknown job fields: {sorted(unknown)}")
    fidelity = payload.get("fidelity", "exact")
    if fidelity not in JOB_FIDELITIES:
        raise ProtocolError(
            f"job.fidelity must be one of {JOB_FIDELITIES}, got {fidelity!r}"
        )
    return sweep.Job(
        benchmark=_require(payload, "benchmark", str, "job"),
        config_name=_require(payload, "config", str, "job"),
        accesses=_require(payload, "accesses", int, "job"),
        seed=_require(payload, "seed", int, "job"),
        threads=_require(payload, "threads", int, "job"),
        scheduler=_require(payload, "scheduler", str, "job"),
        fidelity=fidelity,
    )


# -- sweep submission ---------------------------------------------------
def sweep_request(
    jobs: Sequence[sweep.Job],
    priority: int = 0,
    trace: Optional[Mapping[str, str]] = None,
) -> Dict[str, object]:
    """A sweep submission: resolved jobs, in any mix of tiers.

    Jobs must be resolved (:func:`encode_job`), so env-backed defaults
    come from the submitting host.  ``trace`` is the submitter's span
    context; the coordinator parents the whole sweep's trace under it
    when present.
    """
    return envelope(
        "sweep_request",
        jobs=[encode_job(job) for job in jobs],
        priority=priority,
        trace=dict(trace) if trace is not None else None,
    )


def parse_sweep_request(
    document: object,
) -> Tuple[List[sweep.Job], int]:
    """Decode a submission into its resolved jobs plus its priority."""
    document = check_envelope(document, "sweep_request")
    priority = document.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ProtocolError(f"priority must be an int, got {priority!r}")
    jobs_field = document.get("jobs")
    if (
        not isinstance(jobs_field, Sequence)
        or isinstance(jobs_field, str)
        or not jobs_field
    ):
        raise ProtocolError(
            "sweep_request.jobs must be a non-empty list of resolved jobs "
            f"(protocol 4 has no benchmarks x configs form), got {jobs_field!r}"
        )
    return [decode_job(item) for item in jobs_field], priority


# -- leasing ------------------------------------------------------------
def lease_request(worker: str, capacity: int) -> Dict[str, object]:
    """A worker's claim for up to ``capacity`` queued jobs."""
    return envelope("lease_request", worker=worker, capacity=capacity)


def parse_lease_request(document: object) -> Tuple[str, int]:
    """Validate a lease request; returns ``(worker, capacity)``."""
    document = check_envelope(document, "lease_request")
    worker = _require(document, "worker", str, "lease_request")
    capacity = _require(document, "capacity", int, "lease_request")
    if capacity < 1:
        raise ProtocolError(f"lease capacity must be >= 1, got {capacity}")
    return worker, capacity


def lease_grant(
    lease_id: Optional[str],
    jobs: Sequence[Tuple[str, sweep.Job, Optional[Mapping[str, str]]]],
    lease_seconds: float,
    trace: Optional[Mapping[str, str]] = None,
) -> Dict[str, object]:
    """``lease_id`` None (with no jobs) means "nothing queued right now".

    Each job entry is ``(key, job, trace context)``; the context (when
    tracing is live) parents the worker's ``fabric.execute`` span under
    the coordinator's sweep trace.  ``trace`` is the context of the
    lease itself.
    """
    return envelope(
        "lease_grant",
        lease=lease_id,
        lease_seconds=lease_seconds,
        jobs=[
            {
                "key": key,
                "job": encode_job(job),
                "trace": dict(ctx) if ctx is not None else None,
            }
            for key, job, ctx in jobs
        ],
        trace=dict(trace) if trace is not None else None,
    )


def parse_lease_grant(
    document: object,
) -> Tuple[
    Optional[str],
    List[Tuple[str, sweep.Job, Optional[Dict[str, str]]]],
    float,
]:
    """Inverse of :func:`lease_grant`: ``(lease id, jobs, seconds)``.

    Jobs come back as ``(key, job, trace context)`` triples; the
    context is None on untraced fleets.
    """
    document = check_envelope(document, "lease_grant")
    lease_id = document.get("lease")
    if lease_id is not None and not isinstance(lease_id, str):
        raise ProtocolError(f"lease id must be a string, got {lease_id!r}")
    jobs_field = document.get("jobs", [])
    if not isinstance(jobs_field, Sequence) or isinstance(jobs_field, str):
        raise ProtocolError("lease_grant.jobs must be a list")
    jobs: List[Tuple[str, sweep.Job, Optional[Dict[str, str]]]] = []
    for item in jobs_field:
        if not isinstance(item, Mapping):
            raise ProtocolError("lease_grant job entry must be an object")
        key = _require(item, "key", str, "lease_grant.jobs")
        jobs.append((
            key,
            decode_job(item.get("job")),
            trace_context(item, "lease_grant.jobs[].trace"),
        ))
    lease_seconds = document.get("lease_seconds", 0.0)
    if not isinstance(lease_seconds, (int, float)) or isinstance(
        lease_seconds, bool
    ):
        raise ProtocolError(
            f"lease_seconds must be a number, got {lease_seconds!r}"
        )
    return lease_id, jobs, float(lease_seconds)


# -- completion ---------------------------------------------------------
def complete_report(
    worker: str,
    lease_id: Optional[str],
    items: Sequence[Mapping[str, object]],
    metrics: Optional[Mapping[str, float]] = None,
    spans: Optional[Sequence[Mapping[str, object]]] = None,
) -> Dict[str, object]:
    """Results of one batch: per-job outcome plus a metrics delta.

    Each item is ``{"key": ..., "result": <encoded>|None, "outcome":
    "executed"|"store", "seconds": float|None, "error": str|None}``.
    ``spans`` are the worker's finished encoded spans for this batch
    (empty on untraced fleets), ingested by the coordinator into the
    fleet-wide trace.
    """
    return envelope(
        "complete_report",
        worker=worker,
        lease=lease_id,
        items=[dict(item) for item in items],
        metrics=dict(metrics) if metrics else {},
        spans=[dict(span) for span in spans] if spans else [],
    )


def parse_complete_report(
    document: object,
) -> Tuple[
    str,
    Optional[str],
    List[Dict[str, object]],
    Dict[str, float],
    List[Dict[str, object]],
]:
    """Validate a batch report: ``(worker, lease, items, metrics, spans)``.

    Every item must carry a result or an error; non-numeric metric
    values are dropped rather than rejected.  Every shipped span must
    pass :func:`repro.obs.spans.check_span` — a skewed worker cannot
    poison the coordinator's trace store.
    """
    document = check_envelope(document, "complete_report")
    worker = _require(document, "worker", str, "complete_report")
    lease_id = document.get("lease")
    if lease_id is not None and not isinstance(lease_id, str):
        raise ProtocolError(f"lease id must be a string, got {lease_id!r}")
    items_field = document.get("items")
    if not isinstance(items_field, Sequence) or isinstance(items_field, str):
        raise ProtocolError("complete_report.items must be a list")
    items: List[Dict[str, object]] = []
    for item in items_field:
        if not isinstance(item, Mapping):
            raise ProtocolError("complete_report item must be an object")
        key = _require(item, "key", str, "complete_report.items")
        result = item.get("result")
        error = item.get("error")
        if result is None and error is None:
            raise ProtocolError(
                f"complete_report item {key} carries neither result nor error"
            )
        if result is not None and not isinstance(result, Mapping):
            raise ProtocolError(f"result for {key} must be an object")
        if error is not None and not isinstance(error, str):
            raise ProtocolError(f"error for {key} must be a string")
        items.append(
            {
                "key": key,
                "result": dict(result) if result is not None else None,
                "error": error,
                "outcome": item.get("outcome", "executed"),
                "seconds": item.get("seconds"),
            }
        )
    metrics_field = document.get("metrics", {})
    if not isinstance(metrics_field, Mapping):
        raise ProtocolError("complete_report.metrics must be an object")
    metrics = {
        str(name): float(value) for name, value in metrics_field.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }
    spans_field = document.get("spans", [])
    if not isinstance(spans_field, Sequence) or isinstance(spans_field, str):
        raise ProtocolError("complete_report.spans must be a list")
    try:
        spans = [obs_spans.check_span(span) for span in spans_field]
    except obs_spans.SpanError as exc:
        raise ProtocolError(f"complete_report.spans: {exc}") from None
    return worker, lease_id, items, metrics, spans


# -- heartbeat ----------------------------------------------------------
def heartbeat(worker: str, lease_id: str) -> Dict[str, object]:
    """A keep-alive extending ``lease_id`` while a batch executes."""
    return envelope("heartbeat", worker=worker, lease=lease_id)


def parse_heartbeat(document: object) -> Tuple[str, str]:
    """Validate a heartbeat; returns ``(worker, lease id)``."""
    document = check_envelope(document, "heartbeat")
    return (
        _require(document, "worker", str, "heartbeat"),
        _require(document, "lease", str, "heartbeat"),
    )
