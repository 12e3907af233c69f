"""The fabric coordinator: HTTP sweep intake, leasing, fleet obs.

:class:`Coordinator` is the scheduling core: it dedupes every submitted
job (clients expand grids with the sweep engine's
:func:`~repro.experiments.sweep.expand_grid`) against the
content-addressed result store through the shared
:func:`~repro.experiments.sweep.prepare` job key and a store read
(exactly the code path a local ``run_jobs`` uses), queues the rest in
:class:`~repro.fabric.state.CoordinatorState`, and persists every
returned result to the store *before* acknowledging it — which is what
makes coordinator restarts cheap: resubmitting an in-flight sweep to a
fresh coordinator re-dedupes against the store, so only genuinely
unfinished jobs re-queue.

:class:`CoordinatorServer` is the HTTP surface: it subclasses
:class:`~repro.obs.server.ObsServer`, so the whole fleet is observable
through the same ``/metrics`` (Prometheus), ``/healthz`` (plus worker
liveness), and ``/progress`` (the sweeps accepted since the fleet was
last idle, derived from the job table) endpoints a local sweep serves,
and adds the ``/v1/*`` job-submission API:

* ``POST /v1/sweeps``      — submit a grid; answers sweep id + counts
* ``GET  /v1/sweeps/<id>`` — sweep status (``?results=1`` embeds the
  stored result payloads once jobs finish)
* ``POST /v1/lease``       — claim a batch under an expiring lease
* ``POST /v1/complete``    — return results / per-job errors
* ``POST /v1/heartbeat``   — extend a lease mid-batch
* ``GET  /v1/status``      — whole-fleet counts, workers, sweeps

Lease expiry is evaluated lazily on every API call (no timer thread):
a dead worker's jobs re-queue the next time any worker leases or any
client polls.
"""

from __future__ import annotations

import json
import logging
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler
from typing import Dict, List, Optional, Tuple

from repro.experiments import store, sweep
from repro.fabric import protocol
from repro.fabric.state import DONE, FAILED, CoordinatorState, SweepRecord
from repro.obs import spans as obs_spans
from repro.obs.metrics import MetricsRegistry
from repro.obs.server import ObsServer

_log = logging.getLogger("repro.fabric.coordinator")


class Coordinator:
    """Scheduling core shared by the HTTP server and in-process tests.

    All public methods take/return wire documents (plain dicts) and are
    thread-safe behind one lock; :class:`ProtocolError` signals a bad
    request (the server maps it to HTTP 400).
    """

    def __init__(
        self,
        result_store: Optional[store.ResultStore] = None,
        registry: Optional[MetricsRegistry] = None,
        lease_seconds: float = 60.0,
        max_attempts: int = 3,
        clock=None,
        spans: Optional[obs_spans.SpanCollector] = None,
    ) -> None:
        self.store = result_store if result_store is not None else store.get_store()
        # Reap temp files orphaned by writers killed mid-put: the
        # coordinator is the long-lived process, so startup is the
        # natural sweep point.
        removed = self.store.sweep_orphans()
        if removed:
            _log.info("reaped %d orphaned temp file(s) from %s",
                      removed, self.store.root)
        self.registry = (
            registry if registry is not None else MetricsRegistry(enabled=True)
        )
        kwargs = {} if clock is None else {"clock": clock}
        self.state = CoordinatorState(
            lease_seconds=lease_seconds, max_attempts=max_attempts,
            on_settle=self._settled, **kwargs
        )
        # Unlike instrumented *sites*, the coordinator collects spans by
        # default: it is the long-lived fleet process whose /spans.json
        # serves the stitched trace (pass a disabled collector to opt
        # out).
        self.spans = (
            spans if spans is not None else obs_spans.SpanCollector(enabled=True)
        )
        self.lock = threading.RLock()
        #: root spans of the sweeps that have not settled yet
        self._sweep_spans: Dict[str, obs_spans.Span] = {}
        self._sweeps = self.registry.counter(
            "repro_fabric_sweeps_total", "Sweep submissions accepted."
        )
        self._jobs = self.registry.counter(
            "repro_fabric_jobs_total",
            "Fabric job resolutions, by worker and outcome "
            "(executed, store, deduped, error, duplicate).",
            ("worker", "outcome"),
        )
        self._lease_events = self.registry.counter(
            "repro_fabric_lease_events_total",
            "Lease life-cycle events (granted, renewed, expired).",
            ("event",),
        )
        self._job_seconds = self.registry.histogram(
            "repro_fabric_job_seconds",
            "Per-job execution wall time reported by workers.",
            ("worker",),
        )

    # -- API ------------------------------------------------------------
    def submit(self, document: object) -> Dict[str, object]:
        """Accept one ``sweep_request``; dedupe, queue."""
        t0 = time.time()
        jobs, priority = protocol.parse_sweep_request(document)
        submitter_ctx = protocol.trace_context(document)
        with self.lock:
            entries = []
            for job in jobs:
                job, spec, _config = sweep.prepare(job)
                found = self.store.get(spec) is not None
                entries.append((store.job_key(spec), job, spec, found))
            record = self.state.submit(entries, priority=priority)
            # One root span per sweep, parented under the submitter's
            # context when it sent one; stays open until the sweep
            # settles (finished in _settled).
            root = self.spans.span(
                "fabric.sweep", parent=submitter_ctx, sweep=record.id,
                total=len(record.keys), deduped=record.deduped,
            )
            self.spans.add(
                "fabric.submit", t0, time.time() - t0,
                parent=root if root.enabled else None,
                sweep=record.id, jobs=len(record.keys),
            )
            if root.enabled:
                self._sweep_spans[record.id] = root
            if record.settled is not None:  # every job was done or failed
                self._settled(record)
        self._sweeps.inc()
        if record.deduped:
            self._jobs.inc(record.deduped, worker="coordinator",
                           outcome="deduped")
        queued = len(record.keys) - record.deduped
        _log.info("accepted %s: %d job(s), %d deduped, %d queued",
                  record.id, len(record.keys), record.deduped, queued)
        return protocol.envelope(
            "sweep_accepted",
            sweep=record.id,
            total=len(record.keys),
            deduped=record.deduped,
            queued=queued,
        )

    def lease(self, document: object) -> Dict[str, object]:
        """Grant a batch to a worker (empty grant when queue is dry)."""
        t0 = time.time()
        worker, capacity = protocol.parse_lease_request(document)
        with self.lock:
            self._expire_locked()
            lease = self.state.lease(worker, capacity)
            if lease is None:
                return protocol.lease_grant(
                    None, [], self.state.lease_seconds
                )
            entries = [(key, self.state.jobs[key].job,
                        self.state.jobs[key].sweeps)
                       for key in lease.keys]
            # The lease span lives in the trace of the first leased
            # job's sweep; every job in the batch executes under it, so
            # submit -> lease -> execute -> report stitches into one
            # tree (a rare mixed-sweep batch shares the first trace).
            sweep_ctx = None
            for _key, _job, sweep_ids in entries:
                sweep_ctx = self._sweep_ctx_locked(sweep_ids)
                if sweep_ctx is not None:
                    break
            lease_doc = self.spans.add(
                "fabric.lease", t0, time.time() - t0, parent=sweep_ctx,
                worker=worker, lease=lease.id, jobs=len(entries),
            )
            if lease_doc is not None and sweep_ctx is not None:
                lease.trace = {"trace": lease_doc["trace"],
                               "span": lease_doc["span"]}
            jobs = [(key, job, lease.trace) for key, job, _sweeps in entries]
        self._lease_events.inc(event="granted")
        _log.debug("granted %s to %s: %d job(s)",
                   lease.id, worker, len(jobs))
        return protocol.lease_grant(lease.id, jobs, self.state.lease_seconds,
                                    trace=lease.trace)

    def _sweep_ctx_locked(
        self, sweep_ids: List[str]
    ) -> Optional[Dict[str, str]]:
        """The span context of the first still-open sweep root, if any."""
        for sweep_id in sweep_ids:
            span = self._sweep_spans.get(sweep_id)
            if span is not None:
                return span.context()
        return None

    def heartbeat(self, document: object) -> Dict[str, object]:
        worker, lease_id = protocol.parse_heartbeat(document)
        with self.lock:
            alive = self.state.renew(lease_id, worker)
        if alive:
            self._lease_events.inc(event="renewed")
        return protocol.envelope("heartbeat_ack", lease=lease_id, alive=alive)

    def complete(self, document: object) -> Dict[str, object]:
        """Ingest one batch of results; persist before acknowledging."""
        t0 = time.time()
        worker, lease_id, items, metrics, worker_spans = (
            protocol.parse_complete_report(document)
        )
        # Read now: detaching a lease's last key deletes the lease.
        with self.lock:
            lease = self.state.leases.get(lease_id)
            lease_ctx = lease.trace if lease is not None else None
        accepted = duplicates = errors = 0
        for item in items:
            key = item["key"]
            if item["error"] is not None:
                with self.lock:
                    verdict = self.state.fail(key, worker, item["error"])
                errors += 1
                self._jobs.inc(worker=worker, outcome="error")
                _log.warning("job %s failed on %s (%s): %s",
                             key, worker, verdict, item["error"])
                continue
            try:
                result = store.decode_result(item["result"])
            except (KeyError, TypeError, ValueError) as exc:
                raise protocol.ProtocolError(
                    f"undecodable result for job {key}: {exc}"
                ) from None
            with self.lock:
                entry = self.state.jobs.get(key)
                if entry is None:
                    duplicates += 1
                    self._jobs.inc(worker=worker, outcome="unknown")
                    continue
                # Persist first: state is rebuilt from the store after a
                # coordinator restart, so the store must never lag it.
                self.store.put(entry.spec, result)
                outcome = item.get("outcome")
                outcome = "store" if outcome == "store" else "executed"
                seconds = item.get("seconds")
                if not isinstance(seconds, (int, float)):
                    seconds = None
                verdict = self.state.complete(key, worker, outcome, seconds)
                if verdict == "first":
                    accepted += 1
                    self._jobs.inc(worker=worker, outcome=outcome)
                    if seconds is not None:
                        self._job_seconds.observe(float(seconds), worker=worker)
                else:
                    duplicates += 1
                    self._jobs.inc(worker=worker, outcome="duplicate")
        if metrics:
            self._fold_worker_metrics(worker, metrics)
        if worker_spans:
            self.spans.ingest(worker_spans)
        self.spans.add(
            "fabric.report", t0, time.time() - t0, parent=lease_ctx,
            worker=worker, accepted=accepted, duplicates=duplicates,
            errors=errors,
        )
        return protocol.envelope(
            "complete_ack",
            accepted=accepted,
            duplicates=duplicates,
            errors=errors,
        )

    def _settled(self, record: SweepRecord) -> None:
        """Finish a settled sweep's root span, ``error`` if a job failed."""
        root = self._sweep_spans.pop(record.id, None)
        if root is not None:
            root.finish("error" if record.tally.counts[FAILED] else None)

    def _fold_worker_metrics(
        self, worker: str, metrics: Dict[str, float]
    ) -> None:
        """Aggregate a worker-side metrics delta into the fleet registry."""
        counter = self.registry.counter(
            "repro_fabric_worker_metric_total",
            "Worker-reported metric deltas, labelled by worker and name.",
            ("worker", "metric"),
        )
        for name, value in sorted(metrics.items()):
            counter.inc(value, worker=worker, metric=name)

    def _expire_locked(self) -> None:
        requeued = self.state.expire_leases()
        if requeued:
            self._lease_events.inc(len(requeued), event="expired")
            _log.warning("%d job(s) re-queued from expired lease(s)",
                         len(requeued))

    # -- views ----------------------------------------------------------
    def status(self) -> Dict[str, object]:
        with self.lock:
            self._expire_locked()
            return {
                "jobs": self.state.counts(),
                "sweeps": {
                    sweep_id: self.state.sweep_status(sweep_id)
                    for sweep_id in self.state.sweeps
                },
                "workers": self.state.workers_view(),
                "queue_depth": self.state.counts()["queued"],
            }

    def sweep_status(
        self, sweep_id: str, include_results: bool = False
    ) -> Optional[Dict[str, object]]:
        with self.lock:
            self._expire_locked()
            status = self.state.sweep_status(sweep_id)
            if status is None:
                return None
            status["progress"] = self.state.progress(
                [self.state.sweeps[sweep_id]]
            )
            if include_results:
                status["results"] = self._results_locked(sweep_id)
        return status

    def _results_locked(self, sweep_id: str) -> List[Dict[str, object]]:
        """Per-job rows for a sweep, submission order: each job's wire
        form, with its stored payload where done."""
        record = self.state.sweeps[sweep_id]
        rows: List[Dict[str, object]] = []
        for key in record.keys:
            entry = self.state.jobs[key]
            row: Dict[str, object] = {
                "key": key,
                "job": protocol.encode_job(entry.job),
                "benchmark": entry.job.benchmark,
                "config": entry.job.config_name,
                "status": entry.status,
                "error": entry.error,
            }
            if entry.status == DONE:
                result = self.store.get(entry.spec)
                row["result"] = (
                    store.encode_result(result) if result is not None else None
                )
            rows.append(row)
        return rows

    def fleet_progress(self) -> Dict[str, object]:
        """Progress of the sweeps accepted since the fleet was last idle
        (``/progress``): counts sum, finished once every one settled."""
        with self.lock:
            self._expire_locked()
            return self.state.progress(self.state.window)

    def sweeps_since(self, count: int) -> Tuple[List[Dict[str, object]], int]:
        """Submissions accepted after the first ``count`` (``/events``
        ``sweep`` payloads), and the number accepted so far."""
        with self.lock:
            records, accepted = self.state.sweeps_since(count)
        return [
            {"sweep": record.id, "total": len(record.keys),
             "deduped": record.deduped,
             "queued": len(record.keys) - record.deduped}
            for record in records
        ], accepted


class CoordinatorServer(ObsServer):
    """HTTP front end: obs endpoints + the ``/v1`` submission API."""

    def __init__(
        self,
        coordinator: Coordinator,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(
            registry=coordinator.registry,
            host=host,
            port=port,
            spans=coordinator.spans,
        )
        self.coordinator = coordinator

    def _progress_snapshot(self) -> Dict[str, object]:
        return self.coordinator.fleet_progress()

    def _sweeps_since(
        self, count: int
    ) -> Tuple[List[Dict[str, object]], int]:
        return self.coordinator.sweeps_since(count)

    def health_extra(self) -> Dict[str, object]:
        coordinator = self.coordinator
        with coordinator.lock:
            coordinator._expire_locked()
            return {
                "role": "fabric-coordinator",
                "workers": coordinator.state.workers_view(),
                "jobs": coordinator.state.counts(),
                "sweeps": len(coordinator.state.sweeps),
            }

    # -- routing --------------------------------------------------------
    _POST_ROUTES = {
        "/v1/sweeps": "submit",
        "/v1/lease": "lease",
        "/v1/complete": "complete",
        "/v1/heartbeat": "heartbeat",
    }

    def _handle_post(
        self, handler: BaseHTTPRequestHandler, path: str
    ) -> bool:
        method = self._POST_ROUTES.get(path)
        if method is None:
            return False
        try:
            document = self._read_json(handler)
            reply = getattr(self.coordinator, method)(document)
        except protocol.ProtocolError as exc:
            self._respond_json(handler, 400, {"error": str(exc)})
            return True
        self._respond_json(handler, 200, reply)
        return True

    def _handle_get(self, handler: BaseHTTPRequestHandler, path: str) -> bool:
        if path == "/v1/status":
            self._respond_json(handler, 200, self.coordinator.status())
            return True
        if path.startswith("/v1/sweeps/"):
            sweep_id = path[len("/v1/sweeps/"):]
            query = urllib.parse.urlparse(handler.path).query
            include_results = (
                urllib.parse.parse_qs(query).get("results", ["0"])[0]
                not in ("0", "", "false")
            )
            status = self.coordinator.sweep_status(
                sweep_id, include_results=include_results
            )
            if status is None:
                self._respond_json(
                    handler, 404, {"error": f"unknown sweep {sweep_id}"}
                )
            else:
                self._respond_json(handler, 200, status)
            return True
        return False

    @staticmethod
    def _read_json(handler: BaseHTTPRequestHandler) -> object:
        try:
            length = int(handler.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            length = 0
        raw = handler.rfile.read(length) if length > 0 else b""
        if not raw:
            raise protocol.ProtocolError("empty request body")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise protocol.ProtocolError(f"request body is not JSON: {exc}")


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    lease_seconds: float = 60.0,
    max_attempts: int = 3,
) -> Tuple[Coordinator, CoordinatorServer]:
    """Build a coordinator + server pair bound to ``host:port``."""
    coordinator = Coordinator(
        lease_seconds=lease_seconds, max_attempts=max_attempts
    )
    server = CoordinatorServer(coordinator, host=host, port=port)
    return coordinator, server
