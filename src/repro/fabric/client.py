"""Client API for the fabric coordinator: submit, watch, fetch.

:class:`FabricClient` wraps the coordinator's HTTP API with plain
urllib (no dependencies) and the wire codec from
:mod:`repro.fabric.protocol`.  The worker agent reuses the same
transport for leasing and completion, so every process talks to the
coordinator through one code path.  The fast tier's evidence is not
decided here: a submission sends the fidelity orchestrator's
:func:`~repro.fastsim.orchestrator.validation_plan`, and a fetch
calibrates through its :func:`~repro.fastsim.orchestrator.
calibrate_plan`, so a fleet sweep returns what a local one does.

Error model: a 4xx answer (protocol violation, unknown sweep) raises
:class:`~repro.fabric.protocol.ProtocolError`; anything that looks like
an unreachable or dying coordinator (connection refused, timeouts,
5xx) raises :class:`CoordinatorUnavailable`, which callers treat as
retryable — the agent backs off and retries, ``watch`` keeps polling.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments import store, sweep
from repro.fabric import protocol
from repro.fastsim.gate import CalibrationRecord
from repro.fastsim.orchestrator import calibrate_plan, validation_plan
from repro.obs import spans as obs_spans
from repro.system.results import RunResult


class CoordinatorUnavailable(OSError):
    """The coordinator could not be reached (retryable)."""


def http_json(
    url: str,
    document: Optional[Mapping[str, object]] = None,
    timeout: float = 10.0,
) -> Dict[str, object]:
    """One JSON round-trip: GET when ``document`` is None, else POST."""
    data = (
        None
        if document is None
        else json.dumps(document).encode("utf-8")
    )
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        body = exc.read().decode("utf-8", "replace")
        try:
            message = json.loads(body).get("error", body)
        except ValueError:
            message = body
        if 400 <= exc.code < 500:
            raise protocol.ProtocolError(
                f"{url} -> {exc.code}: {message}"
            ) from None
        raise CoordinatorUnavailable(f"{url} -> {exc.code}: {message}") from None
    except (urllib.error.URLError, TimeoutError, ConnectionError, OSError) as exc:
        raise CoordinatorUnavailable(f"{url}: {exc}") from None
    except ValueError as exc:  # non-JSON body
        raise protocol.ProtocolError(f"{url} answered non-JSON: {exc}") from None


class FabricClient:
    """Talk to one coordinator (``http://host:port``)."""

    def __init__(self, url: str, timeout: float = 10.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout

    def _call(
        self, path: str, document: Optional[Mapping[str, object]] = None
    ) -> Dict[str, object]:
        return http_json(self.url + path, document, timeout=self.timeout)

    # -- submission / watching -----------------------------------------
    def submit(
        self,
        benchmarks: Sequence[str],
        configs: Sequence[str],
        accesses: Optional[int] = None,
        seed: Optional[int] = None,
        threads: int = 1,
        scheduler: str = "ahb",
        priority: int = 0,
        fidelity: str = "exact",
    ) -> Dict[str, object]:
        """Submit a grid: :func:`~repro.experiments.sweep.expand_grid`,
        then :meth:`submit_jobs`.  ``fidelity`` is a per-job tier,
        "exact" or "fast" (docs/fidelity.md); anything else raises
        :class:`ValueError` before a request is sent."""
        return self.submit_jobs(sweep.expand_grid(
            benchmarks, configs, accesses=accesses, seed=seed,
            threads=threads, scheduler=scheduler, fidelity=fidelity,
        ), priority=priority)

    def submit_jobs(
        self, jobs: Sequence[sweep.Job], priority: int = 0
    ) -> Dict[str, object]:
        """Submit jobs; returns the ``sweep_accepted`` document.

        The jobs resolve here, on the submitting host, so env-backed
        defaults (``REPRO_TRACE_ACCESSES``, ``REPRO_SEED``) are this
        host's.  What travels is their
        :func:`~repro.fastsim.orchestrator.validation_plan`: fast jobs
        bring the exact twins a local sweep would run, so the completed
        sweep holds everything :meth:`fetch_calibrated_suite` needs to
        attach error bars.

        When the process has a live span collector, the submission
        opens a ``fabric.submit`` span and sends its context with the
        request, so the coordinator's sweep trace parents under the
        submitting client.
        """
        span = obs_spans.default_collector().span(
            "fabric.submit", coordinator=self.url,
        )
        try:
            plan = validation_plan([job.resolve() for job in jobs])
            reply = self._call("/v1/sweeps", protocol.sweep_request(
                plan, priority=priority, trace=span.context(),
            ))
            protocol.check_envelope(reply, "sweep_accepted")
        except Exception:
            span.finish("error")
            raise
        span.finish()
        return dict(reply)

    def sweep_status(
        self, sweep_id: str, include_results: bool = False
    ) -> Dict[str, object]:
        suffix = "?results=1" if include_results else ""
        return self._call(f"/v1/sweeps/{sweep_id}{suffix}")

    def status(self) -> Dict[str, object]:
        return self._call("/v1/status")

    def health(self) -> Dict[str, object]:
        return self._call("/healthz")

    def progress(self) -> Dict[str, object]:
        return self._call("/progress.json")

    def trace(self) -> Dict[str, object]:
        """The coordinator's span snapshot (``/spans.json``)."""
        return self._call("/spans.json")

    def events(self, timeout: Optional[float] = None):
        """Live SSE stream from ``/events``: yields ``(kind, payload)``.

        Connects to the coordinator's Server-Sent-Events endpoint and
        yields each event as it arrives (keepalive comments are
        skipped).  The generator ends when the server closes the
        stream; connection problems raise
        :class:`CoordinatorUnavailable`.  ``timeout`` bounds the wait
        for each chunk, not the stream's total life.
        """
        request = urllib.request.Request(
            self.url + "/events", headers={"Accept": "text/event-stream"}
        )
        try:
            response = urllib.request.urlopen(
                request, timeout=timeout if timeout is not None else self.timeout
            )
        except (urllib.error.URLError, TimeoutError, ConnectionError,
                OSError) as exc:
            raise CoordinatorUnavailable(f"{self.url}/events: {exc}") from None
        try:
            kind = None
            data_lines: List[str] = []
            for raw in response:
                line = raw.decode("utf-8", "replace").rstrip("\r\n")
                if line.startswith(":"):
                    continue  # keepalive comment
                if line.startswith("event:"):
                    kind = line[len("event:"):].strip()
                elif line.startswith("data:"):
                    data_lines.append(line[len("data:"):].strip())
                elif not line and (kind is not None or data_lines):
                    payload = None
                    if data_lines:
                        try:
                            payload = json.loads("\n".join(data_lines))
                        except ValueError:
                            payload = "\n".join(data_lines)
                    yield (kind or "message", payload)
                    kind = None
                    data_lines = []
        except (TimeoutError, ConnectionError, OSError) as exc:
            raise CoordinatorUnavailable(f"{self.url}/events: {exc}") from None
        finally:
            response.close()

    def watch(
        self,
        sweep_id: str,
        poll_seconds: float = 0.5,
        timeout: Optional[float] = None,
        on_update: Optional[Callable[[Dict[str, object]], None]] = None,
    ) -> Dict[str, object]:
        """Poll until the sweep settles (every job done or failed).

        Transient coordinator outages are retried until ``timeout``
        (None = wait forever); raises :class:`TimeoutError` past it.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                status = self.sweep_status(sweep_id)
            except CoordinatorUnavailable:
                status = None
            if status is not None:
                if on_update is not None:
                    on_update(status)
                if status["progress"]["finished"]:
                    return status
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"sweep {sweep_id} not finished after {timeout}s"
                )
            time.sleep(poll_seconds)

    def fetch_calibrated_suite(
        self, sweep_id: str
    ) -> Tuple[Dict[str, Dict[str, RunResult]], Optional[CalibrationRecord]]:
        """A settled sweep's ``(suite, record)``.

        ``suite`` is shaped like :func:`repro.experiments.runner.
        run_suite`.  The rows pair through
        :func:`~repro.fastsim.orchestrator.calibrate_plan` and each cell
        holds its job's own result, so a fast sweep returns the record
        and stamped results a local ``run_fidelity_sweep(..., "fast")``
        does: the exact twins only calibrate.  An exact sweep's record
        is None.  Results decode through the store codec; a cell whose
        jobs all failed is left out.
        """
        rows = self.sweep_status(sweep_id, include_results=True)["results"]
        jobs = [protocol.decode_job(row["job"]) for row in rows]
        results = [
            store.decode_result(row["result"]) if row.get("result") else None
            for row in rows
        ]
        record = calibrate_plan(jobs, results)
        suite: Dict[str, Dict[str, RunResult]] = {}
        for job, result in zip(jobs, results):
            # rows keep plan order, where the twins follow the jobs: the
            # first result of a cell is its job's own
            if result is not None:
                suite.setdefault(job.benchmark, {}).setdefault(
                    job.config_name, result
                )
        return suite, record

    # -- worker transport (used by the agent) --------------------------
    def lease(
        self, worker: str, capacity: int
    ) -> Tuple[Optional[str], List[Tuple[str, object, Optional[Dict[str, str]]]], float]:
        """Claim a batch: ``(lease id, (key, job, trace ctx) triples, seconds)``."""
        reply = self._call(
            "/v1/lease", protocol.lease_request(worker, capacity)
        )
        return protocol.parse_lease_grant(reply)

    def complete(
        self,
        worker: str,
        lease_id: Optional[str],
        items: Sequence[Mapping[str, object]],
        metrics: Optional[Mapping[str, float]] = None,
        spans: Optional[Sequence[Mapping[str, object]]] = None,
    ) -> Dict[str, object]:
        reply = self._call(
            "/v1/complete",
            protocol.complete_report(worker, lease_id, items, metrics,
                                     spans=spans),
        )
        protocol.check_envelope(reply, "complete_ack")
        return dict(reply)

    def heartbeat(self, worker: str, lease_id: str) -> bool:
        reply = self._call(
            "/v1/heartbeat", protocol.heartbeat(worker, lease_id)
        )
        protocol.check_envelope(reply, "heartbeat_ack")
        return bool(reply.get("alive"))
