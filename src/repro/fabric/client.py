"""Client API for the fabric coordinator: submit, watch, fetch.

:class:`FabricClient` wraps the coordinator's HTTP API with plain
urllib (no dependencies) and the wire codec from
:mod:`repro.fabric.protocol`.  The worker agent reuses the same
transport for leasing and completion, so every process talks to the
coordinator through one code path.

Error model: a 4xx answer (protocol violation, unknown sweep) raises
:class:`~repro.fabric.protocol.ProtocolError`; anything that looks like
an unreachable or dying coordinator (connection refused, timeouts,
5xx) raises :class:`CoordinatorUnavailable`, which callers treat as
retryable — the agent backs off and retries, ``watch`` keeps polling.
"""

from __future__ import annotations

import dataclasses
import json
import time
import urllib.error
import urllib.request
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments import store, sweep
from repro.fabric import protocol
from repro.fastsim.version import JOB_FIDELITIES
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
        """Submit a grid; returns the ``sweep_accepted`` document.

        The grid expands and resolves here, on the submitting host, so
        env-backed defaults (``REPRO_TRACE_ACCESSES``, ``REPRO_SEED``)
        are this host's.  ``fidelity`` is a per-job tier, "exact" or
        "fast" (docs/fidelity.md): "fast" submits a fast-tier job for
        every cell *plus* the FidelityGate's deterministic exact
        validation sample, so the completed sweep contains everything
        :meth:`fetch_calibrated_suite` needs to attach error bars.
        Anything else raises :class:`ValueError`.

        When the process has a live span collector, the submission
        opens a ``fabric.submit`` span and sends its context with the
        request, so the coordinator's sweep trace parents under the
        submitting client.
        """
        if fidelity not in JOB_FIDELITIES:
            raise ValueError(
                f"fidelity must be one of {JOB_FIDELITIES}, got {fidelity!r}"
            )
        span = obs_spans.default_collector().span(
            "fabric.submit", coordinator=self.url,
        )
        try:
            jobs = [
                job.resolve()
                for job in sweep.expand_grid(
                    benchmarks, configs, accesses=accesses, seed=seed,
                    threads=threads, scheduler=scheduler, fidelity=fidelity,
                )
            ]
            if fidelity == "fast":
                from repro.fastsim.gate import FidelityGate

                keys = [store.job_key(sweep.prepare(job)[1]) for job in jobs]
                jobs += [
                    dataclasses.replace(jobs[i], fidelity="exact")
                    for i in FidelityGate().select(keys)
                ]
            reply = self._call("/v1/sweeps", protocol.sweep_request(
                jobs, priority=priority, trace=span.context(),
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
        """Poll until the sweep finishes (all jobs done or failed).

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
                counts = status.get("counts", {})
                settled = counts.get("done", 0) + counts.get("failed", 0)
                if settled >= status.get("total", 0):
                    return status
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"sweep {sweep_id} not finished after {timeout}s"
                )
            time.sleep(poll_seconds)

    def fetch_results(
        self, sweep_id: str
    ) -> List[Tuple[str, str, Optional[RunResult]]]:
        """``(benchmark, config, result)`` per job, submission order.

        Results decode through the store codec — field-for-field what a
        local run would have produced.  Failed jobs yield None.
        """
        status = self.sweep_status(sweep_id, include_results=True)
        rows = []
        for row in status.get("results", []):
            payload = row.get("result")
            rows.append(
                (
                    row["benchmark"],
                    row["config"],
                    store.decode_result(payload) if payload else None,
                )
            )
        return rows

    def fetch_suite(
        self, sweep_id: str
    ) -> Dict[str, Dict[str, RunResult]]:
        """Results shaped like :func:`repro.experiments.runner.run_suite`.

        When a cell resolved at both tiers (a fast sweep's validation
        sample) the exact result wins — later rows of the same cell
        overwrite earlier ones, and validation jobs are submitted after
        the fast grid.
        """
        suite: Dict[str, Dict[str, RunResult]] = {}
        for benchmark, config, result in self.fetch_results(sweep_id):
            if result is not None:
                suite.setdefault(benchmark, {})[config] = result
        return suite

    def fetch_calibrated_suite(
        self, sweep_id: str
    ) -> Tuple[Dict[str, Dict[str, RunResult]], Optional[object]]:
        """A fast sweep's suite with validated error bars attached.

        Splits the sweep's rows by fidelity tier, calibrates a
        :class:`~repro.fastsim.gate.CalibrationRecord` from every
        (fast, exact) pair of the same cell, stamps the record's error
        bars onto all fast results, and returns ``(suite, record)``
        with exact results preferred per cell.  A sweep with no fast
        rows (or no validation pairs) returns ``record=None``.
        """
        from repro.fastsim.gate import FidelityGate

        fast_rows: Dict[Tuple[str, str], RunResult] = {}
        exact_rows: Dict[Tuple[str, str], RunResult] = {}
        for benchmark, config, result in self.fetch_results(sweep_id):
            if result is None:
                continue
            tier = fast_rows if result.fidelity is not None else exact_rows
            tier[(benchmark, config)] = result
        pairs = [
            (fast_rows[cell], exact_rows[cell])
            for cell in sorted(fast_rows)
            if cell in exact_rows
        ]
        record = None
        if pairs:
            record = FidelityGate().calibrate(pairs)
            for result in fast_rows.values():
                FidelityGate.attach(result, record)
        suite: Dict[str, Dict[str, RunResult]] = {}
        for cell, result in list(fast_rows.items()) + list(exact_rows.items()):
            suite.setdefault(cell[0], {})[cell[1]] = result
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
