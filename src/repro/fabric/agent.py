"""The fabric worker agent: lease, simulate, report, repeat.

:class:`WorkerAgent` wraps the exact execution path a local sweep uses
— :func:`repro.experiments.sweep.prepare` for identity, a read of the
local result store, :func:`repro.experiments.sweep.compute_job` to
actually simulate (dispatching exact jobs to the cycle-accurate
simulator and fast jobs to :mod:`repro.fastsim`) — so a result computed
by a fabric worker is field-for-field the result a serial ``run_suite``
would produce, stored under the same SHA-256 key.

Robustness:

* **heartbeats** — while a batch executes, a daemon thread renews the
  lease every ``lease_seconds / 3``, so long jobs on live workers never
  expire; a killed worker stops heartbeating and its lease re-queues;
* **graceful drain** — SIGTERM/SIGINT (or :meth:`request_drain`)
  finishes the current batch, reports it, and exits instead of
  abandoning leased work;
* **retry/backoff** — while the coordinator is unreachable the agent
  sleeps with exponential backoff (capped) and retries; a computed
  batch is retried a few times before being dropped (the results are
  already in the worker's local store, so the re-queued jobs resolve as
  instant store hits on the next lease);
* **key verification** — a job whose locally-derived store key differs
  from the leased key is reported as an error (code-version skew), not
  executed under a wrong identity.
"""

from __future__ import annotations

import logging
import os
import signal
import socket
import threading
from time import perf_counter
from time import time as _wall_time
from typing import Dict, List, Mapping, Optional

from repro.experiments import store, sweep
from repro.fabric.client import CoordinatorUnavailable, FabricClient
from repro.fabric.protocol import ProtocolError
from repro.obs import spans as obs_spans

_log = logging.getLogger("repro.fabric.agent")


class WorkerAgent:
    """One worker process's lease-execute-report loop."""

    def __init__(
        self,
        coordinator_url: str,
        worker_id: Optional[str] = None,
        capacity: int = 2,
        poll_seconds: float = 1.0,
        backoff_max_seconds: float = 30.0,
        drain_idle_seconds: Optional[float] = None,
        client: Optional[FabricClient] = None,
        result_store: Optional[store.ResultStore] = None,
    ) -> None:
        self.client = client if client is not None else FabricClient(coordinator_url)
        self.worker_id = (
            worker_id
            if worker_id is not None
            else f"{socket.gethostname()}-{os.getpid()}"
        )
        self.capacity = max(1, capacity)
        self.poll_seconds = poll_seconds
        self.backoff_max_seconds = backoff_max_seconds
        #: Exit after this long with an empty queue (None = run forever).
        self.drain_idle_seconds = drain_idle_seconds
        self.store = (
            result_store if result_store is not None else store.active_store()
        )
        self._stop = threading.Event()
        self.totals: Dict[str, int] = {
            "executed": 0, "store": 0, "errors": 0, "batches": 0,
            "dropped_batches": 0,
        }

    # -- lifecycle ------------------------------------------------------
    def request_drain(self) -> None:
        """Finish the current batch, then exit the run loop."""
        self._stop.set()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT -> graceful drain (main thread only)."""
        def _drain(signum, frame):
            _log.info("worker %s draining on signal %d",
                      self.worker_id, signum)
            self.request_drain()

        signal.signal(signal.SIGTERM, _drain)
        signal.signal(signal.SIGINT, _drain)

    # -- main loop ------------------------------------------------------
    def run(self) -> Dict[str, int]:
        """Lease and execute batches until drained; returns totals."""
        _log.info("worker %s serving %s (capacity %d)",
                  self.worker_id, self.client.url, self.capacity)
        backoff = self.poll_seconds
        idle_elapsed = 0.0
        while not self._stop.is_set():
            try:
                lease_id, jobs, lease_seconds = self.client.lease(
                    self.worker_id, self.capacity
                )
            except CoordinatorUnavailable as exc:
                _log.warning("coordinator unreachable (%s); retrying in %.1fs",
                             exc, backoff)
                if self._stop.wait(backoff):
                    break
                backoff = min(backoff * 2, self.backoff_max_seconds)
                continue
            except ProtocolError:
                _log.exception("protocol error talking to the coordinator; "
                               "worker cannot proceed")
                raise
            backoff = self.poll_seconds
            if not jobs:
                if (
                    self.drain_idle_seconds is not None
                    and idle_elapsed >= self.drain_idle_seconds
                ):
                    _log.info("worker %s idle for %.1fs; draining",
                              self.worker_id, idle_elapsed)
                    break
                if self._stop.wait(self.poll_seconds):
                    break
                idle_elapsed += self.poll_seconds
                continue
            idle_elapsed = 0.0
            self._run_batch(lease_id, jobs, lease_seconds)
        _log.info("worker %s drained: %s", self.worker_id, self.totals)
        return dict(self.totals)

    # -- batch execution ------------------------------------------------
    def _run_batch(self, lease_id, jobs, lease_seconds) -> None:
        """Execute one leased batch under a heartbeat, then report it."""
        stop_heartbeat = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(lease_id, lease_seconds, stop_heartbeat),
            name=f"fabric-heartbeat-{self.worker_id}",
            daemon=True,
        )
        heartbeat.start()
        items: List[Dict[str, object]] = []
        batch_spans: List[Dict[str, object]] = []
        try:
            for key, job, ctx in jobs:
                items.append(self._execute(key, job, ctx, batch_spans))
        finally:
            stop_heartbeat.set()
            heartbeat.join(timeout=5)
        self.totals["batches"] += 1
        self._report(lease_id, items, batch_spans)

    def _execute(
        self,
        key: str,
        job: sweep.Job,
        ctx: Optional[Mapping[str, str]] = None,
        batch_spans: Optional[List[Dict[str, object]]] = None,
    ) -> Dict[str, object]:
        """One job: verify identity, read through, simulate if needed.

        When the lease carries a trace context (``ctx``), each executed
        job appends a finished ``fabric.execute`` span to
        ``batch_spans`` — parented under the coordinator's lease span —
        for the completion report to ship home.
        """
        start_wall = _wall_time()
        try:
            job, spec, config = sweep.prepare(job)
            local_key = store.job_key(spec)
            if local_key != key:
                raise ProtocolError(
                    f"job key mismatch: leased {key}, derived {local_key} "
                    "(worker and coordinator run different code?)"
                )
            found = self.store.get(spec)
            if found is not None:
                self.totals["store"] += 1
                return {
                    "key": key,
                    "result": store.encode_result(found),
                    "outcome": "store",
                    "seconds": None,
                    "error": None,
                }
            t0 = perf_counter()
            result = sweep.compute_job(
                config, job.benchmark, job.accesses, job.seed, job.threads,
                job.fidelity,
            )
            seconds = perf_counter() - t0
            self.store.put(spec, result)
            self.totals["executed"] += 1
            if ctx is not None and batch_spans is not None:
                batch_spans.append(obs_spans.make_span(
                    "fabric.execute", start_wall, seconds, ctx["trace"],
                    parent_id=ctx["span"],
                    attributes={
                        "worker": self.worker_id,
                        "benchmark": job.benchmark,
                        "config": job.config_name,
                        "outcome": "executed",
                    },
                ))
            return {
                "key": key,
                "result": store.encode_result(result),
                "outcome": "executed",
                "seconds": seconds,
                "error": None,
            }
        except Exception as exc:  # report, don't die: the batch goes on
            _log.warning("job %s failed on this worker: %s", key, exc)
            self.totals["errors"] += 1
            return {
                "key": key,
                "result": None,
                "outcome": "error",
                "seconds": None,
                "error": f"{type(exc).__name__}: {exc}",
            }

    def _report(self, lease_id, items, batch_spans=None) -> None:
        """Ship one batch's results; bounded retries on outages."""
        metrics = {
            "jobs_executed": float(
                sum(1 for item in items if item["outcome"] == "executed")
            ),
            "jobs_from_store": float(
                sum(1 for item in items if item["outcome"] == "store")
            ),
            "jobs_failed": float(
                sum(1 for item in items if item["error"] is not None)
            ),
            "exec_seconds": sum(
                item["seconds"] for item in items
                if isinstance(item["seconds"], (int, float))
            ),
        }
        delay = self.poll_seconds
        for attempt in range(5):
            try:
                self.client.complete(
                    self.worker_id, lease_id, items, metrics=metrics,
                    spans=batch_spans,
                )
                return
            except CoordinatorUnavailable as exc:
                _log.warning(
                    "could not report batch (attempt %d/5): %s",
                    attempt + 1, exc,
                )
                if self._stop.wait(delay):
                    break
                delay = min(delay * 2, self.backoff_max_seconds)
        # The lease will expire and the jobs re-queue; our local store
        # already holds the results, so the redo is a store hit.
        self.totals["dropped_batches"] += 1
        _log.error("dropping batch report after repeated failures; "
                   "jobs will re-queue via lease expiry")

    def _heartbeat_loop(
        self, lease_id: str, lease_seconds: float, stop: threading.Event
    ) -> None:
        interval = max(0.05, lease_seconds / 3.0)
        while not stop.wait(interval):
            try:
                alive = self.client.heartbeat(self.worker_id, lease_id)
                if not alive:
                    _log.warning("lease %s no longer honoured by the "
                                 "coordinator", lease_id)
            except (CoordinatorUnavailable, ProtocolError) as exc:
                _log.debug("heartbeat for %s failed: %s", lease_id, exc)
