"""Flight recorder: a bounded ring of structured records, dumped on
failure as a crash post-mortem.

A sweep that dies — worker crash, per-job timeout, broken pool — used
to leave nothing behind but a stack trace in a terminal.  The
:class:`FlightRecorder` keeps the recent past in memory at all times:

* **structured notes** the sweep engine files at every robustness
  event of its process-pool phase (pool breaks, retries, timeouts,
  serial fallbacks), and
* **log records**: the recorder is a :class:`logging.Handler`, so
  attaching it to the ``repro`` logger captures everything the
  structured-logging satellite emits, ring-buffered, regardless of the
  process's logging configuration.

When a job crashes, times out, or exhausts its retry budget, the
engine calls :meth:`FlightRecorder.postmortem`, which writes one JSON
document — failure reason, full job spec and key, the record ring, and
a metrics snapshot — to ``.repro-results/postmortem/<job-key>.json``
(:func:`repro.obs.paths.postmortem_dir`), so the failure is debuggable
after the process is gone.

The ring costs a few hundred small dicts of memory and is on while a
sweep runs jobs in a process pool; nothing is written to disk unless
something fails.

The post-mortem directory itself is bounded: after every successful
dump the oldest documents beyond :data:`DEFAULT_POSTMORTEM_CAP` files
(``REPRO_POSTMORTEM_CAP`` overrides; ``0`` disables the cap) are
evicted, counted into ``repro_postmortem_evictions_total`` — fuzz and
sweep sessions accumulate post-mortems across runs, and an unbounded
directory of stale crash dumps is its own operational failure.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Mapping, Optional

from repro.common.files import durable_write
from repro.obs import paths
from repro.obs.exporters import registry_snapshot
from repro.obs.metrics import MetricsRegistry, default_registry

#: Schema version of the post-mortem document.
POSTMORTEM_VERSION = 1

#: Default ring capacity (records kept per recorder).
DEFAULT_CAPACITY = 256

#: Default bound on ``<store>/postmortem/`` documents (oldest evicted).
DEFAULT_POSTMORTEM_CAP = 64

_log = logging.getLogger("repro.obs.flightrec")


class FlightRecorder(logging.Handler):
    """Bounded in-memory ring of structured records + post-mortem dumper.

    Being a ``logging.Handler``, it can be attached to any logger
    subtree (:meth:`attach`/:meth:`detach`); emitted log records join
    the same ring as the structured :meth:`note` entries, in order.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        logging.Handler.__init__(self)
        self._ring: Deque[Dict[str, object]] = deque(maxlen=capacity)
        self._seq = 0
        self._ring_lock = threading.Lock()
        self._metrics = metrics
        self._attached_to: Optional[logging.Logger] = None

    # -- recording -----------------------------------------------------
    def note(self, kind: str, **fields: object) -> None:
        """Append one structured record to the ring."""
        with self._ring_lock:
            self._seq += 1
            record = {"seq": self._seq, "t_unix": time.time(), "kind": kind}
            record.update(fields)
            self._ring.append(record)

    def emit(self, record: logging.LogRecord) -> None:
        """``logging.Handler`` hook: ring-buffer one log record."""
        self.note(
            "log",
            level=record.levelname,
            logger=record.name,
            message=record.getMessage(),
        )

    def records(self) -> List[Dict[str, object]]:
        """The current ring contents, oldest first."""
        with self._ring_lock:
            return list(self._ring)

    # -- logging wiring ------------------------------------------------
    def attach(self, logger_name: str = "repro") -> "FlightRecorder":
        """Start capturing ``logger_name``'s subtree into the ring."""
        logger = logging.getLogger(logger_name)
        logger.addHandler(self)
        self._attached_to = logger
        return self

    def detach(self) -> None:
        """Stop capturing (no-op when never attached)."""
        if self._attached_to is not None:
            self._attached_to.removeHandler(self)
            self._attached_to = None

    # -- post-mortems --------------------------------------------------
    def postmortem(
        self,
        reason: str,
        job_key: str,
        spec: Optional[Mapping[str, object]] = None,
        extra: Optional[Mapping[str, object]] = None,
        directory: Optional[str] = None,
        max_files: Optional[int] = None,
    ) -> Optional[str]:
        """Dump the recorder state for one failed job; returns the path.

        The document lands at ``<directory>/<job_key>.json``
        (``directory`` defaults to the shared post-mortem dir).  Dump
        failures are logged and swallowed — a broken disk must never
        turn a recovered sweep into a crashed one — returning None.

        After a successful dump the directory is rotated down to
        ``max_files`` documents (default: ``REPRO_POSTMORTEM_CAP`` or
        :data:`DEFAULT_POSTMORTEM_CAP`; 0 or negative disables),
        evicting oldest-first by mtime and counting evictions into the
        ``repro_postmortem_evictions_total`` metric.
        """
        directory = paths.postmortem_dir() if directory is None else directory
        metrics = self._metrics if self._metrics is not None else default_registry()
        document: Dict[str, object] = {
            "version": POSTMORTEM_VERSION,
            "reason": reason,
            "job_key": job_key,
            "spec": dict(spec) if spec is not None else None,
            "written_unix": time.time(),
            "records": self.records(),
            "metrics": registry_snapshot(metrics) if metrics.enabled else None,
            "extra": dict(extra) if extra is not None else None,
        }
        path = os.path.join(directory, f"{job_key}.json")
        try:
            with durable_write(path) as handle:
                json.dump(document, handle, sort_keys=True, indent=1)
        except OSError:
            _log.warning(
                "could not write post-mortem for job %s under %s",
                job_key, directory, exc_info=True,
            )
            return None
        self._rotate(directory, path, max_files, metrics)
        return path

    def _rotate(
        self,
        directory: str,
        just_written: str,
        max_files: Optional[int],
        metrics: MetricsRegistry,
    ) -> int:
        """Evict oldest post-mortems beyond the cap; returns the count."""
        cap = max_files if max_files is not None else _postmortem_cap()
        if cap <= 0:
            return 0
        try:
            entries = [
                os.path.join(directory, name)
                for name in os.listdir(directory)
                if name.endswith(".json") and not name.startswith(".")
            ]
        except OSError:
            return 0
        if len(entries) <= cap:
            return 0
        def mtime(entry: str) -> float:
            try:
                return os.path.getmtime(entry)
            except OSError:
                return 0.0
        # never evict the document this call just wrote, even with a
        # coarse-mtime filesystem ranking it oldest
        victims = [entry for entry in sorted(entries, key=mtime)
                   if entry != just_written][: len(entries) - cap]
        evicted = 0
        for victim in victims:
            try:
                os.unlink(victim)
                evicted += 1
            except OSError:
                pass  # racing eviction/readers; the cap is best-effort
        if evicted and metrics.enabled:
            metrics.counter(
                "repro_postmortem_evictions_total",
                "Post-mortem documents evicted by directory rotation.",
            ).inc(evicted)
        return evicted


def _postmortem_cap() -> int:
    """The effective post-mortem directory cap (env-overridable)."""
    raw = os.environ.get("REPRO_POSTMORTEM_CAP", "")
    try:
        return int(raw) if raw else DEFAULT_POSTMORTEM_CAP
    except ValueError:
        return DEFAULT_POSTMORTEM_CAP


def read_postmortem(path: str) -> Dict[str, object]:
    """Load one post-mortem document (convenience for tools/tests)."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
