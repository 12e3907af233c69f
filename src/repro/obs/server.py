"""Stdlib-only HTTP endpoint: ``/metrics``, ``/healthz``, ``/progress``.

:class:`ObsServer` wraps an ``http.server.ThreadingHTTPServer`` on a
daemon thread, so a sweep (or the ``repro obs serve`` subcommand) can
expose its state without any dependency beyond the standard library:

* ``GET /metrics``       — Prometheus text exposition (0.0.4) of the
  live registry, or of the newest JSON snapshot when serving a
  directory;
* ``GET /metrics.json``  — the JSON snapshot document;
* ``GET /healthz``       — liveness JSON: status, pid, uptime, source;
  in snapshot-dir mode it also reports the newest snapshot's age and
  flips ``status`` to ``stale`` once that age exceeds ``stale_after``
  seconds (a dead sweep stops refreshing its snapshot — the fabric
  coordinator and external monitors key off this);
* ``GET /progress``      — a live HTML dashboard of the attached
  :class:`~repro.obs.progress.SweepProgress` (updates over ``/events``,
  reloading as a fallback);
* ``GET /progress.json`` — the raw progress snapshot;
* ``GET /spans.json``    — the attached span collector's stored spans
  (:mod:`repro.obs.spans`), 404 when no collector is attached;
* ``GET /events``        — a Server-Sent-Events stream of progress
  changes (``event: progress``) and span completions (``event: span``),
  so watchers update live instead of polling.  Each stream reads the
  same records the JSON endpoints serve, every 0.5 s.

Two sources, checked in order: a **live** :class:`MetricsRegistry` (and
optional ``SweepProgress``) passed at construction — what ``repro sweep
--metrics-port N`` uses — or a **snapshot directory** re-read per
request, which is how ``repro obs serve`` serves the counters of
sweeps that already finished.

Bind to port 0 to let the OS pick (the bound port is available as
``server.port`` — the endpoint tests do this).  Request logging goes to
the ``repro.obs.server`` logger at DEBUG, never to stderr.
"""

from __future__ import annotations

import html
import json
import logging
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from repro.obs import exporters
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import SweepProgress, render_line
from repro.obs.spans import NULL_SPANS, SPANS_VERSION, SpanCollector

_log = logging.getLogger("repro.obs.server")

_DASHBOARD_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro sweep progress</title>
<style>
  body {{ font-family: ui-monospace, monospace; margin: 2rem; }}
  table {{ border-collapse: collapse; margin-top: 1rem; }}
  td, th {{ border: 1px solid #999; padding: 0.3rem 0.8rem; text-align: left; }}
  progress {{ width: 24rem; height: 1.2rem; }}
</style>
</head>
<body>
<h1>repro sweep</h1>
<p><progress id="bar" max="{total}" value="{done}"></progress>
 <span id="pct">{percent:.0f}%</span></p>
<p id="line">{line}</p>
<table>
<tr><th>counter</th><th>value</th></tr>
{rows}
</table>
<p><a href="/metrics">/metrics</a> · <a href="/metrics.json">/metrics.json</a>
 · <a href="/healthz">/healthz</a> · <a href="/progress.json">/progress.json</a>
 · <a href="/spans.json">/spans.json</a> · <a href="/events">/events</a></p>
<script>
  // Live updates over /events; falls back to reloading (the old
  // meta-refresh behaviour) if the SSE stream is unavailable.
  const es = new EventSource('/events');
  es.addEventListener('progress', (e) => {{
    const s = JSON.parse(e.data);
    const bar = document.getElementById('bar');
    bar.max = Math.max(1, s.total);
    bar.value = s.done;
    document.getElementById('pct').textContent = s.percent.toFixed(0) + '%';
    if (s.line) document.getElementById('line').textContent = s.line;
  }});
  es.onerror = () => {{ es.close(); setTimeout(() => location.reload(), 2000); }};
</script>
</body>
</html>
"""


def _sse_frame(kind: str, payload: object) -> str:
    return f"event: {kind}\ndata: {json.dumps(payload, sort_keys=True)}\n\n"


def _progress_counts(snapshot: Optional[Dict[str, object]]) -> object:
    """The part of a progress snapshot that moves only when the sweep does."""
    if snapshot is None:
        return None
    return (snapshot["total"], snapshot["done"], snapshot["finished"],
            snapshot["outcomes"], snapshot["events"])


class ObsServer:
    """Serve metrics/health/progress for one process on a daemon thread."""

    #: Snapshot age (seconds) past which ``/healthz`` reports ``stale``
    #: in snapshot-dir mode; None disables the check.
    DEFAULT_STALE_AFTER = 600.0

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        progress: Optional[SweepProgress] = None,
        snapshot_dir: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        stale_after: Optional[float] = DEFAULT_STALE_AFTER,
        spans: Optional[SpanCollector] = None,
    ) -> None:
        if registry is None and snapshot_dir is None:
            raise ValueError("ObsServer needs a registry or a snapshot_dir")
        self.registry = registry
        self.progress = progress
        self.snapshot_dir = snapshot_dir
        self.stale_after = stale_after
        self.spans = spans
        self._started_monotonic = time.monotonic()
        self._thread: Optional[threading.Thread] = None
        self._closing = threading.Event()
        owner = self

        class _Handler(BaseHTTPRequestHandler):
            """Routes one request; all state lives on the owning server."""

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                owner._route(self)

            def do_POST(self) -> None:  # noqa: N802 (http.server API)
                owner._route_post(self)

            def log_message(self, format: str, *args: object) -> None:
                _log.debug("%s - %s", self.address_string(), format % args)

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True

    # -- lifecycle -----------------------------------------------------
    @property
    def port(self) -> int:
        """The actually-bound TCP port (useful with ``port=0``)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL the endpoints are reachable under."""
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> "ObsServer":
        """Begin serving on a daemon thread; returns self."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-obs-server",
            daemon=True,
        )
        self._thread.start()
        _log.info("obs endpoint serving on %s", self.url)
        return self

    def close(self) -> None:
        """Stop serving and release the socket.

        ``server_close`` runs in a ``finally`` so the bound socket is
        released even when ``shutdown()`` raises (e.g. a subclass hook
        or a half-torn-down serve loop) — leaking the port would make
        every later bind on it fail with EADDRINUSE.
        """
        self._closing.set()  # wakes every /events handler at once
        try:
            self._httpd.shutdown()
        finally:
            self._httpd.server_close()
            if self._thread is not None:
                self._thread.join(timeout=5)
                self._thread = None

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (CLI use)."""
        self._httpd.serve_forever()

    # -- content -------------------------------------------------------
    def _metrics_source(self) -> Tuple[str, Optional[Dict[str, object]]]:
        """``(description, snapshot-or-None)``; live registries use None."""
        if self.registry is not None:
            return "live", None
        found = exporters.latest_snapshot(self.snapshot_dir)
        if found is None:
            return f"snapshot-dir:{self.snapshot_dir} (empty)", None
        path, document = found
        return f"snapshot:{path}", document

    def _metrics_document(self) -> Dict[str, object]:
        """The snapshot document ``/metrics`` renders and ``/metrics.json`` returns."""
        if self.registry is not None:
            return exporters.registry_snapshot(
                self.registry, progress=self._progress_snapshot()
            )
        _, document = self._metrics_source()
        return document if document is not None else {"metrics": []}

    def _health(self) -> Dict[str, object]:
        source, _ = self._metrics_source()
        health: Dict[str, object] = {
            "status": "ok",
            "pid": os.getpid(),
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "metrics_source": source,
        }
        if self.registry is None:
            # Snapshot-dir mode: a sweep that died stops refreshing its
            # snapshot, so report the age and flip to "stale" past the
            # threshold instead of answering "ok" forever.
            age = self._snapshot_age()
            health["snapshot_age_seconds"] = age
            if (
                age is not None
                and self.stale_after is not None
                and age > self.stale_after
            ):
                health["status"] = "stale"
                health["stale_after_seconds"] = self.stale_after
        # Fleet-skew visibility: every obs endpoint states which fabric
        # wire version and span plane this process runs, so a mixed
        # fleet is diagnosable from /healthz before a key-mismatch or
        # protocol error surfaces.  Imported lazily — fabric sits above
        # obs in the layering.
        try:
            from repro.fabric.protocol import PROTOCOL_VERSION
            health["protocol"] = PROTOCOL_VERSION
        except ImportError:  # pragma: no cover - fabric always ships
            pass
        spans = self.spans
        health["obs"] = {
            "spans": "enabled" if spans is not None and spans.enabled
            else "disabled",
        }
        if spans is not None and spans.enabled:
            health["obs"]["span_count"] = len(spans)
        health.update(self.health_extra())
        return health

    def _snapshot_age(self) -> Optional[float]:
        """Seconds since the newest snapshot was generated (None if none).

        Prefers the snapshot's own ``generated_unix`` stamp; falls back
        to file mtime for hand-made or older snapshot documents.
        """
        found = exporters.latest_snapshot(self.snapshot_dir)
        if found is None:
            return None
        path, document = found
        generated = document.get("generated_unix")
        if isinstance(generated, (int, float)):
            return max(0.0, time.time() - float(generated))
        try:
            return max(0.0, time.time() - os.path.getmtime(path))
        except OSError:
            return None

    def health_extra(self) -> Dict[str, object]:
        """Subclass hook: extra fields merged into the ``/healthz`` body."""
        return {}

    def _progress_snapshot(self) -> Optional[Dict[str, object]]:
        if self.progress is not None:
            return self.progress.snapshot()
        _, document = self._metrics_source()
        if document is not None and isinstance(document.get("progress"), dict):
            return document["progress"]
        return None

    def _dashboard(self) -> str:
        snapshot = self._progress_snapshot()
        if snapshot is None:
            return (
                "<!DOCTYPE html><html><head><meta charset=\"utf-8\">"
                "<meta http-equiv=\"refresh\" content=\"2\">"
                "<title>repro sweep progress</title></head>"
                "<body><p>no sweep progress available</p></body></html>"
            )
        rows = []
        for section in ("outcomes", "events"):
            for name, count in sorted(snapshot.get(section, {}).items()):
                rows.append(
                    f"<tr><td>{html.escape(str(name))}</td>"
                    f"<td>{html.escape(str(count))}</td></tr>"
                )
        return _DASHBOARD_TEMPLATE.format(
            total=max(1, snapshot["total"]),
            done=snapshot["done"],
            percent=snapshot["percent"],
            line=html.escape(render_line(snapshot)),
            rows="\n".join(rows),
        )

    # -- routing -------------------------------------------------------
    def _route(self, handler: BaseHTTPRequestHandler) -> None:
        path = handler.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                self._respond(
                    handler, 200, exporters.EXPOSITION_CONTENT_TYPE,
                    exporters.render_exposition(self._metrics_document()),
                )
            elif path == "/metrics.json":
                self._respond_json(handler, 200, self._metrics_document())
            elif path == "/healthz":
                self._respond_json(handler, 200, self._health())
            elif path == "/progress.json":
                snapshot = self._progress_snapshot()
                if snapshot is None:
                    self._respond_json(
                        handler, 404, {"error": "no progress attached"}
                    )
                else:
                    self._respond_json(handler, 200, snapshot)
            elif path == "/spans.json":
                if self.spans is None:
                    self._respond_json(
                        handler, 404, {"error": "no span collector attached"}
                    )
                else:
                    self._respond_json(handler, 200, {
                        "version": SPANS_VERSION,
                        "enabled": self.spans.enabled,
                        "dropped": self.spans.dropped,
                        "spans": self.spans.spans(),
                    })
            elif path == "/events":
                self._stream_events(handler)
            elif path in ("/", "/progress"):
                self._respond(
                    handler, 200, "text/html; charset=utf-8", self._dashboard()
                )
            elif self._handle_get(handler, path):
                pass
            else:
                self._respond_json(handler, 404, {"error": f"no route {path}"})
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception:  # never kill the serving thread on one request
            _log.exception("obs endpoint failed serving %s", path)
            try:
                self._respond_json(handler, 500, {"error": "internal error"})
            except Exception:
                pass

    def _route_post(self, handler: BaseHTTPRequestHandler) -> None:
        path = handler.path.split("?", 1)[0]
        try:
            if not self._handle_post(handler, path):
                self._respond_json(
                    handler, 405, {"error": f"no POST route {path}"}
                )
        except BrokenPipeError:
            pass
        except Exception:
            _log.exception("obs endpoint failed serving POST %s", path)
            try:
                self._respond_json(handler, 500, {"error": "internal error"})
            except Exception:
                pass

    def _handle_get(self, handler: BaseHTTPRequestHandler, path: str) -> bool:
        """Subclass hook for extra GET routes; True = request handled."""
        return False

    def _handle_post(self, handler: BaseHTTPRequestHandler, path: str) -> bool:
        """Subclass hook for POST routes; True = request handled."""
        return False

    def _sweeps_since(self, count: int) -> Tuple[List[Dict[str, object]], int]:
        """Subclass hook: ``sweep`` payloads of the submissions accepted
        after the first ``count``, and the new count."""
        return [], count

    # -- the SSE stream ------------------------------------------------
    def _stream_events(self, handler: BaseHTTPRequestHandler) -> None:
        """Serve one ``/events`` client until it disconnects or we close.

        Runs on the request's own thread (ThreadingHTTPServer).  Every
        0.5 s it reads the records the JSON endpoints serve and sends
        what is new since its last read: a ``sweep`` frame per accepted
        submission, a ``span`` frame per recorded span, then one
        ``progress`` frame if the counts moved; a keepalive comment
        when nothing did.  The cursors are taken before ``hello``, so
        nothing recorded after the client reads it is missed, and each
        wake reads progress before spans, so a progress frame follows
        every span recorded before its snapshot.
        """
        progress = self._progress_snapshot()
        shown = _progress_counts(progress)
        spans = self.spans if self.spans is not None else NULL_SPANS
        _, spans_seen = spans.since(0)
        _, sweeps_seen = self._sweeps_since(0)
        chunk = _sse_frame("hello", {
            "pid": os.getpid(), "progress": progress, "spans": len(spans),
        })
        try:
            handler.send_response(200)
            handler.send_header("Content-Type", "text/event-stream")
            handler.send_header("Cache-Control", "no-store")
            handler.send_header("Connection", "close")
            handler.end_headers()
            while True:
                handler.wfile.write(chunk.encode("utf-8"))
                handler.wfile.flush()
                if self._closing.wait(0.5):
                    break
                progress = self._progress_snapshot()
                new_spans, spans_seen = spans.since(spans_seen)
                sweeps, sweeps_seen = self._sweeps_since(sweeps_seen)
                frames = [_sse_frame("sweep", doc) for doc in sweeps]
                frames += [_sse_frame("span", doc) for doc in new_spans]
                counts = _progress_counts(progress)
                if counts != shown:
                    shown = counts
                    progress["line"] = render_line(progress)
                    frames.append(_sse_frame("progress", progress))
                chunk = "".join(frames) or ": keepalive\n\n"
        except (BrokenPipeError, ConnectionError, OSError):
            pass  # client went away; nothing to salvage

    @staticmethod
    def _respond(
        handler: BaseHTTPRequestHandler,
        status: int,
        content_type: str,
        body: str,
    ) -> None:
        payload = body.encode("utf-8")
        handler.send_response(status)
        handler.send_header("Content-Type", content_type)
        handler.send_header("Content-Length", str(len(payload)))
        handler.end_headers()
        handler.wfile.write(payload)

    @staticmethod
    def _respond_json(
        handler: BaseHTTPRequestHandler, status: int, document: Dict[str, object]
    ) -> None:
        ObsServer._respond(
            handler, status, "application/json; charset=utf-8",
            json.dumps(document, sort_keys=True, indent=1),
        )
