"""CI smoke test for the observability stack (docs/observability.md).

Runs one tiny sweep through ``repro.cli`` with ``--metrics-port 0``, then
— in the same process, while the CLI's registry is still reachable from
the written snapshot — starts a snapshot-serving endpoint and asserts
the full acceptance path:

1. ``repro sweep --metrics-port`` completes and writes
   ``<store>/metrics/latest.json`` and ``<store>/spans/latest.json``;
2. ``GET /metrics`` returns Prometheus text exposition that
   :func:`repro.obs.exporters.parse_exposition` accepts, containing the
   sweep job counters, the store read/write counters, and
   ``repro_runs_completed_total`` counting the 4 jobs the sweep
   executed in its pool workers;
3. ``GET /healthz`` answers ``status: ok`` and states the wire
   ``protocol`` version and the ``obs`` span-plane block;
4. ``GET /progress.json`` reflects the finished sweep;
5. ``GET /events`` on a live server delivers real SSE frames over the
   socket — the ``hello`` handshake plus at least one ``progress`` and
   one ``span`` event;
6. ``repro obs trace export`` renders the sweep's span snapshot into
   Chrome trace-event JSON that passes a minimal Perfetto schema check
   (written under the store root, uploaded as a CI artifact).

Everything runs in-process (the endpoint on its daemon thread, probed
with urllib), so there are no background processes to orchestrate or
race against.  Exits non-zero with a message on the first failed
assertion.

Usage::

    PYTHONPATH=src python tools/obs_smoke.py [--keep DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
import urllib.request


def fetch(url: str) -> str:
    with urllib.request.urlopen(url, timeout=10) as response:
        if response.status != 200:
            raise SystemExit(f"obs_smoke: GET {url} -> {response.status}")
        return response.read().decode("utf-8")


def read_sse_frames(response, want: int, deadline_s: float = 10.0):
    """Parse ``want`` SSE frames off a live ``/events`` response.

    Keepalives arrive every 0.5 s, so the socket timeout never fires on
    a stream that is alive but silent; the deadline fails the smoke
    instead, naming what did arrive.
    """
    frames, kind, data = [], None, []
    deadline = time.monotonic() + deadline_s
    while len(frames) < want:
        if time.monotonic() > deadline:
            raise SystemExit(
                f"obs_smoke: {want} SSE frame(s) not read within "
                f"{deadline_s}s; got {[k for k, _ in frames]}"
            )
        line = response.readline().decode("utf-8").rstrip("\n")
        if line.startswith(":"):
            continue  # keepalive comment
        if line.startswith("event:"):
            kind = line.split(":", 1)[1].strip()
        elif line.startswith("data:"):
            data.append(line.split(":", 1)[1].strip())
        elif line == "" and (kind or data):
            frames.append((kind, json.loads("\n".join(data))))
            kind, data = None, []
    return frames


def check_sse(root: str) -> None:
    """Consume real SSE events from a live server over the socket."""
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.progress import SweepProgress
    from repro.obs.server import ObsServer
    from repro.obs.spans import SpanCollector

    progress = SweepProgress(total=2)
    collector = SpanCollector(enabled=True)
    server = ObsServer(
        registry=MetricsRegistry(enabled=True),
        progress=progress, spans=collector,
    ).start()
    try:
        response = urllib.request.urlopen(server.url + "/events", timeout=10)
        try:
            (hello_kind, hello), = read_sse_frames(response, 1)
            if hello_kind != "hello" or hello.get("progress", {}).get("total") != 2:
                raise SystemExit(f"obs_smoke: bad SSE hello: {hello}")
            progress.job_done("serial", seconds=0.1)
            collector.add("sweep.job", 1.0, 0.1, benchmark="milc")
            frames = dict(read_sse_frames(response, 2))
            if frames.get("progress", {}).get("done") != 1:
                raise SystemExit(f"obs_smoke: bad SSE progress: {frames}")
            if frames.get("span", {}).get("name") != "sweep.job":
                raise SystemExit(f"obs_smoke: bad SSE span: {frames}")
        finally:
            response.close()
    finally:
        server.close()


def check_trace_export(root: str, repro_main) -> str:
    """Export the sweep's span snapshot; validate the Perfetto schema."""
    from repro.obs.paths import spans_dir

    snapshot = os.path.join(spans_dir(), "latest.json")
    if not os.path.isfile(snapshot):
        raise SystemExit(f"obs_smoke: no span snapshot at {snapshot}")
    trace_path = os.path.join(root, "trace", "trace.json")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    rc = repro_main(["obs", "trace", "export",
                     "--input", snapshot, "-o", trace_path])
    if rc != 0:
        raise SystemExit(f"obs_smoke: obs trace export exited {rc}")
    with open(trace_path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    events = document.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise SystemExit(f"obs_smoke: {trace_path} has no traceEvents")
    spans = [e for e in events if e.get("ph") == "X"]
    if not spans:
        raise SystemExit("obs_smoke: exported trace has no complete events")
    for event in events:
        if event.get("ph") not in ("X", "M"):
            raise SystemExit(f"obs_smoke: unexpected trace phase: {event}")
        if not isinstance(event.get("name"), str) or "pid" not in event:
            raise SystemExit(f"obs_smoke: malformed trace event: {event}")
        if event["ph"] == "X" and not (
            isinstance(event.get("ts"), int) and event["ts"] >= 0
            and isinstance(event.get("dur"), int) and event["dur"] >= 0
            and isinstance(event.get("tid"), int)
        ):
            raise SystemExit(f"obs_smoke: malformed span event: {event}")
    names = {event["name"] for event in spans}
    if "sweep.run_jobs" not in names or "sweep.job" not in names:
        raise SystemExit(f"obs_smoke: span names missing from trace: {names}")
    return trace_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", metavar="DIR", default=None,
                        help="store root to use (kept afterwards); "
                             "default: a fresh temp dir, removed afterwards")
    args = parser.parse_args(argv)

    root = args.keep or tempfile.mkdtemp(prefix="repro-obs-smoke-")
    try:
        return run(root)
    finally:
        if not args.keep:
            shutil.rmtree(root, ignore_errors=True)


def run(root: str) -> int:
    """The smoke itself, with its store under ``root``."""
    os.environ["REPRO_STORE_DIR"] = root

    from repro.cli import main as repro_main
    from repro.obs import exporters
    from repro.obs.paths import metrics_dir
    from repro.obs.server import ObsServer

    rc = repro_main([
        "sweep", "-b", "milc", "tonto", "-c", "NP", "PS",
        "-n", "2500", "--jobs", "2", "--metrics-port", "0", "--no-progress",
    ])
    if rc != 0:
        raise SystemExit(f"obs_smoke: repro sweep exited {rc}")

    snapshot_path = os.path.join(metrics_dir(), "latest.json")
    if not os.path.isfile(snapshot_path):
        raise SystemExit(f"obs_smoke: no snapshot at {snapshot_path}")

    server = ObsServer(snapshot_dir=metrics_dir()).start()
    try:
        text = fetch(server.url + "/metrics")
        parsed = exporters.parse_exposition(text)  # raises if malformed
        names = {name for name, _ in parsed}
        for required in ("repro_sweep_jobs_total", "repro_store_reads_total",
                         "repro_store_writes_total",
                         "repro_sweep_job_seconds_count"):
            if required not in names:
                raise SystemExit(
                    f"obs_smoke: {required} missing from /metrics "
                    f"(got {sorted(names)})"
                )
        jobs = sum(value for (name, _), value in parsed.items()
                   if name == "repro_sweep_jobs_total")
        if jobs != 4:
            raise SystemExit(f"obs_smoke: expected 4 sweep jobs, saw {jobs}")
        runs = sum(value for (name, _), value in parsed.items()
                   if name == "repro_runs_completed_total")
        if runs != 4:
            raise SystemExit(
                f"obs_smoke: expected 4 executed runs, saw {runs}"
            )

        health = json.loads(fetch(server.url + "/healthz"))
        if health.get("status") != "ok":
            raise SystemExit(f"obs_smoke: /healthz said {health}")
        if not isinstance(health.get("protocol"), int):
            raise SystemExit(f"obs_smoke: /healthz lacks protocol: {health}")
        if health.get("obs", {}).get("spans") not in ("enabled", "disabled"):
            raise SystemExit(f"obs_smoke: /healthz lacks obs block: {health}")

        progress = json.loads(fetch(server.url + "/progress.json"))
        if not (progress.get("finished") and progress.get("done") == 4):
            raise SystemExit(f"obs_smoke: bad /progress.json: {progress}")
    finally:
        server.close()

    check_sse(root)
    trace_path = check_trace_export(root, repro_main)

    print(f"obs_smoke: OK ({len(parsed)} samples, snapshot {snapshot_path}, "
          f"trace {trace_path})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
