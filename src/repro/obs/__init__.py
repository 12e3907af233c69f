"""repro.obs — process-wide metrics, live progress, health endpoints,
and crash post-mortems.

Where :mod:`repro.telemetry` looks *inside one run* (epoch-resolved
series), ``repro.obs`` watches the *fleet*: how
many jobs a sweep executed and where they were served from, what the
result store's hit rate is, how long jobs take, and what was happening
right before a worker died.  See docs/observability.md for the metric
catalogue and the "telemetry vs. obs" decision guide in
docs/telemetry.md.

* :mod:`repro.obs.metrics` — the labeled counter/gauge/histogram
  registry (``NULL_METRICS`` disabled default, ``REPRO_METRICS=1`` or
  the CLI to enable).
* :mod:`repro.obs.exporters` — Prometheus text exposition + JSON
  snapshots under ``.repro-results/metrics/``.
* :mod:`repro.obs.server` — the stdlib HTTP endpoint (``/metrics``,
  ``/healthz``, ``/progress``) behind ``repro sweep --metrics-port``
  and ``repro obs serve``.
* :mod:`repro.obs.progress` — live sweep counters, ETA, and the TTY
  status line.
* :mod:`repro.obs.flightrec` — the flight recorder and its
  ``.repro-results/postmortem/<job-key>.json`` crash dumps.
* :mod:`repro.obs.bridge` — folds a finished run's coarse totals
  (DRAM and prefetch traffic from ``RunResult.stats``) into the
  registry.
* :mod:`repro.obs.spans` — span-based wall-clock tracing
  (``NULL_SPANS`` disabled default, ``REPRO_SPANS=1`` or the CLI to
  enable) stitching sweep/fabric work into per-trace trees.
* :mod:`repro.obs.critpath` — critical-path / straggler / self-time
  analysis over a finished span tree.
"""

from repro.obs.critpath import analyze, critical_path, render_summary
from repro.obs.exporters import (
    parse_exposition,
    registry_snapshot,
    render_exposition,
    write_snapshot,
)
from repro.obs.flightrec import FlightRecorder, read_postmortem
from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    default_registry,
    reset_default_registry,
    set_default_registry,
)
from repro.obs.progress import ProgressPrinter, SweepProgress, render_line
from repro.obs.server import ObsServer
from repro.obs.spans import (
    NULL_SPANS,
    Span,
    SpanCollector,
    SpanError,
    default_collector,
    load_spans,
    reset_default_collector,
    set_default_collector,
    to_chrome_trace,
    write_spans,
)

__all__ = [
    "NULL_METRICS",
    "NULL_SPANS",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "ObsServer",
    "ProgressPrinter",
    "Span",
    "SpanCollector",
    "SpanError",
    "SweepProgress",
    "analyze",
    "critical_path",
    "default_collector",
    "default_registry",
    "load_spans",
    "parse_exposition",
    "read_postmortem",
    "registry_snapshot",
    "render_exposition",
    "render_line",
    "render_summary",
    "reset_default_collector",
    "reset_default_registry",
    "set_default_collector",
    "set_default_registry",
    "to_chrome_trace",
    "write_snapshot",
    "write_spans",
]
