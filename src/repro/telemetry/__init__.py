"""repro.telemetry — epoch-resolved tracing and run instrumentation.

The observability layer for the whole simulator:

* :mod:`repro.telemetry.tracer` — the :class:`Tracer` event bus every
  instrumented block emits into (``NULL_TRACER`` is the shared disabled
  default, so untraced runs pay nothing).
* :mod:`repro.telemetry.events` — the typed event catalogue.
* :mod:`repro.telemetry.series` — bounded per-epoch time series.
* :mod:`repro.telemetry.probes` — :class:`EpochProbes`, the per-epoch
  series of one run of either tier: SLH snapshots, queue depths,
  prefetch accuracy/coverage, policy index and DRAM power for an exact
  run, the fast model's own quantities for a fast one.
* :mod:`repro.telemetry.exporters` — JSONL event logs, CSV/JSON series
  dumps, human-readable epoch reports.
* :mod:`repro.telemetry.session` — :class:`TelemetrySession`, wiring it
  all together for the CLI's ``--trace-events`` / ``--probe-interval``.

See docs/telemetry.md for the event/probe catalogue and overhead notes.
"""

from repro.telemetry.events import (
    EVENT_KINDS,
    DramCommand,
    EpochBoundary,
    PolicyChange,
    PrefetchDiscard,
    PrefetchHit,
    PrefetchIssued,
    QueueDepthSample,
    TraceEvent,
    event_from_dict,
)
from repro.telemetry.exporters import (
    JsonlEventWriter,
    epoch_report,
    read_events_jsonl,
    series_to_csv,
    series_to_json,
)
from repro.telemetry.probes import EpochProbes
from repro.telemetry.series import Series
from repro.telemetry.session import TelemetrySession
from repro.telemetry.tracer import NULL_TRACER, Tracer

__all__ = [
    "DramCommand",
    "EVENT_KINDS",
    "EpochBoundary",
    "EpochProbes",
    "JsonlEventWriter",
    "NULL_TRACER",
    "PolicyChange",
    "PrefetchDiscard",
    "PrefetchHit",
    "PrefetchIssued",
    "QueueDepthSample",
    "Series",
    "TelemetrySession",
    "TraceEvent",
    "Tracer",
    "epoch_report",
    "event_from_dict",
    "read_events_jsonl",
    "series_to_csv",
    "series_to_json",
]
