"""The event bus at the centre of the telemetry subsystem.

A :class:`Tracer` is handed to every instrumented block at construction
time.  Blocks emit typed events through it; subscribers (exporters,
probes, tests) receive them synchronously.  Two properties make it safe
to thread through the whole simulator unconditionally:

* **Disabled is (near) free.**  The module-level :data:`NULL_TRACER` is
  permanently disabled; ``emit`` on a disabled tracer returns
  immediately, and hot paths additionally guard event *construction*
  with ``if tracer.enabled:`` so a non-telemetry run builds no event
  objects at all.
* **Overhead is self-measured.**  An enabled tracer wraps every dispatch
  in ``time.perf_counter`` and accumulates the time spent inside the
  telemetry machinery, so a run can report exactly how much wall clock
  its own instrumentation cost (see ``overhead_seconds`` /
  ``summary``).
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional

from repro.telemetry.events import TraceEvent

#: A subscriber: called synchronously with each matching event.
EventSink = Callable[[TraceEvent], None]


class Tracer:
    """Synchronous publish/subscribe bus for :class:`TraceEvent`\\ s.

    Subscribers may listen to every event or only to specific kinds
    (kind-filtered dispatch keeps per-event fan-out proportional to the
    interested parties, not to the subscriber count).
    """

    __slots__ = ("enabled", "_global_sinks", "_kind_sinks", "counts",
                 "_overhead_s")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._global_sinks: List[EventSink] = []
        self._kind_sinks: Dict[str, List[EventSink]] = defaultdict(list)
        #: events dispatched so far, per kind
        self.counts: Dict[str, int] = defaultdict(int)
        self._overhead_s = 0.0

    # ------------------------------------------------------------------
    # subscription
    # ------------------------------------------------------------------
    def subscribe(
        self, sink: EventSink, kinds: Optional[Iterable[str]] = None
    ) -> EventSink:
        """Register ``sink``; with ``kinds`` it only sees those events.

        Returns the sink so it can be used for later :meth:`unsubscribe`.
        """
        if kinds is None:
            self._global_sinks.append(sink)
        else:
            for kind in kinds:
                self._kind_sinks[kind].append(sink)
        return sink

    def unsubscribe(self, sink: EventSink) -> None:
        """Remove ``sink`` from every dispatch list it appears in."""
        if sink in self._global_sinks:
            self._global_sinks.remove(sink)
        for sinks in self._kind_sinks.values():
            if sink in sinks:
                sinks.remove(sink)

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def emit(self, event: TraceEvent) -> None:
        """Dispatch one event to all matching subscribers.

        A disabled tracer drops the event without touching subscribers,
        counters, or the clock.
        """
        if not self.enabled:
            return
        t0 = perf_counter()
        self.counts[event.kind] += 1
        for sink in self._global_sinks:
            sink(event)
        for sink in self._kind_sinks.get(event.kind, ()):
            sink(event)
        self._overhead_s += perf_counter() - t0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def total_events(self) -> int:
        """Events dispatched since construction."""
        return sum(self.counts.values())

    def overhead_seconds(self) -> float:
        """Wall-clock seconds spent inside ``emit`` (self-measured)."""
        return self._overhead_s

    def summary(self) -> Dict[str, object]:
        """JSON-ready digest: enablement, per-kind counts, overhead."""
        return {
            "enabled": self.enabled,
            "events": dict(sorted(self.counts.items())),
            "total_events": self.total_events,
            "overhead_seconds": self._overhead_s,
        }


#: The shared, permanently disabled tracer every block defaults to.
#: Instrumented constructors use ``tracer or NULL_TRACER`` so existing
#: call sites and tests keep working unchanged.
NULL_TRACER = Tracer(enabled=False)
