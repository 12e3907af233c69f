"""Process-wide metrics registry: labeled counters, gauges, histograms.

This is the *fleet-level* counterpart of :mod:`repro.telemetry`: where
the epoch probes answer "what happened inside this one run, epoch by
epoch", the metrics registry answers "what is this process doing across
many runs" — jobs executed, store hits, wall time spent — in a shape
Prometheus (or any text scraper) understands.

The enablement model is disabled by default:

* :data:`NULL_METRICS` is a shared, permanently *disabled* registry.
  Every mutator (``inc``/``set``/``observe``) on an instrument of a
  disabled registry returns immediately — no locking, no dict writes,
  no clock reads — so uninstrumented runs pay one attribute check per
  instrumented site and nothing else.
* :func:`default_registry` returns the process-wide registry
  instrumented call sites use.  It is :data:`NULL_METRICS` unless
  ``REPRO_METRICS=1`` is exported or the CLI installed a live registry
  via :func:`set_default_registry` (``repro sweep --metrics-port``
  does).

Instruments are registered by name and idempotent: asking the same
registry for the same name returns the same instrument, and asking
with a different type or label set raises — two call sites can never
silently write into differently-shaped metrics under one name.

Every registration, on a disabled registry too, also meets the naming
contract or raises :class:`MetricError` naming the metric: the name
matches ``^repro_[a-z0-9_]*[a-z0-9]$``, a counter's name ends in
``_total``, and a metric has at most :data:`METRIC_LABEL_CAP` label
names (label sets are what explode a scraper's storage).

Mutation is thread-safe (the HTTP endpoint of :mod:`repro.obs.server`
reads registries from a second thread); the enabled-path cost is one
lock acquisition per update, which is negligible at the per-job /
per-run granularity this subsystem operates at (never per simulated
cycle or epoch — that is the probes' domain).
"""

from __future__ import annotations

import os
import re
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "METRIC_LABEL_CAP",
    "NULL_METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "default_registry",
    "reset_default_registry",
    "set_default_registry",
]

#: Upper bucket bounds (seconds) used when a histogram does not pass
#: its own; tuned for per-job wall times from milliseconds to minutes.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

#: Most label names one metric may declare.
METRIC_LABEL_CAP = 3

_NAME_RE = re.compile(r"^repro_[a-z0-9_]*[a-z0-9]$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricError(ValueError):
    """A metric that breaks the naming contract, an invalid label name,
    or a name re-registered differently."""


def _check_name(name: str, kind: str) -> str:
    if not _NAME_RE.match(name):
        raise MetricError(
            f"invalid metric name {name!r}: must match {_NAME_RE.pattern}"
        )
    if kind == "counter" and not name.endswith("_total"):
        raise MetricError(f"counter {name!r} must end in _total")
    return name


def _check_labelnames(name: str, labelnames: Iterable[str]) -> Tuple[str, ...]:
    names = tuple(labelnames)
    for label in names:
        if not _LABEL_RE.match(label) or label.startswith("__"):
            raise MetricError(f"{name}: invalid label name {label!r}")
    if len(set(names)) != len(names):
        raise MetricError(f"{name}: duplicate label names in {names!r}")
    if len(names) > METRIC_LABEL_CAP:
        raise MetricError(
            f"{name}: {len(names)} label names {names!r}, at most "
            f"{METRIC_LABEL_CAP}"
        )
    return names


class _Instrument:
    """Common machinery: naming, label resolution, child state, lock."""

    kind = ""

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: Tuple[str, ...],
    ) -> None:
        self._registry = registry
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}

    # -- shared plumbing ----------------------------------------------
    def _key(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        """Resolve ``**labels`` kwargs into the ordered child key."""
        if set(labels) != set(self.labelnames):
            raise MetricError(
                f"{self.name}: expected labels {self.labelnames!r}, "
                f"got {tuple(sorted(labels))!r}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def samples(self) -> List[Tuple[Dict[str, str], object]]:
        """``(labels-dict, value)`` per child, sorted by label values.

        Counter/gauge values are floats; histogram values are
        ``(bucket_counts, sum, count)`` with one count per upper bound
        plus a final +Inf slot.  Taken under the lock, so exporters see
        a consistent snapshot.
        """
        with self._lock:
            items = sorted(self._children.items())
        return [
            (dict(zip(self.labelnames, key)), self._export(value))
            for key, value in items
        ]

    def _export(self, value: object) -> object:
        return value


class Counter(_Instrument):
    """Monotonically increasing labeled counter."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (default 1) to the child named by ``labels``."""
        if not self._registry.enabled:
            return
        if amount < 0:
            raise MetricError(f"{self.name}: counters cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        """Current value of one child (0.0 when never incremented)."""
        return float(self._children.get(self._key(labels), 0.0))


class Gauge(_Instrument):
    """Labeled value that can go up and down (set or adjusted)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        """Overwrite the child named by ``labels`` with ``value``."""
        if not self._registry.enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._children[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Adjust the child by ``amount`` (may be negative)."""
        if not self._registry.enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        """Adjust the child by ``-amount``."""
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        """Current value of one child (0.0 when never set)."""
        return float(self._children.get(self._key(labels), 0.0))


class _HistogramChild:
    """Bucket counts + running sum/count for one label combination."""

    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * (n_buckets + 1)  # +1: the +Inf bucket
        self.sum = 0.0
        self.count = 0


class Histogram(_Instrument):
    """Labeled histogram with fixed upper-bound buckets.

    Exported Prometheus-style: cumulative ``_bucket{le=...}`` series
    plus ``_sum`` and ``_count``.
    """

    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: Tuple[str, ...],
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(registry, name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise MetricError(f"{name}: a histogram needs >= 1 bucket")
        self.buckets = bounds

    def observe(self, value: float, **labels: object) -> None:
        """Record one measurement into the child named by ``labels``."""
        if not self._registry.enabled:
            return
        key = self._key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = _HistogramChild(len(self.buckets))
            child.counts[bisect_left(self.buckets, value)] += 1
            child.sum += value
            child.count += 1

    def _export(self, value: object) -> object:
        child = value
        return (list(child.counts), child.sum, child.count)

    def mean(self, **labels: object) -> float:
        """Mean of observed values for one child (0.0 when empty)."""
        child = self._children.get(self._key(labels))
        if child is None or child.count == 0:
            return 0.0
        return child.sum / child.count


class MetricsRegistry:
    """A named collection of instruments with one enablement switch.

    ``enabled=False`` registries hand out instruments whose mutators
    are no-ops; :data:`NULL_METRICS` is the shared disabled instance
    instrumented code defaults to (see the module docstring).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}

    # -- registration --------------------------------------------------
    def _register(self, cls, name, help, labelnames, **extra) -> _Instrument:
        _check_name(name, cls.kind)
        labelnames = _check_labelnames(name, labelnames)
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != labelnames:
                    raise MetricError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}{existing.labelnames!r}"
                    )
                return existing
            instrument = cls(self, name, help, labelnames, **extra)
            self._instruments[name] = instrument
            return instrument

    def counter(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> Counter:
        """The counter named ``name`` (created on first use)."""
        return self._register(Counter, name, help, tuple(labelnames))

    def gauge(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> Gauge:
        """The gauge named ``name`` (created on first use)."""
        return self._register(Gauge, name, help, tuple(labelnames))

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """The histogram named ``name`` (created on first use)."""
        return self._register(
            Histogram, name, help, tuple(labelnames), buckets=buckets
        )

    # -- introspection -------------------------------------------------
    def collect(self) -> List[_Instrument]:
        """Every registered instrument, sorted by name."""
        with self._lock:
            return [self._instruments[n] for n in sorted(self._instruments)]

    def __len__(self) -> int:
        return len(self._instruments)


#: The shared, permanently disabled registry instrumented call sites
#: default to.
NULL_METRICS = MetricsRegistry(enabled=False)

_default: Optional[MetricsRegistry] = None


def default_registry() -> MetricsRegistry:
    """The process-wide registry instrumented call sites report into.

    Resolution order: a registry installed by
    :func:`set_default_registry`, else a fresh live registry when
    ``REPRO_METRICS`` is set to anything but ``0``/empty, else
    :data:`NULL_METRICS`.  The decision is cached; tests use
    :func:`reset_default_registry` to re-read the environment.
    """
    global _default
    if _default is None:
        if os.environ.get("REPRO_METRICS", "0") not in ("", "0"):
            _default = MetricsRegistry(enabled=True)
        else:
            _default = NULL_METRICS
    return _default


def set_default_registry(registry: Optional[MetricsRegistry]) -> None:
    """Install ``registry`` as the process default (None = re-resolve)."""
    global _default
    _default = registry


def reset_default_registry() -> None:
    """Forget the cached default so the environment is consulted again."""
    set_default_registry(None)
