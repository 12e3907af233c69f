"""Metrics exporters: Prometheus text exposition and JSON snapshots.

Two serializations of one :class:`~repro.obs.metrics.MetricsRegistry`:

* :func:`registry_snapshot` / :func:`write_snapshot` — a JSON document
  carrying every metric (plus an optional sweep-progress section),
  written per sweep to ``.repro-results/metrics/latest.json`` so a
  finished sweep's counters survive the process and can be re-served
  later (``repro obs serve --dir``) or archived as a CI artifact;
* :func:`render_exposition` — Prometheus text exposition format 0.0.4
  (the ``# HELP`` / ``# TYPE`` / sample-line shape every scraper and
  ``promtool`` understand) of one such document, live or loaded from
  disk, served at ``/metrics`` by :mod:`repro.obs.server`.

:func:`parse_exposition` parses exposition sample lines into a flat
dict — the round-trip the obs CI smoke test and the endpoint tests
assert on.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Mapping, Optional, Tuple

from repro.common.files import durable_write
from repro.obs import paths
from repro.obs.metrics import MetricsRegistry

#: Schema version of the JSON snapshot document.
SNAPSHOT_VERSION = 1

#: Content type ``/metrics`` responses are served under.
EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _fmt(value: float) -> str:
    """Prometheus sample-value text: integral floats without the dot."""
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _labels_text(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in labels.items()
    )
    return "{" + inner + "}"


def _merged(labels: Mapping[str, str], extra: Mapping[str, str]) -> Dict[str, str]:
    merged = dict(labels)
    merged.update(extra)
    return merged


def _histogram_lines(
    name: str,
    labels: Mapping[str, str],
    buckets: List[float],
    counts: List[float],
    total: float,
    count: float,
) -> List[str]:
    """Cumulative ``_bucket``/``_sum``/``_count`` lines for one child."""
    lines = []
    cumulative = 0.0
    for bound, bucket_count in zip(list(buckets) + ["+Inf"], counts):
        cumulative += bucket_count
        le = "+Inf" if bound == "+Inf" else _fmt(bound)
        bucket_labels = _merged(labels, {"le": le})
        lines.append(f"{name}_bucket{_labels_text(bucket_labels)} {_fmt(cumulative)}")
    lines.append(f"{name}_sum{_labels_text(labels)} {_fmt(total)}")
    lines.append(f"{name}_count{_labels_text(labels)} {_fmt(count)}")
    return lines


def registry_snapshot(
    registry: MetricsRegistry,
    progress: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """JSON-ready document of every metric (plus optional progress).

    ``progress`` is a plain mapping (typically
    ``SweepProgress.snapshot()``) embedded verbatim under the
    ``"progress"`` key so one file captures both the counters and the
    final sweep state.
    """
    metrics: List[Dict[str, object]] = []
    for instrument in registry.collect():
        entry: Dict[str, object] = {
            "name": instrument.name,
            "type": instrument.kind,
            "help": instrument.help,
            "labelnames": list(instrument.labelnames),
            "samples": [],
        }
        if instrument.kind == "histogram":
            entry["buckets"] = list(instrument.buckets)
        for labels, value in instrument.samples():
            if instrument.kind == "histogram":
                counts, total, count = value
                entry["samples"].append(
                    {"labels": labels, "counts": counts,
                     "sum": total, "count": count}
                )
            else:
                entry["samples"].append({"labels": labels, "value": value})
        metrics.append(entry)
    document: Dict[str, object] = {
        "version": SNAPSHOT_VERSION,
        "generated_unix": time.time(),
        "metrics": metrics,
    }
    if progress is not None:
        document["progress"] = dict(progress)
    return document


def write_snapshot(
    registry: MetricsRegistry,
    directory: Optional[str] = None,
    progress: Optional[Mapping[str, object]] = None,
    filename: str = "latest.json",
) -> str:
    """Atomically write one snapshot file; returns its path.

    ``directory`` defaults to ``<store root>/metrics``
    (:func:`repro.obs.paths.metrics_dir`).
    """
    directory = paths.metrics_dir() if directory is None else directory
    document = registry_snapshot(registry, progress=progress)
    path = os.path.join(directory, filename)
    with durable_write(path) as handle:
        json.dump(document, handle, sort_keys=True, indent=1)
    return path


def load_snapshot(path: str) -> Dict[str, object]:
    """Read one snapshot document back from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def latest_snapshot(directory: Optional[str] = None) -> Optional[Tuple[str, Dict[str, object]]]:
    """Newest readable ``(path, document)`` in a snapshot directory.

    Newest by modification time across ``*.json`` files; unreadable or
    non-JSON files are skipped.  Returns None when the directory is
    missing or holds no snapshot.
    """
    directory = paths.metrics_dir() if directory is None else directory
    try:
        names = [n for n in os.listdir(directory)
                 if n.endswith(".json") and not n.startswith(".")]
    except OSError:
        return None
    for name in sorted(
        names,
        key=lambda n: os.path.getmtime(os.path.join(directory, n)),
        reverse=True,
    ):
        path = os.path.join(directory, name)
        try:
            return path, load_snapshot(path)
        except (OSError, ValueError):
            continue
    return None


def render_exposition(document: Mapping[str, object]) -> str:
    """A snapshot document in Prometheus text exposition format 0.0.4.

    Labels print in the metric's ``labelnames`` order, which a snapshot
    read back from disk (its keys sorted) would otherwise lose, so a
    live registry and its written snapshot render byte for byte alike.
    """
    lines: List[str] = []
    for entry in document.get("metrics", ()):
        samples = entry.get("samples", [])
        if not samples:
            continue
        name = entry["name"]
        labelnames = entry.get("labelnames", ())
        if entry.get("help"):
            lines.append(f"# HELP {name} {_escape_help(entry['help'])}")
        lines.append(f"# TYPE {name} {entry['type']}")
        for sample in samples:
            labels = sample.get("labels", {})
            labels = {label: labels[label] for label in labelnames} or labels
            if entry["type"] == "histogram":
                lines.extend(
                    _histogram_lines(
                        name, labels, list(entry.get("buckets", [])),
                        sample["counts"], sample["sum"], sample["count"],
                    )
                )
            else:
                lines.append(
                    f"{name}{_labels_text(labels)} {_fmt(sample['value'])}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def parse_exposition(
    text: str,
) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Parse exposition sample lines into ``{(name, labels): value}``.

    ``labels`` is a tuple of sorted ``(label, value)`` pairs.  Comment
    and blank lines are skipped; malformed sample lines raise
    ``ValueError`` — the CI smoke test uses this as its "exposition
    parses" assertion.
    """
    out: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            name, rest = line.split("{", 1)
            label_text, value_text = rest.rsplit("}", 1)
            labels = []
            for part in _split_labels(label_text):
                label, quoted = part.split("=", 1)
                if not (quoted.startswith('"') and quoted.endswith('"')):
                    raise ValueError(f"malformed label in {raw!r}")
                value = (
                    quoted[1:-1]
                    .replace("\\n", "\n")
                    .replace('\\"', '"')
                    .replace("\\\\", "\\")
                )
                labels.append((label.strip(), value))
            key = (name.strip(), tuple(sorted(labels)))
        else:
            name, value_text = line.rsplit(None, 1)
            key = (name.strip(), ())
        out[key] = float(value_text)
    return out


def _split_labels(label_text: str) -> List[str]:
    """Split ``a="x",b="y"`` on commas outside quoted values."""
    parts: List[str] = []
    current: List[str] = []
    in_quotes = False
    escaped = False
    for char in label_text:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
            current.append(char)
            continue
        if char == "," and not in_quotes:
            parts.append("".join(current))
            current = []
            continue
        current.append(char)
    if current:
        parts.append("".join(current))
    return [p for p in (part.strip() for part in parts) if p]
