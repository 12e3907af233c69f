"""Exporters: CSV/JSON time series and epoch reports.

Two consumption paths for probe data:

* :func:`series_to_csv` / :func:`series_to_json` dump the probe series
  for spreadsheet / notebook analysis (CSV carries the scalar series in
  one wide table; JSON carries everything, vectors and the per-window
  stats counters included).
* :func:`epoch_report` renders a human-readable per-epoch table of the
  headline dynamics (policy, queues, accuracy, coverage, power).
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from repro.telemetry.probes import EpochProbes
from repro.telemetry.series import Series


# ----------------------------------------------------------------------
# series exporters
# ----------------------------------------------------------------------
def series_to_csv(probes: EpochProbes, path: str) -> int:
    """Write all scalar probe series as one wide CSV table.

    One row per sampled epoch, one column per series; cells left empty
    where a series has no sample for that epoch (possible after ring
    wraparound).  Returns the number of data rows written.
    """
    names = probes.scalar_names()
    epochs = probes.sampled_epochs()
    columns = {
        name: dict(probes.series[name].samples()) for name in names
    }
    rows = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["epoch"] + names) + "\n")
        for epoch in epochs:
            cells = [str(epoch)]
            for name in names:
                value = columns[name].get(epoch)
                cells.append("" if value is None else f"{value:g}")
            fh.write(",".join(cells) + "\n")
            rows += 1
    return rows


def _series_doc(table: Dict[str, Series]) -> dict:
    return {
        name: {
            "epochs": series.epochs(),
            "values": [
                list(v) if isinstance(v, tuple) else v
                for v in series.points()
            ],
            "dropped": series.dropped,
        }
        for name, series in sorted(table.items())
    }


def series_to_json(probes: EpochProbes, path: Optional[str] = None) -> dict:
    """Serialise every probe series (vectors included) to JSON, with the
    stats counters' window deltas under ``counters``.

    Returns the document; also writes it to ``path`` when given.
    """
    doc = {
        "interval": probes.interval,
        "epochs_seen": probes.epochs_seen,
        "samples_taken": probes.samples_taken,
        "series": _series_doc(probes.series),
        "counters": _series_doc(probes.counters),
    }
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
    return doc


def epoch_report(probes: EpochProbes, max_rows: int = 40) -> str:
    """Human-readable per-epoch table of the headline run dynamics.

    Shows the most recent ``max_rows`` sampled epochs.  Columns cover
    the quantities the paper tracks phase-to-phase: the active policy,
    average LPQ/CAQ depth, prefetch accuracy and coverage, delayed
    regular commands, and DRAM power.
    """
    # imported lazily: repro.analysis pulls in the system package, which
    # imports repro.telemetry (would be a cycle)
    from repro.analysis.report import format_table

    epochs = probes.sampled_epochs()
    if not epochs:
        return "no epochs sampled (run too short for the epoch length?)"
    shown = epochs[-max_rows:]

    def col(name):
        series = probes.get(name)
        return dict(series.samples()) if series is not None else {}

    columns = {
        "policy": col("policy.index"),
        "lpq": col("queue.lpq.avg"),
        "caq": col("queue.caq.avg"),
        "acc": col("prefetch.accuracy"),
        "cov": col("prefetch.coverage"),
        "delayed": col("mc.delayed_regular"),
        "mw": col("dram.power_mw"),
    }
    rows = []
    for epoch in shown:
        def get(key):
            return columns[key].get(epoch, 0)
        rows.append(
            [
                epoch,
                int(get("policy")),
                round(get("lpq"), 2),
                round(get("caq"), 2),
                round(get("acc") * 100, 1),
                round(get("cov") * 100, 1),
                int(get("delayed")),
                round(get("mw"), 1),
            ]
        )
    title = (
        f"epoch telemetry ({probes.samples_taken} samples, "
        f"every {probes.interval} epoch(s))"
    )
    return format_table(
        ["epoch", "policy", "lpq avg", "caq avg", "acc %", "cov %",
         "delayed", "dram mW"],
        rows,
        title=title,
    )
