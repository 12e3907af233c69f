"""repro.telemetry — epoch-resolved series of one run.

The simulator's only recorder, for both fidelity tiers:

* :mod:`repro.telemetry.series` — bounded per-epoch time series.
* :mod:`repro.telemetry.probes` — :class:`EpochProbes`, the per-epoch
  series of one run of either tier: SLH snapshots, queue depths,
  prefetch accuracy/coverage, policy index and DRAM power for an exact
  run, the window delta of every running stats counter
  (``probes.counter(name)``), the fast model's own quantities for a
  fast one.
* :mod:`repro.telemetry.exporters` — CSV/JSON series dumps and the
  human-readable epoch report.

See docs/telemetry.md for the series catalogue.
"""

from repro.telemetry.exporters import epoch_report, series_to_csv, series_to_json
from repro.telemetry.probes import EpochProbes
from repro.telemetry.series import Series

__all__ = [
    "EpochProbes",
    "Series",
    "epoch_report",
    "series_to_csv",
    "series_to_json",
]
