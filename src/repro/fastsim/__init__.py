"""Fast analytic simulation tier with validated error bars.

The package has four layers (docs/fidelity.md walks the hierarchy):

* :mod:`~repro.fastsim.version` — tier names and the fast-model
  version that keys fast results in the store;
* :mod:`~repro.fastsim.banktables` + :mod:`~repro.fastsim.model` —
  the analytic model itself (milliseconds per grid cell);
* :mod:`~repro.fastsim.gate` — the FidelityGate that measures the
  model's error against the exact simulator and turns it into
  per-metric error bars;
* :mod:`~repro.fastsim.orchestrator` — the ``exact | fast | auto``
  sweep policies built from the two tiers, and the validation plan
  that local sweeps and the fabric client both run.
"""

# Only the leaf version module is imported eagerly: the sweep engine
# imports it during repro.experiments' own init, and pulling the model
# or orchestrator in at that point would close an import cycle
# (orchestrator -> sweep -> fastsim).  Everything else resolves lazily
# through PEP 562 module __getattr__.
from repro.fastsim.version import (
    FAST_MODEL_VERSION,
    FIDELITY_AUTO,
    FIDELITY_EXACT,
    FIDELITY_FAST,
    JOB_FIDELITIES,
    SWEEP_FIDELITIES,
)

_LAZY = {
    "CalibrationRecord": "repro.fastsim.gate",
    "FidelityGate": "repro.fastsim.gate",
    "FidelityOutcome": "repro.fastsim.orchestrator",
    "run_fidelity_sweep": "repro.fastsim.orchestrator",
    "predict": "repro.fastsim.model",
    "simulate_job_fast": "repro.fastsim.model",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(list(globals()) + list(_LAZY))


__all__ = [
    "CalibrationRecord",
    "FidelityGate",
    "FidelityOutcome",
    "FAST_MODEL_VERSION",
    "FIDELITY_AUTO",
    "FIDELITY_EXACT",
    "FIDELITY_FAST",
    "JOB_FIDELITIES",
    "SWEEP_FIDELITIES",
    "predict",
    "run_fidelity_sweep",
    "simulate_job_fast",
]
