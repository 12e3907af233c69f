"""Filesystem layout of the obs subsystem's on-disk artifacts.

Everything obs writes lives under the same root as the result store
(``REPRO_STORE_DIR`` or ``.repro-results``):

* ``<root>/metrics/``    — JSON metrics snapshots (one per sweep, the
  newest always at ``latest.json``), servable by ``repro obs serve``;
* ``<root>/postmortem/`` — crash/timeout post-mortems written by the
  flight recorder (:mod:`repro.obs.flightrec`);
* ``<root>/spans/``      — span-trace snapshots written by the span
  collector (:mod:`repro.obs.spans`), exportable with
  ``repro obs trace export``.

:func:`obs_root` is the one definition of that root: the result store
imports it as :func:`repro.experiments.store.store_root`, so
``repro.obs`` stays importable by the simulator core without pulling in
the experiments layer.
"""

from __future__ import annotations

import os

#: Default artifact and result-store root, relative to the working
#: directory.
DEFAULT_ROOT = ".repro-results"


def obs_root() -> str:
    """Artifact root: ``REPRO_STORE_DIR`` or ``.repro-results``."""
    return os.environ.get("REPRO_STORE_DIR") or DEFAULT_ROOT


def metrics_dir(root: str | None = None) -> str:
    """Directory metrics snapshots are written to (not created here)."""
    return os.path.join(root if root is not None else obs_root(), "metrics")


def postmortem_dir(root: str | None = None) -> str:
    """Directory crash post-mortems are written to (not created here)."""
    return os.path.join(root if root is not None else obs_root(), "postmortem")


def spans_dir(root: str | None = None) -> str:
    """Directory span snapshots are written to (not created here)."""
    return os.path.join(root if root is not None else obs_root(), "spans")
