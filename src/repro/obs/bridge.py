"""Bridges from existing instrumentation into the metrics registry.

The simulator already measures itself — ``RunResult.stats`` carries the
end-of-run counter bag, ``System.loop_stats`` the main-loop accounting,
and the telemetry :class:`~repro.telemetry.tracer.Tracer` its per-kind
event counts.  This module folds those *coarse per-run totals* into a
metrics registry, once per completed run — never per cycle, so the
simulated machine stays free of metrics calls on its hot paths (and of
wall-clock reads entirely; everything here is counts).

:func:`publish_run` reads only the ``RunResult``, so the sweep engine
calls it in the parent for every job it executed, whichever process or
fidelity tier ran it.  :func:`publish_loop` and :func:`publish_tracer`
need the live ``System`` and are called by ``System._collect`` with the
process's default registry.  A disabled registry returns immediately.
"""

from __future__ import annotations

from typing import Mapping

from repro.obs.metrics import MetricsRegistry

#: ``RunResult.stats`` keys mirrored as per-run counters, with the
#: metric suffix each one feeds (coarse DRAM/prefetch traffic totals).
_STAT_BRIDGES = (
    ("dram.issued_reads", "dram_reads"),
    ("dram.issued_writes", "dram_writes"),
    ("pb.inserts", "prefetches"),
)


def publish_run(registry: MetricsRegistry, result, loop_mode: str) -> None:
    """Fold one executed job's totals into ``registry``.

    ``result`` is a :class:`~repro.system.results.RunResult` (typed
    loosely to keep this package import-light); ``loop_mode`` is the
    main-loop mode that ran it, or ``"fast"`` for a fast-tier result.
    """
    if not registry.enabled:
        return
    registry.counter(
        "repro_runs_completed_total",
        "Jobs a sweep executed, by configuration and loop mode.",
        ("config", "loop_mode"),
    ).inc(config=result.config_name, loop_mode=loop_mode)
    registry.counter(
        "repro_run_cycles_total", "Simulated MC cycles across all runs."
    ).inc(result.cycles)
    registry.counter(
        "repro_run_instructions_total", "Retired instructions across all runs."
    ).inc(result.instructions)
    stats = result.stats
    for stat_key, suffix in _STAT_BRIDGES:
        value = stats.get(stat_key, 0)
        if value:
            registry.counter(
                f"repro_run_{suffix}_total",
                f"Per-run total of the {stat_key} counter.",
            ).inc(value)


def publish_loop(
    registry: MetricsRegistry, loop_stats: Mapping[str, object]
) -> None:
    """Fold one run's main-loop accounting (``System.loop_stats``)."""
    if not registry.enabled:
        return
    mode = str(loop_stats.get("mode", "")) or "unknown"
    registry.counter(
        "repro_loop_ticks_total",
        "Main-loop ticks actually executed, by loop mode.",
        ("loop_mode",),
    ).inc(loop_stats.get("ticks_executed", 0), loop_mode=mode)
    registry.counter(
        "repro_loop_jumps_total", "Event-driven fast-forward jumps taken."
    ).inc(loop_stats.get("jumps", 0))
    registry.counter(
        "repro_loop_cycles_skipped_total",
        "Cycles covered by fast-forward jumps instead of ticks.",
    ).inc(loop_stats.get("cycles_skipped", 0))


def publish_tracer(registry: MetricsRegistry, tracer) -> None:
    """Mirror a tracer's per-kind event counts and overhead.

    ``tracer`` is a :class:`~repro.telemetry.tracer.Tracer`; its
    :meth:`~repro.telemetry.tracer.Tracer.metrics_snapshot` is the
    small bridge API the telemetry package exposes for exactly this.
    """
    if not registry.enabled:
        return
    snapshot = tracer.metrics_snapshot()
    events = registry.counter(
        "repro_telemetry_events_total",
        "Telemetry events emitted across traced runs, by kind.",
        ("kind",),
    )
    for kind, count in sorted(snapshot["events"].items()):
        events.inc(count, kind=kind)
    registry.counter(
        "repro_telemetry_overhead_seconds_total",
        "Self-measured wall clock spent inside tracer dispatch.",
    ).inc(snapshot["overhead_seconds"])
