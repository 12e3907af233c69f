"""The bridge from a finished run into the metrics registry.

The simulator already measures itself: ``RunResult.stats`` carries the
end-of-run counter bag.  :func:`publish_run` folds its *coarse per-run
totals* into a metrics registry, once per completed run — never per
cycle, so the simulated machine stays free of metrics calls (and of
wall-clock reads entirely; everything here is counts).  It reads only
the ``RunResult``, so the sweep engine calls it in the parent for every
job it executed, whichever process or fidelity tier ran it.  A
disabled registry returns immediately.
"""

from __future__ import annotations

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
