"""Registry of every metric name the fleet can emit.

GENERATED by ``tools/lint.py --write-registry`` — do not edit by hand.
CI regenerates this file and fails on any diff, so every new metric (or
label) lands as an explicit, reviewable line, and every typo'd scrape
shows up as an unexplained addition.

``METRIC_NAMES`` maps each ``repro_*`` metric to ``(kind, labels)``.
Names declared via ``# lint: metric-names(...)`` pragmas (runtime-
computed families) are included.
"""

from __future__ import annotations

METRIC_NAMES = {
    "repro_fabric_job_seconds": ("histogram", ("worker",)),
    "repro_fabric_jobs_total": ("counter", ("outcome", "worker")),
    "repro_fabric_lease_events_total": ("counter", ("event",)),
    "repro_fabric_sweeps_total": ("counter", ()),
    "repro_fabric_worker_metric_total": ("counter", ("metric", "worker")),
    "repro_fuzz_best_score": ("gauge", ("objective",)),
    "repro_fuzz_candidates_total": ("counter", ("objective", "origin")),
    "repro_loop_cycles_skipped_total": ("counter", ()),
    "repro_loop_jumps_total": ("counter", ()),
    "repro_loop_ticks_total": ("counter", ("loop_mode",)),
    "repro_postmortem_evictions_total": ("counter", ()),
    "repro_run_cycles_total": ("counter", ()),
    "repro_run_dram_reads_total": ("counter", ()),
    "repro_run_dram_writes_total": ("counter", ()),
    "repro_run_instructions_total": ("counter", ()),
    "repro_run_prefetches_total": ("counter", ()),
    "repro_runs_completed_total": ("counter", ("config", "loop_mode")),
    "repro_store_bytes_written_total": ("counter", ()),
    "repro_store_reads_total": ("counter", ("result",)),
    "repro_store_writes_total": ("counter", ()),
    "repro_sweep_events_total": ("counter", ("event",)),
    "repro_sweep_job_seconds": ("histogram", ("mode",)),
    "repro_sweep_jobs_total": ("counter", ("outcome",)),
    "repro_sweep_queue_wait_seconds": ("histogram", ()),
    "repro_telemetry_events_total": ("counter", ("kind",)),
    "repro_telemetry_overhead_seconds_total": ("counter", ()),
}


def is_known_metric(name: str) -> bool:
    """Is ``name`` registered (exposition suffixes accepted)?"""
    if name in METRIC_NAMES:
        return True
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix) and name[: -len(suffix)] in METRIC_NAMES:
            return True
    return False
