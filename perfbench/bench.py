"""Measure one workload: the untraced run and the traced per-layer run.

:func:`measure` gives the end-to-end metrics from untraced passes;
:func:`trace` runs one untraced and one traced pass and gives the
per-layer metrics.  Both check the program's outputs outside the timed
region and return a :class:`Report`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import resource
import statistics
from contextlib import ExitStack
from time import perf_counter
from typing import Dict, List, Sequence
from unittest import mock

from perfbench.layers import (
    LayerCollector,
    SimProfiler,
    orchestration_metrics,
    orchestration_patches,
    spanned,
)
from perfbench.workloads import (
    DIGEST_FILE,
    DIGEST_SEED,
    HostSpeed,
    Workload,
    digest,
    label,
)
from repro.experiments import runner
from repro.obs import spans

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9


@dataclasses.dataclass
class Report:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    messages: List[str]
    diagnostics: Dict[str, object]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.messages


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0 < q < 1) by linear interpolation."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[round(q * 100) - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_diagnostics(workload: Workload) -> Dict[str, object]:
    """Recorded beside every result; never gated.  The calibration loop
    score is the median rate of the workload's :class:`HostSpeed` slices."""
    return {
        "seed": workload.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "calibration_loops_per_s": round(workload.speed.loops_per_s()),
        "calibration_slices": len(workload.speed.samples),
    }


def measure(workload: Workload, seconds: float) -> Report:
    """End-to-end metrics over as many untraced passes as ``seconds`` allow."""
    # Warming up first keeps first-use costs (imports, lazy tables) out of
    # the set-up times.  Set-up host seconds are scaled by the run's median
    # calibration slice: the two slices around a set-up of a millisecond
    # are too noisy to scale it alone.
    workload.warm_up()
    setup_host_s = statistics.median(workload.setup() for _ in range(SETUP_REPEATS))
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(workload.run_pass())
    setup_s = setup_host_s * workload.speed.loops_per_s() / HostSpeed.REFERENCE_RATE
    rss = peak_rss_mb()
    failed, messages = workload.check(passes)
    errors = workload.fast_errors(passes)
    job_ms: Dict[str, List[float]] = {}
    for one in passes:
        for key, job_s in one.job_s.items():
            job_ms.setdefault(key, []).append(job_s * 1e3)
    per_job = [statistics.median(samples) for samples in job_ms.values()]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(one.wall_s for one in passes),
        "jobs_per_s": statistics.median(one.jobs / one.wall_s for one in passes),
        "mc_cycles_per_s": statistics.median(one.cycles / one.wall_s for one in passes),
        "job_ms_p50": quantile(per_job, 0.5),
        "job_ms_p90": quantile(per_job, 0.9),
        "peak_rss_mb": rss,
        "fast_err_cycles": errors["cycles"],
        "fast_err_ipc": errors["ipc"],
    }
    attempted = sum(len(one.results) for one in passes)
    return Report(metrics, attempted, failed, messages, {
        "passes": len(passes),
        "job_ms_samples": len(per_job),
        "failed_frac": failed / attempted,
        "host_wall_s": statistics.median(one.host_wall_s for one in passes),
    })


def trace(workload: Workload) -> Report:
    """Per-layer metrics: one untraced pass, then one traced pass."""
    workload.setup()
    workload.warm_up()
    untraced = workload.run_pass()
    profiler = SimProfiler()
    collector = LayerCollector()
    with ExitStack() as stack:
        orchestration_patches(collector, stack)
        stack.enter_context(mock.patch.object(
            runner, "simulate", spanned(collector, "perf.simulator.run", profiler.simulate)))
        spans.set_default_collector(collector)
        stack.callback(spans.reset_default_collector)
        root = collector.span("perf.pass", workload=workload.name)
        traced = workload.run_pass(profiler=profiler, collector=collector)
        root_doc = root.finish()
    # check() holds the traced pass to the untraced one, field for field
    failed, messages = workload.check([untraced, traced])
    if workload.simulator_only:
        layer_sum = sum(profiler.self_s.values())
        wall = traced.host_wall_s
        if abs(layer_sum - wall) > 0.01 * wall:
            messages.append(f"simulator layer self times sum to {layer_sum:.4f}s, "
                            f"traced wall is {wall:.4f}s")
    metrics = profiler.metrics(untraced.exact_s)
    metrics.update(orchestration_metrics(collector.spans(), root_doc, traced.host_wall_s))
    exact = [r for r in untraced.results if r.fidelity_tier == "exact"]
    inserts = sum(r.stats.get("pb.inserts", 0) for r in exact)
    reads = sum(r.stats.get("mc.reads_arrived", 0) for r in exact)
    metrics["prefetch_ms.useful_frac"] = (
        sum(r.stats.get("pb.read_hits", 0) for r in exact) / inserts if inserts else 0.0
    )
    metrics["prefetch_ms.coverage"] = (
        sum(r.pb_hits for r in exact) / reads if reads else 0.0
    )
    gate = traced.extra.get("gate", {})
    for metric in ("cycles", "ipc", "coverage"):
        metrics[f"fastsim.gate_err_{metric}"] = gate.get(metric, 0.0)
    metrics["store.get_ms_per_job"] = untraced.extra.get("store_get_ms_per_job", 0.0)
    metrics["runner.cache_ms_per_job"] = untraced.extra.get("cache_ms_per_job", 0.0)
    metrics["trace.overhead_frac"] = traced.wall_s / untraced.wall_s - 1.0  # reference s
    return Report(metrics, len(untraced.results) + len(traced.results), failed, messages,
                  {"spans": len(collector.spans()), "spans_dropped": collector.dropped})


def write_digests(workload: Workload) -> int:
    """Pin ``workload``'s default-size results for the digest seed."""
    if workload.seed != DIGEST_SEED or not workload.default_size:
        raise ValueError(f"digests are pinned for seed {DIGEST_SEED} at default sizes")
    workload.setup()
    results = workload.run_pass().results
    try:
        with open(DIGEST_FILE, encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        document = {"seed": DIGEST_SEED, "workloads": {}}
    document["workloads"][workload.name] = {label(r): digest(r) for r in results}
    with open(DIGEST_FILE, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return len(results)
