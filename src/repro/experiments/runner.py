"""Shared experiment runner: traces, defaults, and one-call entry points.

``run()`` (one cell) and ``run_suite()`` (a benchmark x config grid)
are wrappers over :func:`repro.experiments.sweep.run_jobs`, the one
run path: results are read from and written to the content-addressed
:mod:`repro.experiments.store` under the job key (on disk, or with the
store off the process-memory store that :func:`clear_cache` empties),
and ``jobs=N`` fans cells out to worker processes with results equal,
field for field, to serial ones.  A config variant is a
:class:`~repro.experiments.sweep.Job` with ``overrides``.  Probed runs
call :func:`simulate_job` (or ``simulate``) directly and are never
stored.

Generated traces are memoised per (benchmark, accesses, seed), holding
at most :data:`TRACE_CACHE_RECORDS` records (least recently used
first out), so long-lived processes stay within a memory bound.

Environment knobs (a value that is not an integer raises
``ValueError`` naming the variable):

* ``REPRO_TRACE_ACCESSES`` — trace length per benchmark (default 20000;
  raise for tighter statistics, lower for quick smoke runs).
* ``REPRO_SEED`` — base RNG seed (default 1).
* ``REPRO_JOBS`` — default worker count for ``run_suite`` and the
  figure modules (default 1).
* ``REPRO_STORE`` / ``REPRO_STORE_DIR`` — disable (``0``) or relocate
  the on-disk result store.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.common.config import SystemConfig
from repro.experiments import store
from repro.obs.progress import SweepProgress
from repro.system.results import RunResult
from repro.system.simulator import simulate
from repro.telemetry.probes import EpochProbes
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import generate_trace
from repro.workloads.trace import Trace


def env_int(name: str, default: int) -> int:
    """Integer environment variable ``name`` (``default`` when unset)."""
    value = os.environ.get(name)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        raise ValueError(
            f"environment variable {name}={value!r} is not an integer"
        ) from None


def default_accesses() -> int:
    """Trace length used when not specified (env-overridable)."""
    return env_int("REPRO_TRACE_ACCESSES", 20000)


def default_seed() -> int:
    """Base RNG seed (env-overridable via REPRO_SEED)."""
    return env_int("REPRO_SEED", 1)


def default_jobs() -> int:
    """Default ``run_suite`` worker count (env-overridable, min 1)."""
    return max(1, env_int("REPRO_JOBS", 1))


def resolve_accesses(accesses: Optional[int]) -> int:
    """Apply the default for ``None`` and validate the trace length.

    An explicit ``accesses=0`` is an error, not a request for the
    default — ``or``-style defaulting used to swallow it silently.
    """
    if accesses is None:
        accesses = default_accesses()
    accesses = int(accesses)
    if accesses <= 0:
        raise ValueError(
            f"accesses must be a positive trace length, got {accesses!r}"
        )
    return accesses


#: Most trace records :func:`get_trace` keeps (about 108 B each, so
#: ~10 MiB): five 20000-access traces.  Grid-order callers (every
#: config of one benchmark in a row) regenerate nothing, and an SMT
#: job's per-thread traces fit together.
TRACE_CACHE_RECORDS = 100_000

_trace_cache: "OrderedDict[Tuple[str, int, int], Trace]" = OrderedDict()
_trace_records = 0  # records held by _trace_cache
_sim_count = 0  # simulate() calls actually executed by this process


def get_trace(benchmark: str, accesses: Optional[int] = None, seed: Optional[int] = None) -> Trace:
    """Deterministic trace for a named benchmark (cached, LRU-bounded).

    ``trace:<digest>:<path>`` names replay (a prefix of) a converted
    external trace file instead of synthesising one; ``wl:<json>``
    names synthesise from the inline-encoded workload.  Both resolve
    identically in every process — see :mod:`repro.workloads.dynamic`.
    """
    global _trace_records
    accesses = resolve_accesses(accesses)
    seed = default_seed() if seed is None else seed
    key = (benchmark, accesses, seed)
    trace = _trace_cache.get(key)
    if trace is not None:
        _trace_cache.move_to_end(key)
        return trace
    if benchmark.startswith("trace:"):
        from repro.workloads.dynamic import load_trace_benchmark

        trace = load_trace_benchmark(benchmark, accesses)
    else:
        profile = get_profile(benchmark)
        trace = generate_trace(profile.workload, accesses, seed=seed)
    _trace_cache[key] = trace
    _trace_records += len(trace)
    # Evict least recently used first; the trace just made always stays.
    while _trace_records > TRACE_CACHE_RECORDS and len(_trace_cache) > 1:
        _, evicted = _trace_cache.popitem(last=False)
        _trace_records -= len(evicted)
    return trace


def simulate_job(
    config: SystemConfig,
    benchmark: str,
    accesses: int,
    seed: int,
    threads: int = 1,
    probes: Optional[EpochProbes] = None,
) -> RunResult:
    """Simulate one fully-resolved job (no store).

    This is the single execution path of the exact tier, shared by the
    sweep's serial path and its workers, which is what makes the
    parallel == serial determinism guarantee hold: there is only one
    way a job turns into a result.
    """
    global _sim_count
    if threads == 1:
        traces = [get_trace(benchmark, accesses, seed)]
    else:
        traces = [
            get_trace(benchmark, accesses, seed + t) for t in range(threads)
        ]
    _sim_count += 1
    return simulate(config, traces, probes=probes)


def run(
    benchmark: str,
    config_name: str,
    accesses: Optional[int] = None,
    seed: Optional[int] = None,
    threads: int = 1,
    scheduler: str = "ahb",
    use_store: Optional[bool] = None,
) -> RunResult:
    """One benchmark under one named configuration: a one-job, in-process
    ``run_jobs`` call.  ``use_store`` overrides the ``REPRO_STORE``
    default (off, results go to the process-memory store)."""
    from repro.experiments import sweep

    job = sweep.Job(benchmark, config_name, accesses=accesses, seed=seed,
                    threads=threads, scheduler=scheduler)
    return sweep.run_jobs([job], use_store=use_store).results[0]


def run_suite(
    benchmarks: Iterable[str],
    config_names: Iterable[str] = ("NP", "PS", "MS", "PMS"),
    accesses: Optional[int] = None,
    seed: Optional[int] = None,
    threads: int = 1,
    scheduler: str = "ahb",
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    use_store: Optional[bool] = None,
    progress: Optional[SweepProgress] = None,
) -> Dict[str, Dict[str, RunResult]]:
    """A benchmark x config grid: ``expand_grid`` plus one ``run_jobs``
    call, with ``jobs`` workers (default ``REPRO_JOBS``), a per-job
    ``timeout`` in seconds, and an optional live ``progress``."""
    from repro.experiments import sweep
    from repro.obs import spans as obs_spans

    benchmarks = tuple(benchmarks)
    config_names = tuple(config_names)
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    specs = sweep.expand_grid(benchmarks, config_names, accesses=accesses,
                              seed=seed, threads=threads, scheduler=scheduler)
    with obs_spans.default_collector().span(
        "sweep.suite", benchmarks=len(benchmarks),
        configs=len(config_names), jobs=jobs,
    ) as suite_span:
        outcome = sweep.run_jobs(
            specs, jobs=jobs, timeout=timeout, use_store=use_store,
            progress=progress, trace_parent=suite_span.context(),
        )
    results = iter(outcome.results)
    return {b: {c: next(results) for c in config_names} for b in benchmarks}


def clear_cache() -> None:
    """Drop cached traces, the memory store and the simulation count.

    Tests use this for isolation.  The on-disk store is untouched (use
    ``store.get_store().clear()`` for that).
    """
    global _sim_count, _trace_records
    _trace_cache.clear()
    _trace_records = 0
    store.active_store(use_store=False).clear()
    _sim_count = 0


def cache_info() -> Mapping[str, int]:
    """Traces and trace records held, plus simulations executed."""
    return {
        "traces": len(_trace_cache),
        "trace_records": _trace_records,
        "simulated": _sim_count,
    }
