"""Shared experiment runner: one job, resolved through the result store.

``run()`` simulates one (benchmark, config) pair deterministically.
Results are cached in one place, the content-addressed
:mod:`repro.experiments.store` under the job key
(:func:`store.job_spec`, which fingerprints the built config): JSON
under ``.repro-results/``, shared across sessions and processes, or —
with the store off — the process-memory store that
:func:`clear_cache` empties.  Every read decodes a fresh result object.

``run_suite(jobs=N)`` fans a whole benchmark x config grid out across
worker processes via :mod:`repro.experiments.sweep`; both workers and
the serial path read and write through the same store, and parallel
results are guaranteed to compare equal, field for field, to serial
ones (the simulator is deterministic and the store codec is lossless).

Telemetry-carrying runs (``tracer``/``probes``) always execute serially
in-process and are never stored — their side effects are the point of
running them.

Generated traces are memoised per (benchmark, accesses, seed), holding
at most :data:`TRACE_CACHE_RECORDS` records (least recently used
first out), so long-lived processes stay within a memory bound.

Environment knobs:

* ``REPRO_TRACE_ACCESSES`` — trace length per benchmark (default 20000;
  raise for tighter statistics, lower for quick smoke runs).
* ``REPRO_SEED`` — base RNG seed (default 1).
* ``REPRO_JOBS`` — default worker count for ``run_suite`` (default 1).
* ``REPRO_STORE`` / ``REPRO_STORE_DIR`` — disable (``0``) or relocate
  the on-disk result store.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple

from repro.common.config import SystemConfig
from repro.experiments import store
from repro.obs.metrics import default_registry
from repro.obs.progress import SweepProgress
from repro.system.presets import make_config
from repro.system.results import RunResult
from repro.system.simulator import simulate
from repro.telemetry.probes import EpochProbes
from repro.telemetry.tracer import Tracer
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import generate_trace
from repro.workloads.trace import Trace


def default_accesses() -> int:
    """Trace length used when not specified (env-overridable)."""
    return int(os.environ.get("REPRO_TRACE_ACCESSES", "20000"))


def default_seed() -> int:
    """Base RNG seed (env-overridable via REPRO_SEED)."""
    return int(os.environ.get("REPRO_SEED", "1"))


def default_jobs() -> int:
    """Default ``run_suite`` worker count (env-overridable, min 1)."""
    return max(1, int(os.environ.get("REPRO_JOBS", "1")))


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
    tracer: Optional[Tracer] = None,
    probes: Optional[EpochProbes] = None,
) -> RunResult:
    """Simulate one fully-resolved job (no store).

    This is the single execution path shared by ``run()`` and the sweep
    workers, which is what makes the parallel == serial determinism
    guarantee hold: there is only one way a job turns into a result.
    """
    global _sim_count
    if threads == 1:
        traces = [get_trace(benchmark, accesses, seed)]
    else:
        traces = [
            get_trace(benchmark, accesses, seed + t) for t in range(threads)
        ]
    _sim_count += 1
    return simulate(config, traces, tracer=tracer, probes=probes)


def _count_run(source: str) -> None:
    """Mirror one :func:`run` resolution into the metrics registry."""
    registry = default_registry()
    if registry.enabled:
        registry.counter(
            "repro_runs_total",
            "runner.run() calls resolved, by source (store, simulated).",
            ("source",),
        ).inc(source=source)


def run(
    benchmark: str,
    config_name: str,
    accesses: Optional[int] = None,
    seed: Optional[int] = None,
    threads: int = 1,
    scheduler: str = "ahb",
    mutate: Optional[Callable[[SystemConfig], SystemConfig]] = None,
    mutate_key: Optional[str] = None,
    tracer: Optional[Tracer] = None,
    probes: Optional[EpochProbes] = None,
    use_store: Optional[bool] = None,
) -> RunResult:
    """Simulate one benchmark under one named configuration (stored).

    ``mutate`` applies a config transformation (e.g. a sensitivity-sweep
    override); pass a distinct ``mutate_key`` to make such runs
    storable, otherwise they bypass the store.  The store key
    fingerprints the mutated config, so changing what a ``mutate_key``
    does can never serve the old result.

    ``tracer`` / ``probes`` pass through to :func:`simulate`.  Traced
    runs bypass the store: their side effects — emitted events, probe
    samples — are the point of running them.

    ``use_store`` overrides the ``REPRO_STORE`` default for this call;
    off, results go to the process-memory store instead of the disk.
    """
    accesses = resolve_accesses(accesses)
    seed = default_seed() if seed is None else seed
    traced = (tracer is not None and tracer.enabled) or probes is not None
    config = make_config(config_name, threads=threads, scheduler=scheduler)
    if mutate is not None:
        config = mutate(config)
    results = spec = None
    if not traced and (mutate is None or mutate_key is not None):
        results = store.active_store(use_store)
        spec = store.job_spec(benchmark, config_name, accesses, seed,
                              threads, scheduler, mutate_key, config)
        stored = results.get(spec)
        if stored is not None:
            _count_run("store")
            return stored

    result = simulate_job(config, benchmark, accesses, seed, threads,
                          tracer=tracer, probes=probes)
    _count_run("simulated")
    if results is not None:
        results.put(spec, result)
    return result


def run_configs(
    benchmark: str,
    config_names: Iterable[str],
    **kwargs,
) -> Dict[str, RunResult]:
    """Run one benchmark under several configurations (serially)."""
    return {name: run(benchmark, name, **kwargs) for name in config_names}


#: run() kwargs the parallel sweep path models explicitly.  Anything
#: else — telemetry, mutate callables, mutate_key, or a typo — forces
#: the serial path, where run() either handles it or raises TypeError,
#: so both paths see identical semantics and job keys.
_PARALLEL_KWARGS = frozenset(
    {"accesses", "seed", "threads", "scheduler", "use_store"}
)
_SERIAL_ONLY_KWARGS = frozenset({"tracer", "probes", "mutate", "mutate_key"})


def run_suite(
    benchmarks: Iterable[str],
    config_names: Iterable[str] = ("NP", "PS", "MS", "PMS"),
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    progress: Optional[SweepProgress] = None,
    **kwargs,
) -> Dict[str, Dict[str, RunResult]]:
    """Run several benchmarks under several configurations.

    ``jobs`` > 1 shards the (benchmark, config) grid across worker
    processes (default: ``REPRO_JOBS`` or serial); ``timeout`` bounds
    each parallel job in seconds.  Suites carrying telemetry, a
    ``mutate`` callable/``mutate_key``, or any kwarg the sweep engine
    does not model always execute serially — traced runs must emit
    their events in-process, callables do not cross process boundaries,
    and unknown kwargs must raise the same ``TypeError`` they would
    serially.  Parallel results compare equal to serial ones.

    ``progress`` is an optional live :class:`~repro.obs.progress.
    SweepProgress` driven as grid cells resolve; any sweepable suite —
    even a serial one — routes through the sweep engine so progress,
    metrics, and the provenance counters behave identically at every
    job count.
    """
    benchmarks = tuple(benchmarks)
    config_names = tuple(config_names)
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    unknown = set(kwargs) - _PARALLEL_KWARGS - _SERIAL_ONLY_KWARGS
    sweepable = (
        not unknown
        and all(kwargs.get(k) is None for k in _SERIAL_ONLY_KWARGS)
    )
    if sweepable:
        from repro.experiments import sweep
        from repro.obs import spans as obs_spans

        specs = sweep.expand_grid(
            benchmarks,
            config_names,
            accesses=kwargs.get("accesses"),
            seed=kwargs.get("seed"),
            threads=kwargs.get("threads", 1),
            scheduler=kwargs.get("scheduler", "ahb"),
        )
        with obs_spans.default_collector().span(
            "sweep.suite", benchmarks=len(benchmarks),
            configs=len(config_names), jobs=jobs,
        ) as suite_span:
            outcome = sweep.run_jobs(
                specs, jobs=jobs, timeout=timeout,
                use_store=kwargs.get("use_store"),
                progress=progress,
                trace_parent=suite_span.context(),
            )
        results = iter(outcome.results)
        return {b: {c: next(results) for c in config_names}
                for b in benchmarks}
    if progress is not None:
        progress.begin(total=len(benchmarks) * len(config_names), workers=1)
        suite: Dict[str, Dict[str, RunResult]] = {}
        for benchmark in benchmarks:
            suite[benchmark] = {}
            for name in config_names:
                suite[benchmark][name] = run(benchmark, name, **kwargs)
                progress.job_done("serial")
        progress.finish()
        return suite
    return {b: run_configs(b, config_names, **kwargs) for b in benchmarks}


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
