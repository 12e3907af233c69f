"""Parallel sweep execution: shard a job grid across worker processes.

The paper's evaluation is a grid — 30 benchmark stand-ins x {NP, PS,
MS, PMS, ablations, sensitivity points} — and every cell is an
independent deterministic simulation.  This module fans such grids out
over a :class:`~concurrent.futures.ProcessPoolExecutor`, with all
results flowing through the one result cache the serial path uses: the
content-addressed :mod:`repro.experiments.store` (on disk, or the
process-memory store when the store is off), under each job's key.

Robustness:

* **per-job timeout** — a job that exceeds ``timeout`` seconds in a
  worker is re-run serially in the parent (the straggler worker is
  abandoned at pool shutdown);
* **bounded retry on worker crash** — a dead worker process breaks the
  whole pool; affected jobs are resubmitted to a fresh pool up to
  ``retries`` times each, then fall back to serial execution;
* **graceful serial fallback** — ``jobs<=1``, a pool that cannot be
  created (restricted environments), or exhausted retries all degrade
  to the ordinary in-process path.  A sweep always completes.

Determinism: workers execute :func:`compute_job` — the exact code the
serial path runs, dispatching each job's fidelity tier (exact
simulator or the :mod:`repro.fastsim` model) — and ship results back
through the store codec, which is lossless for ints, floats, and
strings.  A parallel sweep therefore compares equal, field for field,
to the serial run of the same specs (asserted by
``tests/integration/test_sweep_parallel``).

Telemetry never enters this module: probed runs are serial-only and
never stored (see docs/telemetry.md).

Observability (:mod:`repro.obs`, docs/observability.md): every call to
:func:`run_jobs` reports serving outcomes, per-job wall times, queue
waits, and robustness events into the process metrics registry (a
no-op unless metrics are enabled) and can drive a live
:class:`~repro.obs.progress.SweepProgress`.  While jobs run in a
process pool, a flight recorder keeps the recent events and log
records, and dumps them as a post-mortem JSON under
``.repro-results/postmortem/`` whenever a job times out or exhausts
its crash-retry budget.  The silent paths of the robustness machinery
log through the ``repro.experiments.sweep`` logger.

Span tracing (:mod:`repro.obs.spans`): when a live collector is
installed, every call opens a ``sweep.run_jobs`` span and records one
``sweep.job`` span per *executed* job (store hits resolve in
microseconds and would flood the tree), with ``sweep.queue_wait`` /
``sweep.exec`` children synthesized from the worker's timing stamps —
workers are separate processes, so they report wall-clock stamps and
the parent builds the spans.  Disabled (the default) this costs one
branch per job.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from time import perf_counter
from time import time as _wall_time
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.common.config import SystemConfig
from repro.experiments import runner, store
from repro.fastsim.version import JOB_FIDELITIES
from repro.obs import bridge, flightrec
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.obs.progress import SweepProgress
from repro.system.presets import make_config
from repro.system.results import RunResult
from repro.system.simulator import default_loop_mode

_log = logging.getLogger("repro.experiments.sweep")


#: Config paths a job sets through its own fields, so no override may.
_JOB_PATHS = ("name", "threads", "controller.scheduler")


@dataclass(frozen=True)
class Job:
    """One cell of a sweep grid, in unresolved (default-able) form.

    A config variant is data: ``overrides`` holds ``(dotted.path,
    scalar)`` pairs, e.g. ``(("ms_prefetcher.buffer.entries", 8),)``,
    that :func:`prepare` applies to the named preset.  The store key
    fingerprints the built config, so a variant needs no name of its own.
    """

    benchmark: str
    config_name: str
    accesses: Optional[int] = None
    seed: Optional[int] = None
    threads: int = 1
    scheduler: str = "ahb"
    #: execution tier: "exact" (cycle-accurate simulator) or "fast"
    #: (the :mod:`repro.fastsim` analytic model) — docs/fidelity.md
    fidelity: str = "exact"
    #: config variant, sorted by path in :meth:`resolve`
    overrides: Tuple[Tuple[str, object], ...] = ()

    def resolve(self) -> "Job":
        """Fill env-backed defaults, validate the trace length, sort and
        check the overrides."""
        if self.fidelity not in JOB_FIDELITIES:
            raise ValueError(
                f"unknown job fidelity {self.fidelity!r}: expected one of "
                f"{JOB_FIDELITIES} (\"auto\" is a *sweep* policy — the "
                "orchestrator lowers it to per-job tiers; see "
                "repro.fastsim.orchestrator)"
            )
        return replace(
            self,
            accesses=runner.resolve_accesses(self.accesses),
            seed=runner.default_seed() if self.seed is None else self.seed,
            overrides=_sorted_overrides(self) if self.overrides else (),
        )


def _sorted_overrides(job: Job) -> Tuple[Tuple[str, object], ...]:
    """``job.overrides`` sorted by path; :func:`prepare` checks the rest."""
    pairs = sorted((tuple(pair) for pair in job.overrides), key=lambda p: p[0])
    if job.fidelity == "fast":
        # predict() ignores the scheduler, core.mlp, the scheduling
        # policy and the LPQ depth: an override there would not apply
        raise ValueError(f"overrides {pairs} need an exact job, not a fast one")
    for path, _ in pairs:
        if path in _JOB_PATHS:
            raise ValueError(f"override {path!r}: set it with the Job's own field")
    return tuple(pairs)


def expand_grid(
    benchmarks: Sequence[str],
    config_names: Sequence[str],
    accesses: Optional[int] = None,
    seed: Optional[int] = None,
    threads: int = 1,
    scheduler: str = "ahb",
    fidelity: str = "exact",
) -> List[Job]:
    """Expand a benchmarks x configs grid into unresolved :class:`Job` specs.

    This is the single grid-expansion rule shared by
    :func:`runner.run_suite`, the ``repro sweep`` CLI, and the fabric
    coordinator (:mod:`repro.fabric`): benchmark-major, config-minor
    order, so results align positionally with the nested suite dict.
    ``fidelity`` is a per-job tier ("exact" or "fast"); the "auto"
    sweep policy is lowered before grid expansion.
    """
    return [
        Job(benchmark=b, config_name=c, accesses=accesses, seed=seed,
            threads=threads, scheduler=scheduler, fidelity=fidelity)
        for b in benchmarks
        for c in config_names
    ]


def prepare(job: Job) -> Tuple["Job", Dict[str, object], SystemConfig]:
    """Resolve one job, build its config, and derive its identity.

    Returns ``(resolved job, store spec, built config)``: the named
    preset with the job's overrides applied.  The store spec embeds a
    fingerprint of the built config, which is what makes job keys
    portable: any process (local worker, remote fabric agent,
    coordinator) that prepares the same job from the same code arrives
    at the same SHA-256 key.  A bad override raises ``ValueError``
    naming its path.
    """
    job = job.resolve()
    config = make_config(job.config_name, threads=job.threads,
                         scheduler=job.scheduler)
    if job.overrides:
        config = config.with_overrides(job.overrides)
    spec = store.job_spec(job.benchmark, job.config_name, job.accesses,
                          job.seed, job.threads, job.scheduler, config,
                          fidelity=job.fidelity)
    return job, spec, config


@dataclass
class SweepStats:
    """Where every job of one :func:`run_jobs` call was served from.

    The ``store_*`` fields are the :class:`~repro.experiments.store.
    StoreStats` delta observed during this call (the counters exist on
    every store instance but used to be write-only — here they surface
    in every sweep summary).
    """

    total: int = 0
    from_store: int = 0  # served by the result store
    executed_parallel: int = 0
    executed_serial: int = 0
    retries: int = 0  # resubmissions after a pool break
    timeouts: int = 0  # jobs that hit the per-job timeout
    pool_failures: int = 0  # pool breaks observed
    serial_fallbacks: int = 0  # jobs forced serial (no pool/retries gone)
    store_hits: int = 0  # store reads answered during this call
    store_misses: int = 0  # store reads that missed
    store_errors: int = 0  # corrupt entries treated as misses
    store_puts: int = 0  # results persisted during this call
    fast_jobs: int = 0  # jobs resolved at the fast-model tier
    exact_jobs: int = 0  # jobs resolved at the cycle-accurate tier
    validated: int = 0  # fast jobs cross-checked by a FidelityGate

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view of every counter."""
        return dict(self.__dict__)

    def summary(self) -> str:
        """The one-line provenance summary ``repro sweep`` prints."""
        line = (
            f"{self.total} jobs: {self.from_store} from store, "
            f"{self.executed_parallel} simulated in workers, "
            f"{self.executed_serial} simulated serially"
            + (f", {self.retries} retried" if self.retries else "")
            + (f", {self.timeouts} timed out" if self.timeouts else "")
            + (f", {self.pool_failures} pool failures"
               if self.pool_failures else "")
            + (f", {self.serial_fallbacks} serial fallbacks"
               if self.serial_fallbacks else "")
        )
        if self.store_hits or self.store_misses or self.store_puts:
            line += (
                f"; store: {self.store_hits} hits / "
                f"{self.store_misses} misses, {self.store_puts} written"
                + (f", {self.store_errors} corrupt" if self.store_errors else "")
            )
        return line

    def merge(self, other: "SweepStats") -> None:
        """Fold another stats block into this one (counter-wise sum)."""
        for name, value in other.as_dict().items():
            setattr(self, name, getattr(self, name) + value)

    def describe(self) -> str:
        """:meth:`summary` plus the fidelity breakdown of the sweep.

        Single-tier exact sweeps describe exactly like before; as soon
        as any job ran at the fast tier the line reports how many jobs
        each tier served and how many fast points a
        :class:`~repro.fastsim.gate.FidelityGate` cross-checked against
        the exact simulator.
        """
        line = self.summary()
        if self.fast_jobs:
            line += (
                f"; fidelity: {self.fast_jobs} fast / "
                f"{self.exact_jobs} exact, {self.validated} validated"
            )
        return line


@dataclass
class SweepOutcome:
    """Results aligned with the input specs, plus provenance counters."""

    results: List[RunResult] = field(default_factory=list)
    stats: SweepStats = field(default_factory=SweepStats)


#: Internal: one job ready to execute.
_Pending = Tuple[int, Job, Dict[str, object], SystemConfig]

#: Either store :func:`store.active_store` hands out.
_Store = Union[store.ResultStore, store.MemoryStore]


class _SweepObs:
    """Observability fan-out for one :func:`run_jobs` call.

    Bundles the metric instruments, the optional live
    :class:`~repro.obs.progress.SweepProgress`, and the flight recorder
    of the pool phase, so the execution paths below report through one
    object.  Every method is a near-no-op when metrics are disabled and
    no progress is attached.
    """

    __slots__ = ("metrics", "progress", "recorder", "enabled",
                 "spans", "sweep_ctx",
                 "_jobs", "_seconds", "_queue_wait", "_events")

    def __init__(
        self,
        metrics: obs_metrics.MetricsRegistry,
        progress: Optional[SweepProgress],
        spans: obs_spans.SpanCollector,
        sweep_ctx: Optional[Mapping[str, str]],
    ) -> None:
        self.metrics = metrics
        self.progress = progress
        #: attached by run_jobs for the pool phase, which alone notes
        #: events and writes post-mortems
        self.recorder: Optional[flightrec.FlightRecorder] = None
        self.spans = spans
        self.sweep_ctx = sweep_ctx
        self.enabled = metrics.enabled
        if self.enabled:
            self._jobs = metrics.counter(
                "repro_sweep_jobs_total",
                "Sweep jobs resolved, by serving outcome.",
                ("outcome",),
            )
            self._seconds = metrics.histogram(
                "repro_sweep_job_seconds",
                "Per-job wall time of executed jobs, by execution mode.",
                ("mode",),
            )
            self._queue_wait = metrics.histogram(
                "repro_sweep_queue_wait_seconds",
                "Submit-to-worker-start wait of parallel jobs.",
            )
            self._events = metrics.counter(
                "repro_sweep_events_total",
                "Sweep robustness events (timeout, retry, pool_break, ...).",
                ("event",),
            )

    def job_done(
        self,
        outcome: str,
        seconds: Optional[float] = None,
        queue_wait: Optional[float] = None,
        result: Optional[RunResult] = None,
    ) -> None:
        """One job resolved: count it, time it, advance the progress.

        ``result`` is set when this sweep executed the job; its totals
        feed the per-run counters here in the parent, so jobs run in a
        pool worker or at the fast tier count too.
        """
        if self.enabled:
            self._jobs.inc(outcome=outcome)
            if seconds is not None:
                self._seconds.observe(seconds, mode=outcome)
            if queue_wait is not None:
                self._queue_wait.observe(queue_wait)
            if result is not None:
                fast = result.fidelity_tier == "fast"
                bridge.publish_run(self.metrics, result,
                                   "fast" if fast else default_loop_mode())
        if self.progress is not None:
            self.progress.job_done(outcome, seconds)

    def job_span(
        self,
        job: Job,
        mode: str,
        started_unix: Optional[float],
        exec_s: Optional[float],
        queue_wait_s: Optional[float] = None,
    ) -> None:
        """Synthesize the span tree of one executed job from its stamps.

        Workers run in other processes, so instead of live spans they
        ship wall-clock stamps home and the parent reconstructs a
        ``sweep.job`` span (with ``sweep.queue_wait`` / ``sweep.exec``
        children) under the sweep root.  Injected worker stubs may not
        report stamps; those jobs simply go untraced.
        """
        if not self.spans.enabled or started_unix is None or exec_s is None:
            return
        wait = queue_wait_s or 0.0
        submitted = started_unix - wait
        parent = self.spans.add(
            "sweep.job", submitted, wait + exec_s, parent=self.sweep_ctx,
            benchmark=job.benchmark, config=job.config_name,
            fidelity=job.fidelity, mode=mode,
        )
        if wait > 0.0:
            self.spans.add("sweep.queue_wait", submitted, wait, parent=parent)
        self.spans.add("sweep.exec", started_unix, exec_s, parent=parent,
                       benchmark=job.benchmark, config=job.config_name)

    def event(self, name: str, **fields: object) -> None:
        """One robustness event: metric, flight-recorder note, progress."""
        if self.enabled:
            self._events.inc(event=name)
        self.recorder.note(name, **fields)
        if self.progress is not None:
            self.progress.note_event(name)

    def postmortem(self, reason: str, item: _Pending, **extra: object) -> None:
        """Dump the flight recorder for one failed job (never raises)."""
        spec = item[2]
        try:
            path = self.recorder.postmortem(
                reason, store.job_key(spec), spec=spec, extra=extra or None
            )
        except Exception:  # defensive: diagnostics must not kill sweeps
            _log.warning("post-mortem dump failed", exc_info=True)
            return
        if path is not None:
            _log.info("post-mortem written: %s", path)


def _job_payload(job: Job) -> Dict[str, object]:
    """The picklable argument a worker receives (no callables).

    ``_submitted`` carries the parent's submit wall-clock stamp so the
    worker can report its queue wait (same host, same clock).
    """
    return {
        "benchmark": job.benchmark,
        "accesses": job.accesses,
        "seed": job.seed,
        "threads": job.threads,
        "fidelity": job.fidelity,
        "_submitted": _wall_time(),
    }


def compute_job(
    config: SystemConfig,
    benchmark: str,
    accesses: int,
    seed: int,
    threads: int,
    fidelity: str,
) -> RunResult:
    """Tier dispatch shared by serial and worker execution paths.

    One function, both tiers: the parallel == serial determinism
    guarantee extends to fast jobs because workers and the serial
    fallback route through this exact dispatch.
    """
    if fidelity == "fast":
        from repro.fastsim.model import simulate_job_fast

        return simulate_job_fast(config, benchmark, accesses, seed, threads)
    return runner.simulate_job(config, benchmark, accesses, seed, threads)


def _execute_job(payload: Dict[str, object], config: SystemConfig) -> Dict[str, object]:
    """Worker entry point: simulate one resolved job.

    The parent ships the fully-built :class:`SystemConfig`, overrides
    applied, so workers rebuild nothing; the result travels
    back through the store codec, annotated with a small ``_obs``
    timing block (queue wait + exec seconds) the parent strips before
    decoding.
    """
    started = _wall_time()
    t0 = perf_counter()
    result = compute_job(
        config,
        payload["benchmark"],
        payload["accesses"],
        payload["seed"],
        payload["threads"],
        str(payload.get("fidelity", "exact")),
    )
    encoded = store.encode_result(result)
    encoded["_obs"] = {
        "queue_wait_s": max(0.0, started - payload.get("_submitted", started)),
        "exec_s": perf_counter() - t0,
        "started_unix": started,
    }
    return encoded


def _make_executor(workers: int) -> Optional[ProcessPoolExecutor]:
    """A process pool, or None when the platform refuses one."""
    try:
        return ProcessPoolExecutor(max_workers=workers)
    except (ImportError, NotImplementedError, OSError, PermissionError,
            ValueError):
        return None


def run_jobs(
    specs: Sequence[Job],
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 1,
    use_store: Optional[bool] = None,
    worker: Optional[Callable[[Dict[str, object], SystemConfig], Dict[str, object]]] = None,
    progress: Optional[SweepProgress] = None,
    metrics: Optional[obs_metrics.MetricsRegistry] = None,
    trace_parent: Optional[Mapping[str, str]] = None,
) -> SweepOutcome:
    """Execute a list of :class:`Job` specs, fanning out when asked.

    ``jobs`` is the worker-process count (1 = serial).  ``timeout``
    bounds each parallel job in seconds; ``retries`` bounds per-job
    resubmissions after worker crashes.  ``use_store`` overrides the
    ``REPRO_STORE`` default (off, results go to the process-memory
    store).  ``worker`` replaces the worker function (tests inject
    crashing/hanging stubs; it must be picklable).

    Observability: ``progress`` is a live
    :class:`~repro.obs.progress.SweepProgress` updated as jobs resolve;
    ``metrics`` overrides the process default registry.
    ``trace_parent`` (a ``{"trace","span"}`` context) parents the
    ``sweep.run_jobs`` span in the default span collector, letting a
    caller — ``run_suite``, a fabric agent — stitch this call into a
    wider trace.  All default to the ambient/no-op behaviour described
    in the module docstring.

    Returns a :class:`SweepOutcome` whose ``results`` align one-to-one
    with ``specs``.
    """
    stats = SweepStats(total=len(specs))
    results: List[Optional[RunResult]] = [None] * len(specs)
    active_store = store.active_store(use_store)
    metrics = obs_metrics.default_registry() if metrics is None else metrics
    span_collector = obs_spans.default_collector()
    sweep_span = span_collector.span(
        "sweep.run_jobs", parent=trace_parent,
        total=len(specs), workers=max(1, jobs),
    )
    obs = _SweepObs(metrics, progress, span_collector, sweep_span.context())
    if progress is not None:
        progress.begin(total=len(specs), workers=max(1, jobs))
    store_before = active_store.stats.as_dict()
    try:
        pending: List[_Pending] = []
        for index, job in enumerate(specs):
            job, spec, config = prepare(job)
            if job.fidelity == "fast":
                stats.fast_jobs += 1
            else:
                stats.exact_jobs += 1
            found = active_store.get(spec)
            if found is not None:
                results[index] = found
                stats.from_store += 1
                obs.job_done("store")
                continue
            pending.append((index, job, spec, config))

        if pending:
            if jobs <= 1:
                for item in pending:
                    results[item[0]] = _run_one_serial(
                        item, active_store, stats, obs
                    )
            else:
                obs.recorder = flightrec.FlightRecorder(metrics=metrics)
                obs.recorder.attach("repro")
                executed = _run_parallel(
                    pending, jobs, timeout, retries, active_store, stats,
                    worker or _execute_job, obs,
                )
                for index, result in executed.items():
                    results[index] = result
    finally:
        if obs.recorder is not None:
            obs.recorder.detach()
        if sweep_span.enabled:
            sweep_span.set_attr(
                store=stats.from_store,
                executed=stats.executed_parallel + stats.executed_serial,
            )
        sweep_span.finish()
        delta = {
            key: value - store_before.get(key, 0)
            for key, value in active_store.stats.as_dict().items()
        }
        stats.store_hits = delta.get("hits", 0)
        stats.store_misses = delta.get("misses", 0)
        stats.store_errors = delta.get("errors", 0)
        stats.store_puts = delta.get("puts", 0)
        if progress is not None:
            progress.finish()
    return SweepOutcome(results=results, stats=stats)


def _finish(item: _Pending, result: RunResult, active_store: _Store) -> RunResult:
    """Persist a fresh result to the active store."""
    active_store.put(item[2], result)
    return result


def _run_one_serial(
    item: _Pending,
    active_store: _Store,
    stats: SweepStats,
    obs: _SweepObs,
) -> RunResult:
    """Execute one job in this process (the fallback of last resort)."""
    _, job, _, config = item
    start_wall = _wall_time()
    t0 = perf_counter()
    result = compute_job(config, job.benchmark, job.accesses, job.seed,
                      job.threads, job.fidelity)
    seconds = perf_counter() - t0
    stats.executed_serial += 1
    obs.job_done("serial", seconds, result=result)
    obs.job_span(job, "serial", start_wall, seconds)
    return _finish(item, result, active_store)


def _run_parallel(
    pending: List[_Pending],
    jobs: int,
    timeout: Optional[float],
    retries: int,
    active_store: _Store,
    stats: SweepStats,
    worker: Callable,
    obs: _SweepObs,
) -> Dict[int, RunResult]:
    """Fan pending jobs out; retry pool breaks; fall back serially."""
    done: Dict[int, RunResult] = {}
    attempts: Dict[int, int] = {item[0]: 0 for item in pending}
    todo = list(pending)
    while todo:
        executor = _make_executor(min(jobs, len(todo)))
        if executor is None:
            _log.warning(
                "process pool unavailable; running %d job(s) serially",
                len(todo),
            )
            for item in todo:
                obs.event("serial_fallback", reason="pool_unavailable",
                          job_key=store.job_key(item[2]))
                stats.serial_fallbacks += 1
                done[item[0]] = _run_one_serial(item, active_store, stats, obs)
            return done
        futures = [
            (executor.submit(worker, _job_payload(item[1]), item[3]), item)
            for item in todo
        ]
        requeue: List[_Pending] = []
        pool_broke = False
        timed_out = False
        for future, item in futures:
            index = item[0]
            try:
                payload = future.result(timeout=timeout)
                timing = payload.pop("_obs", None) or {}
                done[index] = _finish(item, store.decode_result(payload),
                                      active_store)
                stats.executed_parallel += 1
                obs.job_done("parallel", timing.get("exec_s"),
                             timing.get("queue_wait_s"), done[index])
                obs.job_span(item[1], "parallel",
                             timing.get("started_unix"),
                             timing.get("exec_s"),
                             timing.get("queue_wait_s"))
            except FutureTimeout:
                # The worker may be wedged; abandon it (the pool is shut
                # down below without waiting) and run here instead.
                stats.timeouts += 1
                timed_out = True
                job_key = store.job_key(item[2])
                _log.warning(
                    "job %s (%s/%s) exceeded the %ss per-job timeout; "
                    "rerunning serially in the parent",
                    job_key, item[1].benchmark, item[1].config_name, timeout,
                )
                obs.event("timeout", job_key=job_key, timeout_s=timeout)
                obs.postmortem("timeout", item, timeout_s=timeout)
                done[index] = _run_one_serial(item, active_store, stats, obs)
            except BrokenProcessPool:
                # A worker died.  Every outstanding future on this pool
                # fails the same way; resubmit each on a fresh pool
                # until its retry budget runs out.
                if not pool_broke:
                    pool_broke = True
                    stats.pool_failures += 1
                    _log.warning(
                        "worker process died; pool broken with %d job(s) "
                        "outstanding", len(futures) - len(done),
                    )
                    obs.event("pool_break", outstanding=len(futures) - len(done))
                attempts[index] += 1
                job_key = store.job_key(item[2])
                if attempts[index] <= retries:
                    stats.retries += 1
                    _log.info(
                        "resubmitting job %s on a fresh pool (attempt %d/%d)",
                        job_key, attempts[index], retries,
                    )
                    obs.event("retry", job_key=job_key,
                              attempt=attempts[index], budget=retries)
                    requeue.append(item)
                else:
                    stats.serial_fallbacks += 1
                    _log.error(
                        "job %s exhausted its %d crash retr%s; falling back "
                        "to serial execution",
                        job_key, retries, "y" if retries == 1 else "ies",
                    )
                    obs.event("retry_exhausted", job_key=job_key,
                              attempts=attempts[index])
                    obs.postmortem("worker_crash", item,
                                   attempts=attempts[index], budget=retries)
                    done[index] = _run_one_serial(item, active_store, stats,
                                                  obs)
        if timed_out:
            # A wedged worker would otherwise be joined at interpreter
            # exit, stalling the parent for the worker's full runtime.
            for process in list(getattr(executor, "_processes", {}).values()):
                process.terminate()
        executor.shutdown(wait=not timed_out, cancel_futures=True)
        todo = requeue
    return done
