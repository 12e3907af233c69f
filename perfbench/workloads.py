"""The benchmark's three workloads, driven through public entry points.

Each workload makes its inputs from a seed, runs one *pass* (the unit
``wall_s`` times) as often as the run length allows, and checks its
outputs outside the timed region.  Times are host seconds scaled to a
reference host speed (:class:`HostSpeed`).  ``run_pass`` takes an optional
:class:`~perfbench.layers.SimProfiler` and span collector; the traced
run passes both, and installs the orchestration span patches itself.

Sizes are constructor arguments so the tests can run each workload on
tiny inputs; the defaults are the benchmark's.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import hashlib
import json
import os
import statistics
import tempfile
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Sequence, Tuple
from unittest import mock

from repro.experiments import runner, store, sweep
from repro.fabric.agent import WorkerAgent
from repro.fabric.client import FabricClient
from repro.fabric.coordinator import Coordinator, CoordinatorServer
from repro.fastsim.gate import FidelityGate
from repro.fastsim.model import simulate_job_fast
from repro.system.presets import make_config
from repro.system.results import RunResult
from repro.system.simulator import simulate
from repro.workloads.profiles import suite_benchmarks

#: The Figure-5 grid: every spec2006fp stand-in under NP/PS/MS/PMS.
FIG5_BENCHMARKS = tuple(suite_benchmarks("spec2006fp"))
FIG5_CONFIGS = ("NP", "PS", "MS", "PMS")

#: Stream-heavy benchmarks x the configs that bracket Figure 5.  The
#: fast tier's error is measured on these cells in every workload, so
#: the figure does not depend on which cells a seed's gate sample picks.
STREAM_BENCHMARKS = ("milc", "GemsFDTD", "bwaves")
STREAM_CONFIGS = ("NP", "PMS")

#: Trace length the fast tier's error is measured at (Figure-5 scale).
ERROR_ACCESSES = 20000

#: Results are pinned to committed digests for this seed.
DIGEST_SEED = 1
DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def label(result: RunResult) -> str:
    return f"{result.benchmark}/{result.config_name}/{result.fidelity_tier}"


def digest(result: RunResult) -> str:
    """SHA-256 of a result's store encoding (canonical JSON)."""
    text = json.dumps(store.encode_result(result), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests() -> Dict[str, Dict[str, str]]:
    with open(DIGEST_FILE, encoding="utf-8") as handle:
        return json.load(handle)["workloads"]


class HostSpeed:
    """The host's speed, from a fixed pure-Python loop timed in short
    slices between the jobs being measured.

    On a shared machine the same code runs tens of percent slower for
    minutes at a time.  :meth:`scale` turns host seconds spent in an
    interval into *reference seconds* — the time on a host where the
    loop runs at :data:`REFERENCE_RATE` — using the slices that bracket
    the interval, so a timing taken in a slow stretch reads the same as
    one taken in a fast stretch.
    """

    #: loop iterations per second of the reference host
    REFERENCE_RATE = 1.0e7
    #: loop iterations in one slice (~10 ms)
    ITERATIONS = 100_000
    #: at most one slice per this many seconds between jobs
    INTERVAL_S = 0.25

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (end stamp, loops per second)
        self.spent_s = 0.0  # host time the slices took

    def sample(self) -> None:
        start = perf_counter()
        acc = 0
        for i in range(self.ITERATIONS):
            acc = (acc + i * i) % 1000003
        end = perf_counter()
        self.samples.append((end, self.ITERATIONS / (end - start)))
        self.spent_s += end - start

    def tick(self) -> None:
        """Take a slice if the last one is older than the interval."""
        if not self.samples or perf_counter() - self.samples[-1][0] >= self.INTERVAL_S:
            self.sample()

    def loops_per_s(self) -> float:
        """Median loop rate of the slices so far (one slice if none)."""
        if not self.samples:
            self.sample()
        return statistics.median(rate for _, rate in self.samples)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per host second over ``[start, end]``."""
        stamps = [stamp for stamp, _ in self.samples]
        first = max(bisect.bisect_right(stamps, start) - 1, 0)
        last = bisect.bisect_left(stamps, end)
        window = self.samples[first:last + 1]
        return statistics.fmean(rate for _, rate in window) / self.REFERENCE_RATE


@dataclasses.dataclass
class Pass:
    """One timed pass of a workload; times are reference seconds
    (see :class:`HostSpeed`) unless named ``host_*``."""

    wall_s: float  # the timed work of the pass
    jobs: int  # jobs the timed work resolves
    cycles: int  # MC cycles of those jobs' results
    job_s: Dict[str, float]  # "bench/config" -> time of the call into the layer
    results: List[RunResult]  # every result of the pass, in a fixed order
    host_wall_s: float = 0.0  # the whole pass
    exact_s: float = 0.0  # host time spent in exact simulate() calls
    extra: Dict[str, object] = dataclasses.field(default_factory=dict)


class Timer:
    """Times one pass and its jobs in host and reference seconds.

    With ``slices=False`` it takes no calibration slices itself: the
    caller takes them where no program thread runs.  Too few of those
    fall inside one pass to bracket each job, and a single 10 ms slice
    read anywhere from 7 to 13 M loops/s within one pass, so times are
    then scaled by the median of every slice of the run so far.
    """

    def __init__(self, speed: HostSpeed, slices: bool = True) -> None:
        self.speed = speed
        self.slices = slices
        self.jobs: List[Tuple[str, str, float, float]] = []  # key, fidelity, start, end

    def scale(self, start: float, end: float) -> float:
        if self.slices:
            return self.speed.scale(start, end)
        return self.speed.loops_per_s() / HostSpeed.REFERENCE_RATE

    def __enter__(self) -> "Timer":
        if self.slices:
            self.speed.sample()
        self._spent = self.speed.spent_s
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = perf_counter()
        self.host_s = self.end - self.start - (self.speed.spent_s - self._spent)
        if self.slices:
            self.speed.sample()

    def job(self, key: str, fidelity: str, call: Callable[[], RunResult]) -> RunResult:
        if self.slices:
            self.speed.tick()
        start = perf_counter()
        result = call()
        self.jobs.append((key, fidelity, start, perf_counter()))
        return result

    def wall_s(self, without: str = "") -> float:
        """The pass, less the jobs of fidelity ``without`` if named."""
        host_s = self.host_s - (self.host_job_s(without) if without else 0.0)
        return host_s * self.scale(self.start, self.end)

    def job_s(self, fidelity: str) -> Dict[str, float]:
        return {key: (end - start) * self.scale(start, end)
                for key, tier, start, end in self.jobs if tier == fidelity}

    def host_job_s(self, fidelity: str) -> float:
        return sum(end - start for _, tier, start, end in self.jobs if tier == fidelity)


@contextlib.contextmanager
def store_root(path: str) -> Iterator[None]:
    """Point the process-default result store at ``path`` for a block."""
    saved = os.environ.get("REPRO_STORE_DIR")
    os.environ["REPRO_STORE_DIR"] = path
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_STORE_DIR", None)
        else:
            os.environ["REPRO_STORE_DIR"] = saved


@contextlib.contextmanager
def timed_jobs(timer: Timer) -> Iterator[None]:
    """Time every ``sweep.compute_job`` call through ``timer``."""
    original = sweep.compute_job

    def timed(config, benchmark, accesses, seed, threads, fidelity):
        return timer.job(f"{benchmark}/{config.name}", fidelity, lambda: original(
            config, benchmark, accesses, seed, threads, fidelity))

    with mock.patch.object(sweep, "compute_job", timed):
        yield


@contextlib.contextmanager
def sliced_leases(speed: HostSpeed) -> Iterator[None]:
    """Take calibration slices as a worker agent asks for its next batch.

    The agent joins a batch's heartbeat thread and has its completion
    answered before it leases again, so no program thread is working
    while these slices run.
    """
    original = FabricClient.lease

    def lease(self, *args, **kwargs):
        speed.tick()
        return original(self, *args, **kwargs)

    with mock.patch.object(FabricClient, "lease", lease):
        yield


class Workload:
    """Shared plumbing: seed, sizes, scratch directories, checks."""

    name = ""
    #: True when a pass is nothing but exact simulate() calls, so the
    #: traced pass wall must equal the simulator layers' summed self time.
    simulator_only = False

    def __init__(self, seed: int, workdir: str, benchmarks: Sequence[str],
                 configs: Sequence[str], accesses: int, default_size: bool) -> None:
        self.seed = seed
        self.workdir = workdir
        self.benchmarks = tuple(benchmarks)
        self.configs = tuple(configs)
        self.accesses = accesses
        self.default_size = default_size
        self.speed = HostSpeed()

    def fresh_dir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.workdir)

    def setup(self) -> float:
        """Make the workload ready once; returns the seconds it took."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Fill lazy tables and imports before anything is timed."""

    def run_pass(self, profiler=None, collector=None) -> Pass:
        """One pass; every pass of a run works on the same inputs."""
        raise NotImplementedError

    def check(self, passes: Sequence[Pass]) -> Tuple[int, List[str]]:
        """``(failed jobs, messages)`` over ``passes``; the first is the base."""
        return self.compare(passes)

    def fast_errors(self, passes: Sequence[Pass]) -> Dict[str, float]:
        """FidelityGate error bars of the fast tier on the stream cells.

        Measured at 20000 accesses (at the workload's own length for
        non-default sizes) from the run's seed, whatever the workload's
        grid: a hash-picked validation sample, or a shorter trace, makes
        the bars swing by 30% or more from seed to seed.  Results the
        first pass did not produce are computed here, outside timing.
        """
        accesses = ERROR_ACCESSES if self.default_size else self.accesses
        have = {}
        if accesses == self.accesses:
            have = {(r.benchmark, r.config_name, r.fidelity_tier): r
                    for r in passes[0].results}
        pairs = []
        for bench in STREAM_BENCHMARKS:
            for config in STREAM_CONFIGS:
                built = make_config(config)
                fast = have.get((bench, config, "fast")) or simulate_job_fast(
                    built, bench, accesses, self.seed)
                exact = have.get((bench, config, "exact")) or runner.simulate_job(
                    built, bench, accesses, self.seed)
                pairs.append((fast, exact))
        bars = FidelityGate().calibrate(pairs).error_bars()
        return {metric: bars[metric] for metric in ("cycles", "ipc")}

    def compare(self, passes: Sequence[Pass]) -> Tuple[int, List[str]]:
        """Every pass must reproduce the first pass's results exactly; at
        the default sizes and digest seed the first pass must match the
        committed digests."""
        failed = 0
        messages: List[str] = []
        base = passes[0].results
        for number, later in enumerate(passes[1:], start=2):
            if len(later.results) != len(base):
                failed += 1
                messages.append(f"pass {number}: {len(later.results)} results, "
                                f"pass 1 had {len(base)}")
            for before, after in zip(base, later.results):
                if before != after:
                    failed += 1
                    messages.append(f"pass {number}: {label(after)} differs from pass 1")
        if self.default_size and self.seed == DIGEST_SEED:
            pinned = load_digests().get(self.name, {})
            seen = {label(result): digest(result) for result in base}
            if set(seen) != set(pinned):
                failed += 1
                messages.append("the digest file does not list the same jobs")
            for name, value in seen.items():
                if pinned.get(name) not in (None, value):
                    failed += len(passes)
                    messages.append(f"{name}: result digest changed")
        return failed, messages


class ExactStream(Workload):
    """Exact event-loop ``simulate()`` of the stream cells; traces in set-up."""

    name = "exact-stream"
    simulator_only = True

    def __init__(self, seed: int, workdir: str,
                 benchmarks: Sequence[str] = STREAM_BENCHMARKS,
                 configs: Sequence[str] = STREAM_CONFIGS,
                 accesses: int = 20000) -> None:
        super().__init__(seed, workdir, benchmarks, configs, accesses,
                         (tuple(benchmarks), tuple(configs), accesses)
                         == (STREAM_BENCHMARKS, STREAM_CONFIGS, 20000))
        self.built = {config: make_config(config) for config in self.configs}
        self.traces = {}

    def setup(self) -> float:
        runner.clear_cache()
        t0 = perf_counter()
        self.traces = {bench: runner.get_trace(bench, self.accesses, self.seed)
                       for bench in self.benchmarks}
        return perf_counter() - t0

    def warm_up(self) -> None:
        trace = runner.get_trace(self.benchmarks[0], 200, self.seed)
        for config in self.built.values():
            simulate(config, [trace], loop="event")

    def run_pass(self, profiler=None, collector=None) -> Pass:
        run = simulate if profiler is None else profiler.simulate
        results: List[RunResult] = []
        with Timer(self.speed) as timer:
            for bench in self.benchmarks:
                for config in self.configs:
                    results.append(timer.job(
                        f"{bench}/{config}", "exact",
                        lambda: run(self.built[config], [self.traces[bench]], loop="event")))
        return Pass(timer.wall_s(), len(results), sum(r.cycles for r in results),
                    timer.job_s("exact"), results, host_wall_s=timer.host_s,
                    exact_s=timer.host_job_s("exact"))

    def check(self, passes: Sequence[Pass]) -> Tuple[int, List[str]]:
        failed, messages = self.compare(passes)
        for result in passes[0].results:
            reference = simulate(self.built[result.config_name],
                                 [self.traces[result.benchmark]],
                                 loop="reference")
            if reference != result:
                failed += 1
                messages.append(f"{label(result)}: event loop differs from reference")
        return failed, messages


class SweepFast(Workload):
    """The Figure-5 grid at ``fidelity="fast"`` through serial ``run_jobs``
    into an empty store, then a warm re-resolution from the store."""

    name = "sweep-fast"

    def __init__(self, seed: int, workdir: str,
                 benchmarks: Sequence[str] = FIG5_BENCHMARKS,
                 configs: Sequence[str] = FIG5_CONFIGS,
                 accesses: int = 20000) -> None:
        super().__init__(seed, workdir, benchmarks, configs, accesses,
                         (tuple(benchmarks), tuple(configs), accesses)
                         == (FIG5_BENCHMARKS, FIG5_CONFIGS, 20000))
        self.specs: List[sweep.Job] = []

    def setup(self) -> float:
        t0 = perf_counter()
        runner.clear_cache()
        self.specs = sweep.expand_grid(self.benchmarks, self.configs,
                                       accesses=self.accesses, seed=self.seed,
                                       fidelity="fast")
        for job in self.specs:
            sweep.prepare(job)
        return perf_counter() - t0

    def warm_up(self) -> None:
        specs = sweep.expand_grid(self.benchmarks, self.configs, accesses=200,
                                  seed=self.seed, fidelity="fast")
        sweep.run_jobs(specs, jobs=1, use_store=False)
        runner.clear_cache()

    def run_pass(self, profiler=None, collector=None) -> Pass:
        with store_root(self.fresh_dir("sweep-store-")):
            runner.clear_cache()
            with Timer(self.speed) as timer, timed_jobs(timer):
                cold = sweep.run_jobs(self.specs, jobs=1, use_store=True)
                runner.clear_cache()
                middle = perf_counter()
                warm = sweep.run_jobs(self.specs, jobs=1, use_store=True)
                end = perf_counter()
            cached = sweep.run_jobs(self.specs, jobs=1, use_store=True)
            cache_s = perf_counter() - end
        jobs = len(self.specs)
        return Pass(timer.wall_s(), jobs, sum(r.cycles for r in cold.results),
                    timer.job_s("fast"), cold.results, host_wall_s=timer.host_s, extra={
                        "warm": warm.results,
                        "cached": cached.results,
                        "store_get_ms_per_job": (end - middle) * 1e3 / jobs,
                        "cache_ms_per_job": cache_s * 1e3 / jobs,
                    })

    def check(self, passes: Sequence[Pass]) -> Tuple[int, List[str]]:
        failed, messages = self.compare(passes)
        for number, one in enumerate(passes, start=1):
            for source in ("warm", "cached"):
                for before, after in zip(one.results, one.extra[source]):
                    if before != after:
                        failed += 1
                        messages.append(f"pass {number}: {label(before)} "
                                        f"differs when read back ({source})")
            for result in one.results:
                if result.fidelity_tier != "fast" or result.cycles <= 0:
                    failed += 1
                    messages.append(f"pass {number}: {label(result)} is not a fast result")
        return failed, messages


class FabricFast(Workload):
    """The Figure-5 grid submitted at ``fidelity="fast"`` to an in-process
    coordinator and drained by one worker agent.

    A pass's ``wall_s`` leaves out the exact validation twins the
    coordinator adds: they are a hash-picked sample of the grid whose
    cost swings from seed to seed, and at ~75% of the pass they would
    hide the plane this workload measures.  The calibration slices are
    taken before the coordinator starts, between batches, and after it
    closes, so none of them shares the host with the program's heartbeat
    and handler threads.
    """

    name = "fabric-fast"
    #: the worker agent's batch size (the CLI default)
    CAPACITY = 2

    def __init__(self, seed: int, workdir: str,
                 benchmarks: Sequence[str] = FIG5_BENCHMARKS,
                 configs: Sequence[str] = FIG5_CONFIGS,
                 accesses: int = 4000) -> None:
        super().__init__(seed, workdir, benchmarks, configs, accesses,
                         (tuple(benchmarks), tuple(configs), accesses)
                         == (FIG5_BENCHMARKS, FIG5_CONFIGS, 4000))

    def _start(self, collector=None) -> Tuple[Coordinator, CoordinatorServer]:
        coordinator = Coordinator(
            result_store=store.ResultStore(self.fresh_dir("coordinator-")),
            spans=collector,
        )
        return coordinator, CoordinatorServer(coordinator).start()

    def setup(self) -> float:
        t0 = perf_counter()
        _, server = self._start()
        elapsed = perf_counter() - t0
        server.close()
        return elapsed

    def warm_up(self) -> None:
        sizes = (self.benchmarks, self.configs, self.accesses)
        self.benchmarks, self.configs, self.accesses = sizes[0][:2], sizes[1][:1], 200
        try:
            self.run_pass()
        finally:
            self.benchmarks, self.configs, self.accesses = sizes

    def run_pass(self, profiler=None, collector=None) -> Pass:
        runner.clear_cache()
        self.speed.sample()
        coordinator, server = self._start(collector)
        try:
            with Timer(self.speed, slices=False) as timer, timed_jobs(timer), \
                    sliced_leases(self.speed):
                client = FabricClient(server.url)
                accepted = client.submit(self.benchmarks, self.configs,
                                         accesses=self.accesses, seed=self.seed,
                                         fidelity="fast")
                agent = WorkerAgent(
                    server.url, worker_id="bench-worker", capacity=self.CAPACITY,
                    drain_idle_seconds=0.0,
                    result_store=store.ResultStore(self.fresh_dir("worker-")),
                )
                totals = agent.run()
                _, record = client.fetch_calibrated_suite(accepted["sweep"])
        finally:
            server.close()
        self.speed.sample()
        results = sorted((result for _, result in coordinator.store.entries()),
                         key=label)
        fast = [result for result in results if result.fidelity_tier == "fast"]
        return Pass(
            timer.wall_s(without="exact"), len(fast), sum(r.cycles for r in fast),
            timer.job_s("fast"), results, host_wall_s=timer.host_s,
            exact_s=timer.host_job_s("exact"),
            extra={
                "store": coordinator.store.root,
                "errors": totals["errors"],
                "gate": record.error_bars() if record is not None else {},
            },
        )

    def check(self, passes: Sequence[Pass]) -> Tuple[int, List[str]]:
        failed, messages = self.compare(passes)
        for number, one in enumerate(passes, start=1):
            if one.extra["errors"]:
                failed += one.extra["errors"]
                messages.append(f"pass {number}: {one.extra['errors']} job(s) errored")
        # The local serial path must write byte-identical store entries;
        # every pass submits the same grid, so one local run serves all.
        specs = [spec for spec, _ in store.ResultStore(passes[0].extra["store"]).entries()]
        local_root = self.fresh_dir("local-")
        runner.clear_cache()
        with store_root(local_root):
            sweep.run_jobs([
                sweep.Job(benchmark=spec["benchmark"], config_name=spec["config"],
                          accesses=spec["accesses"], seed=spec["seed"],
                          threads=spec["threads"], scheduler=spec["scheduler"],
                          fidelity=str(spec.get("fidelity", "exact")))
                for spec in specs
            ], jobs=1, use_store=True)
        for number, one in enumerate(passes, start=1):
            fleet = store.ResultStore(one.extra["store"])
            for spec, _ in fleet.entries():
                name = store.job_key(spec) + ".json"
                with open(os.path.join(fleet.root, name), "rb") as handle:
                    fleet_bytes = handle.read()
                try:
                    with open(os.path.join(local_root, name), "rb") as handle:
                        local_bytes = handle.read()
                except OSError:
                    local_bytes = b""
                if fleet_bytes != local_bytes:
                    failed += 1
                    messages.append(f"pass {number}: {spec['benchmark']}/{spec['config']}: "
                                    "fabric store entry differs from the local path's")
        return failed, messages


WORKLOADS = {cls.name: cls for cls in (ExactStream, SweepFast, FabricFast)}
