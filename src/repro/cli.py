"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``      — benchmarks, suites, and configurations
* ``run``       — simulate one benchmark under one configuration
* ``compare``   — one benchmark under NP / PS / MS / PMS
* ``suite``     — a whole suite (Figures 5/6/7 style table)
* ``sweep``     — a benchmarks x configs grid, sharded across worker
  processes through the on-disk result store (docs/experiments.md)
* ``figure``    — regenerate one paper figure/table by id
* ``trace``     — trace tooling (docs/scenarios.md): ``trace generate``
  saves a synthetic trace, ``trace convert`` normalises an external
  trace (ChampSim-style text or ``addr,rw[,tid]`` CSV, gzipped or
  plain) to the internal format, ``trace calibrate`` measures the fast
  model's error bars on a converted trace
* ``fuzz``      — adversarial workload search over the synthetic
  generator's parameter space (docs/scenarios.md): worst cases by a
  pluggable objective, reproducible per seed, results deduped into
  the store
* ``cost``      — the hardware-cost table (Section 5.1)
* ``telemetry`` — run one benchmark with full instrumentation and
  export/print the epoch-resolved series (see docs/telemetry.md)
* ``obs``       — fleet observability: ``obs serve`` exposes the
  metrics snapshots of past sweeps over HTTP; ``obs trace export``
  converts a sweep's span snapshot to Chrome trace-event JSON for
  Perfetto (docs/observability.md)
* ``fabric``    — distributed sweeps (docs/fabric.md): ``fabric
  serve`` runs the coordinator daemon, ``fabric work`` a worker agent,
  ``fabric submit`` sends a grid over HTTP (``--watch`` polls it to
  completion and prints the sweep table), ``fabric status`` inspects
  the fleet (with a critical-path summary of the stitched trace),
  ``fabric watch`` streams live progress over SSE
* ``lint``      — simulator-invariant static analysis (determinism,
  dual-path parity, cycle accounting, stat keys, lock discipline,
  atomic writes; see docs/linting.md)

``run`` and ``compare`` accept ``--trace-events PATH`` (JSONL event
log) and ``--probe-interval N`` (sample epoch series every N epochs);
both default to off, costing nothing.  ``compare``, ``suite`` and
``sweep`` accept ``--jobs N`` (parallel workers) and ``--no-store``
(skip the on-disk result store); traced runs are always serial and
never stored.  ``sweep`` additionally drives a live progress line
(suppress with ``--no-progress``), always writes a metrics snapshot
under ``.repro-results/metrics/``, and serves ``/metrics`` +
``/healthz`` + ``/progress`` live when given ``--metrics-port N``.

Every simulating command builds its cells as
:class:`~repro.experiments.sweep.Job` objects (:func:`_jobs`).
``compare``, ``suite`` and ``sweep`` resolve them through ``run_jobs``
(the result store and the worker pool); ``run``, traced ``compare`` and
``telemetry`` simulate them in this process on every call and store
nothing (:func:`_simulate`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.analysis.report import format_table
from repro.system.presets import ABLATION_CONFIGS, CONFIG_NAMES
from repro.workloads.profiles import SUITES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptive Stream Detection reproduction (Hur & Lin, MICRO 2006)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="benchmarks, suites, configurations")

    def common(p):
        p.add_argument("-n", "--accesses", type=int, default=15_000,
                       help="trace length in memory accesses")
        p.add_argument("--seed", type=int, default=1)

    def telem(p):
        p.add_argument("--trace-events", metavar="PATH", default=None,
                       help="write a JSONL event log to PATH")
        p.add_argument("--probe-interval", type=int, metavar="N",
                       default=None,
                       help="sample epoch-resolved series every N epochs")

    run = sub.add_parser("run", help="one benchmark, one configuration")
    run.add_argument("-b", "--benchmark", required=True)
    run.add_argument("-c", "--config", default="PMS")
    run.add_argument("--threads", type=int, default=1)
    run.add_argument("--scheduler", default="ahb",
                     choices=("ahb", "memoryless", "in_order"))
    run.add_argument("--json", action="store_true",
                     help="emit the full result as JSON")
    common(run)
    telem(run)

    def parallel(p, jobs_help="worker processes (default REPRO_JOBS or 1)"):
        p.add_argument("-j", "--jobs", type=int, default=None,
                       help=jobs_help)
        p.add_argument("--no-store", action="store_true",
                       help="skip the on-disk result store")

    def configs(p):
        p.add_argument("-c", "--configs", nargs="+", metavar="CONFIG",
                       default=list(CONFIG_NAMES),
                       help="configurations (default: NP PS MS PMS)")

    def grid(p, verb):
        p.add_argument("-s", "--suite", choices=sorted(SUITES),
                       help=f"{verb} a whole suite")
        p.add_argument("-b", "--benchmarks", nargs="+", metavar="BENCH",
                       help=f"{verb} an explicit benchmark list")
        configs(p)

    compare = sub.add_parser("compare", help="NP/PS/MS/PMS on one benchmark")
    compare.add_argument("-b", "--benchmark", required=True)
    common(compare)
    telem(compare)
    parallel(compare)

    suite = sub.add_parser("suite", help="a whole suite (Figure 5/6/7 table)")
    suite.add_argument("-s", "--suite", required=True, choices=sorted(SUITES))
    common(suite)
    parallel(suite)

    sweep = sub.add_parser(
        "sweep", help="benchmarks x configs grid via the parallel engine"
    )
    grid(sweep, "sweep")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-job timeout in seconds")
    sweep.add_argument("--fidelity", choices=("exact", "fast", "auto"),
                       default="exact",
                       help="simulation tier (docs/fidelity.md): exact = "
                            "cycle-accurate, fast = analytic model with "
                            "validated error bars, auto = fast plus exact "
                            "escalation near decision boundaries")
    sweep.add_argument("--metrics-port", type=int, metavar="N", default=None,
                       help="serve /metrics, /healthz and /progress on "
                            "127.0.0.1:N for the duration of the sweep "
                            "(0 = OS-assigned)")
    sweep.add_argument("--no-progress", action="store_true",
                       help="suppress the live progress line")
    sweep.add_argument("--verbose", action="store_true",
                       help="log sweep robustness events to stderr")
    common(sweep)
    parallel(sweep,
             jobs_help="worker processes (default REPRO_JOBS or all CPUs)")

    figure = sub.add_parser("figure", help="regenerate one paper artifact")
    figure.add_argument("id", help="artifact id, e.g. fig5 (an unknown id "
                        "lists them all)")

    trace = sub.add_parser(
        "trace", help="trace tooling: generate / convert / calibrate"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    tgen = trace_sub.add_parser(
        "generate", help="generate and save a synthetic trace"
    )
    tgen.add_argument("-b", "--benchmark", required=True)
    tgen.add_argument("-o", "--output", required=True)
    common(tgen)

    tconv = trace_sub.add_parser(
        "convert",
        help="convert an external trace (champsim/csv) to the "
             "internal format",
    )
    tconv.add_argument("source", help="external trace file (.gz ok)")
    tconv.add_argument("-o", "--output", required=True,
                       help="internal-format output (.gz ok)")
    tconv.add_argument("--format", dest="fmt", default=None,
                       choices=("champsim", "csv"),
                       help="input format (default: guess from the name)")
    tconv.add_argument("--line-size", type=int, default=64, metavar="BYTES",
                       help="byte line size of the input addresses "
                            "(default 64; power of two)")
    tconv.add_argument("--gap", type=int, default=20, metavar="N",
                       help="instruction gap per access when the format "
                            "carries no instruction counts (default 20)")
    tconv.add_argument("--limit", type=int, default=None, metavar="N",
                       help="convert at most the first N records")

    tcal = trace_sub.add_parser(
        "calibrate",
        help="calibrate the fast model's error bars on a converted trace",
    )
    tcal.add_argument("file", help="internal-format trace file")
    configs(tcal)
    tcal.add_argument("-n", "--accesses", type=int, default=None,
                      help="replay at most N records (default: all)")
    tcal.add_argument("--seed", type=int, default=1)
    parallel(tcal)

    fuzz = sub.add_parser(
        "fuzz", help="adversarial workload search (docs/scenarios.md)"
    )
    fuzz.add_argument("--budget", type=int, default=16, metavar="N",
                      help="candidate workloads to evaluate (default 16)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="search seed; same seed, same worst cases")
    fuzz.add_argument("--objective", default="waste",
                      choices=("waste", "regret", "fidelity"),
                      help="what to maximise (default waste: prefetches "
                           "nobody reads)")
    fuzz.add_argument("--top", type=int, default=8, metavar="K",
                      help="worst cases to keep and report (default 8)")
    fuzz.add_argument("--round-size", type=int, default=8, metavar="N",
                      help="candidates per sweep round (default 8)")
    fuzz.add_argument("-n", "--accesses", type=int, default=4000,
                      help="trace length per evaluation (default 4000)")
    fuzz.add_argument("--json", action="store_true",
                      help="emit the full report as JSON")
    parallel(fuzz)

    cost = sub.add_parser("cost", help="hardware cost table")
    cost.add_argument("--threads", type=int, nargs="+", default=(1, 2, 4))

    tel = sub.add_parser(
        "telemetry", help="instrumented run: epoch series + event log"
    )
    tel.add_argument("-b", "--benchmark", required=True)
    tel.add_argument("-c", "--config", default="PMS")
    tel.add_argument("--probe-interval", type=int, metavar="N", default=1,
                     help="sample epoch series every N epochs (default 1)")
    tel.add_argument("--events", metavar="PATH", default=None,
                     help="also write a JSONL event log to PATH")
    tel.add_argument("--series-csv", metavar="PATH", default=None,
                     help="write scalar epoch series to a CSV file")
    tel.add_argument("--series-json", metavar="PATH", default=None,
                     help="write all epoch series (SLH included) to JSON")
    tel.add_argument("--rows", type=int, default=20,
                     help="epoch-report rows to print (default 20)")
    common(tel)

    obs = sub.add_parser(
        "obs", help="fleet observability (docs/observability.md)"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    serve = obs_sub.add_parser(
        "serve", help="serve stored metrics snapshots over HTTP"
    )
    serve.add_argument("--port", type=int, default=9123,
                       help="TCP port to bind (default 9123, 0 = OS pick)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default 127.0.0.1)")
    serve.add_argument("--dir", dest="directory", default=None,
                       help="snapshot directory (default "
                            ".repro-results/metrics)")
    otrace = obs_sub.add_parser(
        "trace", help="span-trace tooling (docs/observability.md)"
    )
    otrace_sub = otrace.add_subparsers(dest="obs_trace_command", required=True)
    oexport = otrace_sub.add_parser(
        "export",
        help="convert a span snapshot to Chrome trace-event JSON "
             "(loadable in Perfetto / chrome://tracing)",
    )
    oexport.add_argument("--input", default=None, metavar="PATH",
                         help="span snapshot (default "
                              ".repro-results/spans/latest.json)")
    oexport.add_argument("-o", "--output", default="trace.json",
                         metavar="PATH",
                         help="trace-event output file (default trace.json)")

    fabric = sub.add_parser(
        "fabric", help="distributed sweep fabric (docs/fabric.md)"
    )
    fabric_sub = fabric.add_subparsers(dest="fabric_command", required=True)

    fserve = fabric_sub.add_parser(
        "serve", help="run the coordinator daemon"
    )
    fserve.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default 127.0.0.1)")
    fserve.add_argument("--port", type=int, default=8765,
                        help="TCP port to bind (default 8765, 0 = OS pick)")
    fserve.add_argument("--lease-seconds", type=float, default=60.0,
                        help="worker lease duration (default 60)")
    fserve.add_argument("--max-attempts", type=int, default=3,
                        help="lease grants per job before it fails "
                             "permanently (default 3)")
    fserve.add_argument("--verbose", action="store_true",
                        help="log scheduling events to stderr")

    fwork = fabric_sub.add_parser("work", help="run one worker agent")
    fwork.add_argument("--coordinator", required=True, metavar="URL",
                       help="coordinator base URL, e.g. http://host:8765")
    fwork.add_argument("--id", dest="worker_id", default=None,
                       help="worker id (default <hostname>-<pid>)")
    fwork.add_argument("--capacity", type=int, default=2,
                       help="jobs leased per batch (default 2)")
    fwork.add_argument("--poll", type=float, default=1.0, metavar="SECONDS",
                       help="idle poll interval (default 1.0)")
    fwork.add_argument("--drain-idle", type=float, default=None,
                       metavar="SECONDS",
                       help="exit after this long with an empty queue "
                            "(default: run until SIGTERM)")
    fwork.add_argument("--verbose", action="store_true",
                       help="log worker events to stderr")

    fsubmit = fabric_sub.add_parser(
        "submit", help="submit a grid to a coordinator over HTTP"
    )
    fsubmit.add_argument("--coordinator", required=True, metavar="URL")
    grid(fsubmit, "submit")
    fsubmit.add_argument("--priority", type=int, default=0,
                         help="queue priority (higher runs first)")
    fsubmit.add_argument("--fidelity", choices=("exact", "fast"),
                         default="exact",
                         help="simulation tier (docs/fidelity.md); fast "
                              "also queues the exact validation sample so "
                              "--watch can print calibrated error bars")
    fsubmit.add_argument("--watch", action="store_true",
                         help="poll until done and print the sweep table")
    fsubmit.add_argument("--poll", type=float, default=0.5, metavar="SECONDS",
                         help="--watch poll interval (default 0.5)")
    common(fsubmit)

    fstatus = fabric_sub.add_parser(
        "status", help="fleet status (or one sweep with --sweep)"
    )
    fstatus.add_argument("--coordinator", required=True, metavar="URL")
    fstatus.add_argument("--sweep", default=None, metavar="ID",
                         help="show one sweep instead of the fleet")

    fwatch = fabric_sub.add_parser(
        "watch", help="stream live fleet progress over SSE (/events)"
    )
    fwatch.add_argument("--coordinator", required=True, metavar="URL")
    fwatch.add_argument("--sweep", default=None, metavar="ID",
                        help="exit once this sweep settles "
                             "(default: once the fleet is idle)")
    fwatch.add_argument("--poll", type=float, default=2.0, metavar="SECONDS",
                        help="fallback poll interval when the SSE stream "
                             "is unavailable (default 2.0)")

    # listed for --help only: main() hands lint's argv to the analyzer
    sub.add_parser(
        "lint", add_help=False,
        help="simulator-invariant static analysis (docs/linting.md)",
    )
    return parser


def _jobs(args, benchmarks, configs, **fields) -> list:
    """The benchmarks x configs cells of one invocation as sweep Jobs,
    at its ``-n`` and ``--seed``; ``fields`` sets the other Job fields."""
    from repro.experiments.sweep import expand_grid

    return expand_grid(benchmarks, configs, accesses=args.accesses,
                       seed=args.seed, **fields)


def _grid(args, command: str):
    """``(benchmarks, configs)`` from ``--benchmarks`` or ``--suite`` and
    ``--configs``; None, after a usage line on stderr, without either."""
    if args.benchmarks:
        benchmarks = list(args.benchmarks)
    elif args.suite:
        benchmarks = list(SUITES[args.suite])
    else:
        print(f"{command}: pass --suite or --benchmarks", file=sys.stderr)
        return None
    return benchmarks, list(args.configs)


def _workers(args, default: int = 1) -> int:
    """Worker processes: ``--jobs``, else ``REPRO_JOBS``, else ``default``."""
    from repro.experiments.runner import env_int

    return max(1, args.jobs if args.jobs is not None
               else env_int("REPRO_JOBS", default))


def _by_bench(specs, results) -> dict:
    """``{benchmark: {config: result}}`` from aligned jobs and results."""
    by_bench: dict = {}
    for spec, result in zip(specs, results):
        by_bench.setdefault(spec.benchmark, {})[spec.config_name] = result
    return by_bench


def _simulate(job, trace_events=None, probe_interval=None):
    """Simulate one job in this process, on every call, storing nothing:
    ``sweep.prepare``, then ``runner.simulate_job`` inside a
    ``TelemetrySession`` when either telemetry argument is set.

    Returns ``(result, session)``; the session is None when untraced.
    """
    from repro.experiments import runner, sweep

    job, _, config = sweep.prepare(job)
    cell = (config, job.benchmark, job.accesses, job.seed, job.threads)
    if trace_events is None and probe_interval is None:
        return runner.simulate_job(*cell), None
    from repro.telemetry.session import TelemetrySession

    with TelemetrySession(trace_events=trace_events,
                          probe_interval=probe_interval) as session:
        result = runner.simulate_job(*cell, tracer=session.tracer,
                                     probes=session.probes)
    if session.writer is not None and result.telemetry is not None:
        result.telemetry["events_written"] = session.writer.events_written
    return result, session


def _verbose_logging(verbose: bool) -> None:
    """``--verbose``: the ``repro`` loggers' INFO records go to stderr."""
    import logging

    if verbose:
        logging.basicConfig(
            level=logging.INFO, stream=sys.stderr,
            format="%(levelname)s %(name)s: %(message)s",
        )
        logging.getLogger("repro").setLevel(logging.INFO)


def _cmd_list(args) -> int:
    print("suites:")
    for suite, names in SUITES.items():
        print(f"  {suite}: {', '.join(names)}")
    print()
    print(f"configurations: {', '.join(CONFIG_NAMES)}")
    print(f"ablations:      {', '.join(ABLATION_CONFIGS)}")
    print("extensions:     ASD_PS, PMS_DEGREE<d>")
    return 0


def _cmd_run(args) -> int:
    (job,) = _jobs(args, [args.benchmark], [args.config],
                   threads=args.threads, scheduler=args.scheduler)
    result, session = _simulate(job, args.trace_events, args.probe_interval)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    print(result.summary())
    print(f"  MC cycles          {result.cycles}")
    print(f"  IPC                {result.ipc:.3f}")
    print(f"  demand latency     {result.avg_read_latency():.1f} MC cycles")
    print(
        f"  DRAM reads/writes  {result.stats.get('dram.issued_reads', 0):.0f} / "
        f"{result.stats.get('dram.issued_writes', 0):.0f}"
    )
    if result.stats.get("pb.inserts"):
        print(f"  useful prefetches  {result.useful_prefetch_fraction * 100:.1f}%")
        print(f"  coverage           {result.coverage * 100:.1f}%")
    if result.power:
        print(f"  DRAM energy        {result.power.energy_uj:.1f} uJ "
              f"({result.power.avg_power_mw:.0f} mW avg)")
    if session is not None:
        tracer = session.tracer
        print(f"  telemetry          {tracer.total_events} events, "
              f"{tracer.overhead_seconds() * 1e3:.1f} ms overhead")
        if session.probes is not None:
            print()
            print(session.report())
    return 0


def _events_path_for(base: Optional[str], config_name: str) -> Optional[str]:
    """Per-config event-log path: ``out.jsonl`` -> ``out.NP.jsonl``."""
    if base is None:
        return None
    root, ext = os.path.splitext(base)
    return f"{root}.{config_name}{ext or '.jsonl'}"


def _cmd_compare(args) -> int:
    specs = _jobs(args, [args.benchmark], CONFIG_NAMES)
    if args.trace_events is None and args.probe_interval is None:
        from repro.experiments.sweep import run_jobs

        results = run_jobs(specs, jobs=_workers(args),
                           use_store=False if args.no_store else None).results
    else:
        # Traced runs are serial-only and never stored: their side
        # effects (event logs, probe series) are the point.
        results = [
            _simulate(job, _events_path_for(args.trace_events, job.config_name),
                      args.probe_interval)[0]
            for job in specs
        ]
    np_run = results[CONFIG_NAMES.index("NP")]
    rows = [
        [job.config_name, r.cycles, r.gain_vs(np_run), r.avg_read_latency(),
         r.coverage * 100]
        for job, r in zip(specs, results)
    ]
    print(
        format_table(
            ["config", "MC cycles", "gain vs NP %", "read lat", "coverage %"],
            rows,
            title=f"{args.benchmark} ({args.accesses} accesses)",
        )
    )
    return 0


def _cmd_suite(args) -> int:
    from repro.analysis.metrics import compare_runs
    from repro.experiments.performance import render
    from repro.experiments.sweep import run_jobs

    specs = _jobs(args, SUITES[args.suite], CONFIG_NAMES)
    outcome = run_jobs(specs, jobs=_workers(args),
                       use_store=False if args.no_store else None)
    print(render(compare_runs(args.suite, _by_bench(specs, outcome.results))))
    return 0


def _cmd_sweep(args) -> int:
    from repro.fastsim import run_fidelity_sweep
    from repro.obs import critpath, exporters, metrics
    from repro.obs import progress as obs_progress
    from repro.obs import spans as obs_spans
    from repro.obs.server import ObsServer

    grid = _grid(args, "sweep")
    if grid is None:
        return 2
    benchmarks, configs = grid
    _verbose_logging(args.verbose)
    jobs = _workers(args, default=os.cpu_count() or 1)
    specs = _jobs(args, benchmarks, configs)
    # The sweep CLI always runs with fleet metrics on: the registry is
    # cheap at this granularity and feeds the snapshot + live endpoint.
    # Ditto the span collector — its snapshot feeds the critical-path
    # summary and `repro obs trace export`.
    registry = metrics.MetricsRegistry(enabled=True)
    metrics.set_default_registry(registry)
    collector = obs_spans.SpanCollector(enabled=True)
    obs_spans.set_default_collector(collector)
    live = obs_progress.SweepProgress()
    printer = (
        None if args.no_progress else obs_progress.ProgressPrinter(live)
    )
    if printer is not None:
        live.subscribe(printer.on_change)
    server = None
    if args.metrics_port is not None:
        server = ObsServer(
            registry=registry, progress=live, port=args.metrics_port,
            spans=collector,
        ).start()
        print(f"  obs endpoint: {server.url}", file=sys.stderr)
    try:
        outcome = run_fidelity_sweep(
            specs, fidelity=args.fidelity, jobs=jobs, timeout=args.timeout,
            use_store=False if args.no_store else None,
            progress=live, metrics=registry,
        )
    finally:
        if printer is not None:
            printer.close()
        snapshot_path = exporters.write_snapshot(
            registry, progress=live.snapshot()
        )
        spans_path = obs_spans.write_spans(collector)
        if server is not None:
            server.close()
        metrics.reset_default_registry()
        obs_spans.reset_default_collector()
    print(
        _grid_table(
            benchmarks, configs, _by_bench(specs, outcome.results),
            title=(f"sweep: {len(benchmarks)} benchmarks x "
                   f"{len(configs)} configs ({args.accesses} accesses, "
                   f"jobs={jobs})"),
        )
    )
    print(f"  {outcome.stats.describe()}")
    record = outcome.record
    if record is not None:
        print(f"  {record.summary()}")
        if outcome.escalated_indices:
            escalated = ", ".join(
                f"{specs[i].benchmark}/{specs[i].config_name}"
                for i in outcome.escalated_indices
            )
            print(f"  escalated to exact (decision boundary): {escalated}")
    if not args.no_store:
        from repro.experiments import store

        st = store.get_store()
        print(f"  store: {len(st)} entries at {st.root}")
    print(f"  metrics snapshot: {snapshot_path}")
    for line in critpath.render_summary(
        critpath.analyze(collector.spans())
    ).splitlines():
        print(f"  {line}")
    print(f"  span snapshot: {spans_path} "
          "(repro obs trace export renders it for Perfetto)")
    return 0


def _grid_table(benchmarks, configs, by_bench, title) -> str:
    """The benchmarks x configs result table shared by sweep and fabric."""
    baseline_name = configs[0] if "NP" not in configs else "NP"
    rows = []
    for b in benchmarks:
        base = by_bench[b][baseline_name]
        for c in configs:
            r = by_bench[b][c]
            rows.append([b, c, r.cycles, r.gain_vs(base), r.coverage * 100])
    return format_table(
        ["benchmark", "config", "MC cycles",
         f"gain vs {baseline_name} %", "coverage %"],
        rows,
        title=title,
    )


def _cmd_obs(args) -> int:
    if args.obs_command == "trace":
        return _cmd_obs_trace(args)

    from repro.obs.paths import metrics_dir
    from repro.obs.server import ObsServer

    directory = args.directory if args.directory else metrics_dir()
    server = ObsServer(snapshot_dir=directory, host=args.host, port=args.port)
    print(f"serving metrics snapshots from {directory} on {server.url}")
    print("endpoints: /metrics /metrics.json /healthz /progress (Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _cmd_obs_trace(args) -> int:
    """``repro obs trace export``: span snapshot -> Chrome trace JSON."""
    from repro.obs import critpath
    from repro.obs import spans as obs_spans
    from repro.obs.paths import spans_dir

    path = args.input if args.input else os.path.join(
        spans_dir(), "latest.json"
    )
    try:
        spans = obs_spans.load_spans(path)
    except FileNotFoundError:
        print(f"obs trace export: no span snapshot at {path} "
              "(run `repro sweep` first, or pass --input)", file=sys.stderr)
        return 2
    except obs_spans.SpanError as exc:
        print(f"obs trace export: {path}: {exc}", file=sys.stderr)
        return 2
    document = obs_spans.to_chrome_trace(spans)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True)
    events = sum(1 for e in document["traceEvents"] if e["ph"] == "X")
    print(f"wrote {args.output}: {events} span(s) from {path}")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    print(critpath.render_summary(critpath.analyze(spans)))
    return 0


def _cmd_fabric(args) -> int:
    if args.fabric_command == "serve":
        from repro.fabric.coordinator import serve

        _verbose_logging(args.verbose)
        coordinator, server = serve(
            host=args.host, port=args.port,
            lease_seconds=args.lease_seconds,
            max_attempts=args.max_attempts,
        )
        print(f"fabric coordinator on {server.url} "
              f"(store: {coordinator.store.root})")
        print("endpoints: /v1/sweeps /v1/lease /v1/complete /v1/heartbeat "
              "/v1/status /metrics /healthz /progress (Ctrl-C to stop)")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.close()
        return 0

    if args.fabric_command == "work":
        from repro.fabric.agent import WorkerAgent

        _verbose_logging(args.verbose)
        agent = WorkerAgent(
            args.coordinator,
            worker_id=args.worker_id,
            capacity=args.capacity,
            poll_seconds=args.poll,
            drain_idle_seconds=args.drain_idle,
        )
        agent.install_signal_handlers()
        totals = agent.run()
        print(f"worker {agent.worker_id}: "
              f"{totals['executed']} executed, {totals['store']} from store, "
              f"{totals['errors']} errors in {totals['batches']} batch(es)")
        return 0

    from repro.fabric.client import FabricClient

    client = FabricClient(args.coordinator)
    if args.fabric_command == "submit":
        grid = _grid(args, "fabric submit")
        if grid is None:
            return 2
        benchmarks, configs = grid
        accepted = client.submit_jobs(
            _jobs(args, benchmarks, configs, fidelity=args.fidelity),
            priority=args.priority,
        )
        sweep_id = accepted["sweep"]
        print(f"accepted {sweep_id}: {accepted['total']} jobs, "
              f"{accepted['deduped']} already in store, "
              f"{accepted['queued']} queued")
        if not args.watch:
            return 0
        status = client.watch(sweep_id, poll_seconds=args.poll)
        failed = status.get("failed", [])
        by_bench, record = client.fetch_calibrated_suite(sweep_id)
        if all(c in by_bench.get(b, {}) for b in benchmarks for c in configs):
            print(
                _grid_table(
                    benchmarks, configs, by_bench,
                    title=(f"fabric {sweep_id}: {len(benchmarks)} benchmarks "
                           f"x {len(configs)} configs "
                           f"({args.accesses} accesses)"),
                )
            )
        if record is not None:
            print(f"  {record.summary()}")
        for failure in failed:
            print(f"  FAILED {failure['key']}: {failure['error']}",
                  file=sys.stderr)
        return 1 if failed else 0

    if args.fabric_command == "watch":
        return _fabric_watch(client, args)

    # fabric status
    document = (
        client.sweep_status(args.sweep) if args.sweep else client.status()
    )
    print(json.dumps(document, indent=2, sort_keys=True))
    if not args.sweep:
        from repro.obs import critpath
        from repro.obs.spans import SpanError, check_span

        try:
            snapshot = client.trace()
            spans = [check_span(doc) for doc in snapshot.get("spans", [])]
        except (OSError, SpanError, ValueError):
            spans = []
        if spans:
            print(critpath.render_summary(critpath.analyze(spans)))
    return 0


def _fabric_watch(client, args) -> int:
    """``repro fabric watch``: live SSE progress, polling fallback.

    Exits 0 once ``--sweep`` settles or, without it, on the first
    progress that reads finished with jobs in it (the fleet is idle).
    """
    import time as _time

    from repro.fabric.client import CoordinatorUnavailable
    from repro.obs.progress import render_line

    def _update(progress) -> bool:
        """Print one progress line; True once the watch is over."""
        print(render_line(progress))
        if args.sweep is None:
            return progress["finished"] and progress["total"] > 0
        return client.sweep_status(args.sweep)["progress"]["finished"]

    print(f"watching {client.url} "
          + (f"(sweep {args.sweep}, " if args.sweep else "(")
          + "Ctrl-C to stop)")
    try:
        while True:
            try:
                for kind, payload in client.events(timeout=30.0):
                    if kind == "hello" and isinstance(payload, dict):
                        kind, payload = "progress", payload.get("progress")
                    if kind == "progress" and isinstance(payload, dict):
                        if _update(payload):
                            return 0
                    elif kind == "sweep" and isinstance(payload, dict):
                        print(f"sweep {payload.get('sweep')}: "
                              f"{payload.get('queued')} queued, "
                              f"{payload.get('deduped')} deduped")
                # Server closed the stream; fall through to polling.
            except CoordinatorUnavailable:
                pass
            # SSE unavailable (old server, proxy): poll instead.
            try:
                if _update(client.progress()):
                    return 0
            except CoordinatorUnavailable:
                print("coordinator unreachable; retrying", file=sys.stderr)
            _time.sleep(args.poll)
    except KeyboardInterrupt:
        return 0


def _cmd_figure(args) -> int:
    from repro.experiments.figures import FIGURES

    for figure in FIGURES:
        if args.id in figure.ids:
            print(figure.render(figure.compute()))
            return 0
    ids = ", ".join(fid for figure in FIGURES for fid in figure.ids)
    raise SystemExit(f"repro figure: unknown id {args.id!r} (one of {ids})")


def _cmd_trace(args) -> int:
    if args.trace_command == "generate":
        from repro.experiments.runner import get_trace

        trace = get_trace(args.benchmark, args.accesses, seed=args.seed)
        trace.save(args.output)
        print(
            f"wrote {len(trace)} records ({trace.unique_lines} unique "
            f"lines, {trace.write_fraction * 100:.0f}% writes) to "
            f"{args.output}"
        )
        return 0

    if args.trace_command == "convert":
        from repro.scenarios.loaders import convert_trace
        from repro.workloads.dynamic import trace_benchmark

        report = convert_trace(
            args.source, args.output, fmt=args.fmt,
            line_size=args.line_size, default_gap=args.gap,
            limit=args.limit,
        )
        print(report.summary())
        print(f"benchmark name: {trace_benchmark(args.output)}")
        return 0

    # trace calibrate
    from repro.scenarios.calibrate import calibrate_trace

    record, outcome = calibrate_trace(
        args.file, configs=args.configs, accesses=args.accesses,
        seed=args.seed, jobs=_workers(args),
        use_store=False if args.no_store else None,
    )
    for result in outcome.results:
        print(result.summary())
    print(f"  {outcome.stats.describe()}")
    print(f"  {record.summary()}")
    return 0


def _cmd_fuzz(args) -> int:
    from repro.scenarios.fuzzer import run_fuzz

    report = run_fuzz(
        budget=args.budget, seed=args.seed, objective=args.objective,
        accesses=args.accesses, jobs=_workers(args),
        top=args.top, round_size=args.round_size,
        use_store=False if args.no_store else None,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    rows = [
        [result.name, result.origin, result.round, result.score,
         result.metrics.get("useful_prefetch_fraction", 0.0) * 100]
        for result in report.results
    ]
    print(
        format_table(
            ["worst case", "origin", "round", "score", "useful pf %"],
            rows,
            title=(f"fuzz[{report.objective}]: {report.evaluated} "
                   f"candidates, seed {report.seed}"),
        )
    )
    print(f"  baseline ({report.baseline.name}): "
          f"score {report.baseline.score:.4f}")
    print(f"  {report.summary()}")
    print(f"  {report.stats.describe()}")
    return 0


def _cmd_cost(args) -> int:
    from repro.experiments.hardware_cost import render, tab_hardware_cost

    print(render(tab_hardware_cost(thread_counts=tuple(args.threads))))
    return 0


def _cmd_telemetry(args) -> int:
    (job,) = _jobs(args, [args.benchmark], [args.config])
    result, session = _simulate(job, args.events, args.probe_interval)
    print(result.summary())
    print()
    print(session.report(max_rows=args.rows))
    tracer = session.tracer
    print()
    print(f"events: {tracer.total_events} "
          f"({', '.join(f'{k}={v}' for k, v in sorted(tracer.counts.items()))})")
    print(f"tracer overhead: {tracer.overhead_seconds() * 1e3:.1f} ms")
    if args.events:
        print(f"event log: {args.events} "
              f"({session.writer.events_written} events)")
    if args.series_csv:
        rows = session.export_csv(args.series_csv)
        print(f"series CSV: {args.series_csv} ({rows} epochs)")
    if args.series_json:
        session.export_json(args.series_json)
        print(f"series JSON: {args.series_json}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and dispatch to the chosen subcommand."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        # the analyzer parses its own arguments (docs/linting.md)
        from repro.analysislint import runner as lint_runner

        return lint_runner.main(argv[1:], prog="repro lint")
    args = _build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "compare": _cmd_compare,
        "suite": _cmd_suite,
        "sweep": _cmd_sweep,
        "figure": _cmd_figure,
        "trace": _cmd_trace,
        "fuzz": _cmd_fuzz,
        "cost": _cmd_cost,
        "telemetry": _cmd_telemetry,
        "obs": _cmd_obs,
        "fabric": _cmd_fabric,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
