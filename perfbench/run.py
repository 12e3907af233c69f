"""Run one workload of the repo benchmark and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload exact-stream --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json,
``--trace 1`` every per-layer metric; each line is ``name value unit``
and the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--write-digests``
re-pins the workload's default-seed results instead of measuring.

Exits non-zero, printing no result, when the program under test is
not beside the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".perfbench-work")

#: Environment that would change what the program does; the benchmark
#: passes everything it needs explicitly.
_PROGRAM_ENV = ("REPRO_SPANS", "REPRO_METRICS", "REPRO_LOOP", "REPRO_STORE",
                "REPRO_STORE_DIR", "REPRO_TRACE_ACCESSES", "REPRO_SEED",
                "REPRO_JOBS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact-stream", "sweep-fast", "fabric-fast"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program under test at {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    for name in _PROGRAM_ENV:
        os.environ.pop(name, None)
    from perfbench import bench
    from perfbench.workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.write_digests:
            count = bench.write_digests(workload)
            print(f"pinned {count} {args.workload} result digests")
            return 0
        report = bench.trace(workload) if args.trace else bench.measure(
            workload, args.seconds)
        diagnostics = bench.host_diagnostics(workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in report.metrics]
    if missing:
        print(f"perfbench: {args.workload} did not measure {missing}", file=sys.stderr)
        return 1
    for message in report.messages:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    diagnostics.update(report.diagnostics)
    print(f"# {args.workload} diagnostics: {json.dumps(diagnostics, sort_keys=True)}")
    metrics = {}
    for metric in declared:
        value = report.metrics[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:<30} {value:>16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
