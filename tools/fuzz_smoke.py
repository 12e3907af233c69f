"""CI smoke test for the adversarial fuzzer (docs/scenarios.md).

Runs a seeded micro-fuzz end to end — once through ``repro fuzz`` (the
user-facing CLI path), once in-process against the same store — and
asserts the acceptance contract:

1. ``repro fuzz --budget N --seed S`` exits 0 and persists the report
   (worst-case configs + objective scores) under ``<store>/fuzz/``;
2. the search is reproducible: the in-process rerun of the same seed
   finds the identical worst cases with identical scores, served from
   the store instead of re-simulated;
3. the fuzzer actually found something adversarial: the best
   candidate's ASD useful-prefetch fraction is measurably below the
   synthetic-default workload's (the baseline the report carries);
4. every persisted worst case is a fully decodable ``wl:`` parameter
   set that passes ``StreamWorkload.validate()``.

Exits non-zero with a message on the first failed assertion.

Usage::

    PYTHONPATH=src python tools/fuzz_smoke.py [--keep DIR]
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

BUDGET = 8
SEED = 1
ACCESSES = 1500
ROUND_SIZE = 4
#: How far below the baseline the best useful-prefetch fraction must
#: land for the find to count as "measurable".
MARGIN = 0.05


def fail(message: str) -> "SystemExit":
    return SystemExit(f"fuzz_smoke: {message}")


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", metavar="DIR", default=None,
                        help="store root to use (kept afterwards); "
                             "default: a fresh temp dir, removed afterwards")
    args = parser.parse_args(argv)

    root = args.keep or tempfile.mkdtemp(prefix="repro-fuzz-smoke-")
    try:
        return run(root)
    finally:
        if not args.keep:
            shutil.rmtree(root, ignore_errors=True)


def run(root: str) -> int:
    """The smoke itself, with its store under ``root``."""
    os.environ["REPRO_STORE_DIR"] = root

    from repro.cli import main as repro_main
    from repro.scenarios.fuzzer import report_path, run_fuzz
    from repro.workloads.dynamic import resolve_workload

    rc = repro_main([
        "fuzz", "--budget", str(BUDGET), "--seed", str(SEED),
        "-n", str(ACCESSES), "--round-size", str(ROUND_SIZE),
    ])
    if rc != 0:
        raise fail(f"repro fuzz exited {rc}")

    persisted = report_path("waste", SEED)
    if not os.path.exists(persisted):
        raise fail(f"no report persisted at {persisted}")
    with open(persisted, "r", encoding="utf-8") as handle:
        on_disk = json.load(handle)
    if len(on_disk["results"]) < 1:
        raise fail("persisted report holds no worst cases")
    for row in on_disk["results"]:
        if "score" not in row:
            raise fail(f"persisted result {row.get('name')} has no score")
        resolve_workload(row["benchmark"]).validate()

    # Reproducibility: same seed in-process, served from the store.
    rerun = run_fuzz(budget=BUDGET, seed=SEED, objective="waste",
                     accesses=ACCESSES, round_size=ROUND_SIZE)
    if [r.to_dict() for r in rerun.results] != on_disk["results"]:
        raise fail("rerun with the same seed found different worst cases")
    if rerun.stats.executed_serial or rerun.stats.executed_parallel:
        raise fail(
            f"rerun re-simulated {rerun.stats.executed_serial + rerun.stats.executed_parallel} "
            "job(s) instead of reading the store"
        )

    baseline_upf = rerun.baseline.metrics["useful_prefetch_fraction"]
    found_upf = min(
        r.metrics["useful_prefetch_fraction"]
        for r in rerun.results
        if r.metrics.get("pb_inserts", 0) > 0
    )
    if found_upf > baseline_upf - MARGIN:
        raise fail(
            f"found useful-prefetch fraction {found_upf:.4f} is not "
            f"measurably below the synthetic-default baseline "
            f"{baseline_upf:.4f} (margin {MARGIN})"
        )

    print(
        f"fuzz_smoke: ok — {rerun.evaluated} candidates, worst case "
        f"{rerun.best.name} score {rerun.best.score:.4f}, useful-prefetch "
        f"fraction {found_upf:.4f} vs baseline {baseline_upf:.4f}, "
        f"report at {persisted}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
