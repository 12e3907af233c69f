"""CI smoke test for the two-fidelity core (docs/fidelity.md).

Runs one tiny grid end to end at ``--fidelity auto`` — first through
``repro.cli`` (the user-facing path), then through
:func:`repro.fastsim.run_fidelity_sweep` in-process against the same
store — and asserts the acceptance contract:

1. ``repro sweep --fidelity auto`` exits 0;
2. the sweep produced a calibration record (error distribution from
   the exact validation sample);
3. every fast result carries the record's per-metric error bars, both
   in memory and round-tripped through the on-disk store;
4. the advertised bound actually holds on every sampled exact point
   (re-measured here, not trusted from the record).

Exits non-zero with a message on the first failed assertion.

Usage::

    PYTHONPATH=src python tools/fastsim_smoke.py [--keep DIR]
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile

BENCHMARKS = ["milc", "cg"]
CONFIGS = ["NP", "PMS"]
ACCESSES = 2500
SEED = 1


def fail(message: str) -> "SystemExit":
    return SystemExit(f"fastsim_smoke: {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", metavar="DIR", default=None,
                        help="store root to use (kept afterwards); "
                             "default: a fresh temp dir, removed afterwards")
    args = parser.parse_args(argv)

    root = args.keep or tempfile.mkdtemp(prefix="repro-fastsim-smoke-")
    try:
        return run(root)
    finally:
        if not args.keep:
            shutil.rmtree(root, ignore_errors=True)


def run(root: str) -> int:
    """The smoke itself, with its store under ``root``."""
    os.environ["REPRO_STORE_DIR"] = root

    from repro.cli import main as repro_main
    from repro.experiments.sweep import expand_grid
    from repro.fastsim import run_fidelity_sweep
    from repro.fastsim.gate import GATED_METRICS, relative_error

    rc = repro_main([
        "sweep", "-b", *BENCHMARKS, "-c", *CONFIGS,
        "-n", str(ACCESSES), "--seed", str(SEED),
        "--fidelity", "auto", "--no-progress",
    ])
    if rc != 0:
        raise fail(f"repro sweep --fidelity auto exited {rc}")

    jobs = expand_grid(BENCHMARKS, CONFIGS, accesses=ACCESSES, seed=SEED)
    outcome = run_fidelity_sweep(jobs, fidelity="auto")

    record = outcome.record
    if record is None:
        raise fail("auto sweep produced no calibration record")
    if record.samples < 1:
        raise fail("calibration record has no exact samples")
    print(f"fastsim_smoke: {record.summary()}")

    fast_results = [r for r in outcome.results if r.fidelity_tier == "fast"]
    if not fast_results:
        raise fail("auto sweep returned no fast-tier results")
    for result in fast_results:
        for metric in GATED_METRICS:
            if result.error_bar(metric) != record.bound(metric):
                raise fail(
                    f"{result.benchmark}/{result.config_name} lacks the "
                    f"calibrated {metric} error bar"
                )

    # Re-measure the bound on the validation sample instead of
    # trusting the record: rerun the validated cells at both tiers
    # (instant store hits) and compare.
    exact_by_cell = {
        (r.benchmark, r.config_name): r
        for r in outcome.results if r.fidelity_tier == "exact"
    }
    fast_outcome = run_fidelity_sweep(jobs, fidelity="fast")
    checked = 0
    for result in fast_outcome.results:
        exact = exact_by_cell.get((result.benchmark, result.config_name))
        if exact is None or result.fidelity_tier != "fast":
            continue
        for metric in GATED_METRICS:
            observed = relative_error(result, exact, metric)
            if observed > record.bound(metric):
                raise fail(
                    f"{metric} error {observed:.4f} exceeds advertised "
                    f"bound {record.bound(metric):.4f} on "
                    f"{result.benchmark}/{result.config_name}"
                )
        checked += 1
    if checked < 1:
        raise fail("no (fast, exact) pair available to re-check the bound")

    print(
        f"fastsim_smoke: ok — {len(fast_results)} fast result(s) carry "
        f"error bars, bound re-verified on {checked} exact sample(s), "
        f"{len(outcome.validated_indices)} validated / "
        f"{len(outcome.escalated_indices)} escalated"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
