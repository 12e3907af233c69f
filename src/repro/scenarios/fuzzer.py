"""Adversarial workload fuzzing over the StreamWorkload space.

:func:`run_fuzz` searches for parameter sets where the prefetcher (or
the fast model) does *badly*, as quantified by a pluggable
:class:`~repro.scenarios.objectives.Objective`.  The search is plain
random sampling plus mutation of the current worst-case elites —
cheap, embarrassingly parallel, and fully deterministic for a given
seed.

Execution rides the ordinary sweep engine: every candidate becomes a
``wl:`` dynamic benchmark (:mod:`repro.workloads.dynamic`) and each
round is one :func:`repro.experiments.sweep.run_jobs` call, so
candidate results dedupe into the result store under their exact
parameters, re-running a fuzz with the same seed is mostly store hits,
and crashes or timeouts get the sweep engine's flight-recorder
post-mortems.  The report itself (worst cases + objective scores +
the synthetic-default baseline) persists as JSON under
``<store root>/fuzz/``.
"""

from __future__ import annotations

import json
import logging
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.files import durable_write
from repro.experiments import runner, store
from repro.experiments.sweep import Job, SweepStats, run_jobs
from repro.obs import metrics as obs_metrics
from repro.scenarios.objectives import Objective, get_objective
from repro.scenarios.space import FuzzSpace
from repro.system.results import RunResult
from repro.workloads.dynamic import resolve_workload, workload_benchmark
from repro.workloads.synthetic import StreamWorkload

_log = logging.getLogger("repro.scenarios.fuzzer")

#: Candidates evaluated per sweep round (one run_jobs call each).
DEFAULT_ROUND_SIZE = 8
#: Share of each later round drawn by mutating current elites.
MUTATION_FRACTION = 0.5


@dataclass
class FuzzResult:
    """One evaluated candidate: identity, provenance, score, metrics."""

    name: str  # short digest name ("fuzz-..." or the baseline's name)
    benchmark: str  # full wl: encoding — decodable, store-key identity
    origin: str  # "random", "mutation", or "baseline"
    round: int
    score: float
    metrics: Dict[str, float] = field(default_factory=dict)

    def workload(self) -> StreamWorkload:
        """The candidate's full parameter set, decoded from its name."""
        return resolve_workload(self.benchmark)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (what the report file stores)."""
        return {
            "name": self.name,
            "benchmark": self.benchmark,
            "origin": self.origin,
            "round": self.round,
            "score": self.score,
            "metrics": dict(self.metrics),
        }


@dataclass
class FuzzReport:
    """Everything one :func:`run_fuzz` call found."""

    objective: str
    seed: int
    budget: int
    accesses: int
    evaluated: int
    rounds: int
    baseline: FuzzResult
    results: List[FuzzResult]  # worst cases, most adversarial first
    stats: SweepStats
    path: Optional[str] = None  # where the report persisted, if it did

    @property
    def best(self) -> Optional[FuzzResult]:
        """The most adversarial candidate found (None on empty budget)."""
        return self.results[0] if self.results else None

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form of the whole report."""
        return {
            "objective": self.objective,
            "seed": self.seed,
            "budget": self.budget,
            "accesses": self.accesses,
            "evaluated": self.evaluated,
            "rounds": self.rounds,
            "baseline": self.baseline.to_dict(),
            "results": [result.to_dict() for result in self.results],
            "sweep": self.stats.as_dict(),
        }

    def summary(self) -> str:
        """The one-line outcome ``repro fuzz`` prints."""
        line = (
            f"fuzz[{self.objective}] seed={self.seed}: "
            f"{self.evaluated} candidates in {self.rounds} round(s), "
            f"baseline score {self.baseline.score:.4f}"
        )
        if self.best is not None:
            line += (
                f", worst case {self.best.name} "
                f"score {self.best.score:.4f}"
            )
        if self.path is not None:
            line += f" -> {self.path}"
        return line


def report_path(objective: str, seed: int, root: Optional[str] = None) -> str:
    """Where the report for (objective, seed) persists under the store."""
    root = root if root is not None else store.store_root()
    return os.path.join(root, "fuzz", f"{objective}-seed{seed}.json")


def save_report(report: FuzzReport, root: Optional[str] = None) -> str:
    """Persist a report as JSON (atomic rename), returning its path."""
    path = report_path(report.objective, report.seed, root)
    with durable_write(path) as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    report.path = path
    return path


def _evaluate(
    batch: List[Tuple[str, str, int]],
    objective: Objective,
    accesses: Optional[int],
    seed: int,
    jobs: int,
    use_store: Optional[bool],
    stats: SweepStats,
) -> List[FuzzResult]:
    """Score one batch of candidates through a single sweep call.

    ``batch`` rows are ``(benchmark, origin, round)``; each candidate
    contributes one job per objective cell, and the whole batch is one
    ``run_jobs`` call so parallelism and store dedupe span candidates.
    """
    specs = [
        Job(benchmark=benchmark, config_name=config, accesses=accesses,
            seed=seed, fidelity=fidelity)
        for benchmark, _, _ in batch
        for config, fidelity in objective.cells
    ]
    outcome = run_jobs(specs, jobs=jobs, use_store=use_store)
    stats.merge(outcome.stats)
    results: List[FuzzResult] = []
    width = len(objective.cells)
    for slot, (benchmark, origin, rnd) in enumerate(batch):
        grid: Dict[Tuple[str, str], RunResult] = {
            cell: outcome.results[slot * width + offset]
            for offset, cell in enumerate(objective.cells)
        }
        name = resolve_workload(benchmark).name
        results.append(FuzzResult(
            name=name,
            benchmark=benchmark,
            origin=origin,
            round=rnd,
            score=objective.score(grid),
            metrics=objective.metrics(grid),
        ))
    return results


def run_fuzz(
    budget: int,
    seed: int = 0,
    objective: str = "waste",
    accesses: Optional[int] = None,
    jobs: int = 1,
    top: int = 8,
    round_size: int = DEFAULT_ROUND_SIZE,
    space: Optional[FuzzSpace] = None,
    use_store: Optional[bool] = None,
    save: Optional[bool] = None,
) -> FuzzReport:
    """Search ``budget`` candidate workloads for the worst cases.

    Deterministic for a given ``seed``: the candidate sequence comes
    from one seeded ``random.Random`` and every evaluation is an
    ordinary deterministic simulation, so the same call finds the same
    worst cases (and, with the store on, mostly re-reads them).

    The first rounds sample the :class:`FuzzSpace` at random; once
    elites exist, half of each round mutates them instead.  ``top``
    bounds the elite set and the report size.  ``save`` controls
    report persistence under ``<store root>/fuzz/`` (default: persist
    exactly when the result store is enabled).
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    chosen = get_objective(objective)
    space = space or FuzzSpace()
    rng = random.Random(seed)
    metrics = obs_metrics.default_registry()
    if metrics.enabled:
        candidates_total = metrics.counter(
            "repro_fuzz_candidates_total",
            "Fuzz candidates evaluated, by objective and origin.",
            ("objective", "origin"),
        )
        best_gauge = metrics.gauge(
            "repro_fuzz_best_score",
            "Most adversarial objective score seen so far.",
            ("objective",),
        )
    stats = SweepStats()

    # The synthetic-default workload anchors every report: "how bad is
    # the found worst case" only means something against this score.
    baseline = _evaluate(
        [(workload_benchmark(StreamWorkload()), "baseline", 0)],
        chosen, accesses, seed, jobs, use_store, stats,
    )[0]

    seen = {baseline.benchmark}
    elites: List[FuzzResult] = []
    evaluated = 0
    rounds = 0
    while evaluated < budget:
        want = min(round_size, budget - evaluated)
        rounds += 1
        batch: List[Tuple[str, str, int]] = []
        misses = 0
        while len(batch) < want and misses < want * 20:
            mutate = bool(elites) and rng.random() < MUTATION_FRACTION
            if mutate:
                parent = rng.choice(elites).workload()
                candidate = space.mutate(rng, parent)
                origin = "mutation"
            else:
                candidate = space.sample(rng)
                origin = "random"
            benchmark = workload_benchmark(candidate)
            if benchmark in seen:
                misses += 1  # duplicate of an already-evaluated point
                continue
            seen.add(benchmark)
            batch.append((benchmark, origin, rounds))
        if not batch:
            _log.warning(
                "fuzz search stagnated after %d candidates (every new "
                "draw was a duplicate); stopping early", evaluated,
            )
            break
        scored = _evaluate(
            batch, chosen, accesses, seed, jobs, use_store, stats
        )
        evaluated += len(scored)
        elites = sorted(
            elites + scored, key=lambda r: (-r.score, r.name)
        )[:max(1, top)]
        if metrics.enabled:
            for result in scored:
                candidates_total.inc(objective=chosen.name,
                                     origin=result.origin)
            best_gauge.set(elites[0].score, objective=chosen.name)
        _log.info(
            "fuzz round %d: %d candidate(s), best %s score %.4f",
            rounds, len(scored), elites[0].name, elites[0].score,
        )

    report = FuzzReport(
        objective=chosen.name,
        seed=seed,
        budget=budget,
        accesses=runner.resolve_accesses(accesses),
        evaluated=evaluated,
        rounds=rounds,
        baseline=baseline,
        results=elites,
        stats=stats,
    )
    persist = (
        save if save is not None
        else (store.store_enabled() if use_store is None else use_store)
    )
    if persist:
        save_report(report)
    return report
