"""The adversarial search space over StreamWorkload parameters.

Each candidate is a complete :class:`~repro.workloads.synthetic.
StreamWorkload` — the axes the paper's own analysis says matter are
the axes the fuzzer explores:

* **stream-length mixtures** — the SLH shape ASD conditions on
  (isolated-line floods, knife-edge mixes of adjacent lengths);
* **phase-change storms** — many short phases with contradictory
  mixtures, so each epoch's SLH describes the *previous* phase;
* **interleave / SMT-style interference** — many live streams for the
  Stream Filter to untangle, with low burstiness scattering their
  touches;
* **burstiness / arrival density** — ``gap_mean`` from back-to-back to
  sparse, which moves the adaptive-scheduling conflict rate.

Sampling and mutation draw only from an explicitly seeded
``random.Random`` — a fuzz run is a pure function of its seed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.workloads.dynamic import encode_workload
from repro.workloads.synthetic import StreamWorkload, WorkloadPhase

#: Stream lengths candidate mixtures draw from (SLH bucket territory).
LENGTH_CHOICES = (1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 32)


def candidate_name(workload: StreamWorkload) -> str:
    """Short stable id of a candidate: digest of its full encoding."""
    text = encode_workload(
        StreamWorkload(**{**workload.__dict__, "name": ""})
    )
    return "fuzz-" + hashlib.sha256(text.encode("utf-8")).hexdigest()[:10]


def _named(workload: StreamWorkload) -> StreamWorkload:
    """The candidate with its canonical digest name stamped on."""
    named = StreamWorkload(
        **{**workload.__dict__, "name": candidate_name(workload)}
    )
    named.validate()
    return named


@dataclass
class FuzzSpace:
    """Bounds of the search space (all axes overridable per fuzz run)."""

    gap_mean_max: float = 60.0
    hot_fraction_max: float = 0.9
    hot_lines_range: Tuple[int, int] = (256, 4096)
    write_fraction_max: float = 0.5
    interleave_max: int = 16
    max_phases: int = 4
    phase_round_range: Tuple[int, int] = (500, 8000)
    max_lengths: int = 5

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def _sample_dist(self, rng: random.Random) -> Dict[int, float]:
        """A random stream-length mixture over 1..max_lengths supports."""
        count = rng.randint(1, self.max_lengths)
        lengths = rng.sample(LENGTH_CHOICES, count)
        weights = [rng.random() + 0.05 for _ in lengths]
        total = sum(weights)
        return {
            length: round(weight / total, 4)
            for length, weight in sorted(zip(lengths, weights))
        }

    def _sample_phases(
        self, rng: random.Random
    ) -> Tuple[Tuple[WorkloadPhase, ...], int]:
        """Maybe a phase-change storm: several contradictory mixtures."""
        if rng.random() < 0.5:
            return (), 6000
        count = rng.randint(2, self.max_phases)
        phases = tuple(
            WorkloadPhase(
                weight=round(rng.uniform(0.1, 1.0), 3),
                length_dist=self._sample_dist(rng),
                gap_mean=(
                    round(rng.uniform(0.0, self.gap_mean_max), 2)
                    if rng.random() < 0.5 else None
                ),
                hot_fraction=(
                    round(rng.uniform(0.0, self.hot_fraction_max), 3)
                    if rng.random() < 0.3 else None
                ),
            )
            for _ in range(count)
        )
        phase_round = rng.randrange(*self.phase_round_range)
        return phases, phase_round

    def sample(self, rng: random.Random) -> StreamWorkload:
        """One random candidate (validated, canonically named)."""
        phases, phase_round = self._sample_phases(rng)
        return _named(StreamWorkload(
            name="",
            length_dist=self._sample_dist(rng),
            gap_mean=round(rng.uniform(0.0, self.gap_mean_max), 2),
            hot_fraction=round(rng.uniform(0.0, self.hot_fraction_max), 3),
            hot_lines=rng.randrange(*self.hot_lines_range),
            write_fraction=round(rng.uniform(0.0, self.write_fraction_max), 3),
            descending_fraction=round(rng.random(), 3),
            interleave=rng.randint(1, self.interleave_max),
            burstiness=round(rng.random(), 3),
            phases=phases,
            phase_round=phase_round,
        ))

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def mutate(
        self, rng: random.Random, parent: StreamWorkload
    ) -> StreamWorkload:
        """A candidate near ``parent``: one to three axes perturbed."""
        changes: Dict[str, object] = {}
        axes = rng.sample(
            ("length_dist", "gap_mean", "hot_fraction", "write_fraction",
             "interleave", "burstiness", "descending_fraction", "phases"),
            rng.randint(1, 3),
        )
        for axis in axes:
            if axis == "length_dist":
                changes["length_dist"] = self._mutate_dist(
                    rng, parent.length_dist
                )
            elif axis == "gap_mean":
                changes["gap_mean"] = round(
                    _clamp(parent.gap_mean * rng.uniform(0.3, 2.0)
                           + rng.uniform(-4, 4), 0.0, self.gap_mean_max), 2)
            elif axis == "hot_fraction":
                changes["hot_fraction"] = round(
                    _clamp(parent.hot_fraction + rng.uniform(-0.3, 0.3),
                           0.0, self.hot_fraction_max), 3)
            elif axis == "write_fraction":
                changes["write_fraction"] = round(
                    _clamp(parent.write_fraction + rng.uniform(-0.15, 0.15),
                           0.0, self.write_fraction_max), 3)
            elif axis == "interleave":
                changes["interleave"] = int(_clamp(
                    parent.interleave + rng.choice((-4, -2, -1, 1, 2, 4)),
                    1, self.interleave_max))
            elif axis == "burstiness":
                changes["burstiness"] = round(
                    _clamp(parent.burstiness + rng.uniform(-0.4, 0.4),
                           0.0, 1.0), 3)
            elif axis == "descending_fraction":
                changes["descending_fraction"] = round(rng.random(), 3)
            elif axis == "phases":
                phases, phase_round = self._sample_phases(rng)
                changes["phases"] = phases
                changes["phase_round"] = phase_round
        return _named(StreamWorkload(
            **{**parent.__dict__, **changes, "name": ""}
        ))

    def _mutate_dist(
        self, rng: random.Random, dist: Dict[int, float]
    ) -> Dict[int, float]:
        """Jitter weights, maybe swap one support length in or out."""
        entries: List[Tuple[int, float]] = [
            (length, max(0.01, weight * rng.uniform(0.4, 1.8)))
            for length, weight in sorted(dist.items())
        ]
        if rng.random() < 0.4:
            unused = [c for c in LENGTH_CHOICES
                      if c not in {length for length, _ in entries}]
            if len(entries) > 1 and (not unused or rng.random() < 0.5):
                entries.pop(rng.randrange(len(entries)))
            elif unused:
                entries.append(
                    (rng.choice(unused), rng.random() + 0.05)
                )
        total = sum(weight for _, weight in entries)
        return {
            length: round(weight / total, 4)
            for length, weight in sorted(entries)
        }


def _clamp(value: float, low: float, high: float) -> float:
    """``value`` forced into [low, high]."""
    return max(low, min(high, value))
