"""Synthetic stream-mixture workload generator.

Generates line-granularity traces whose memory-controller-visible
behaviour is controlled directly:

* ``length_dist`` — the distribution of *stream lengths* (a stream is a
  run of consecutive cache lines, exactly the paper's definition);
* ``interleave`` — how many streams are live concurrently, which is
  what the Stream Filter has to untangle (Figure 16's accuracy lever);
* ``hot_fraction`` / ``hot_lines`` — temporal locality: accesses to a
  small hot set that the caches absorb, controlling memory intensity
  together with ``gap_mean``;
* ``descending_fraction`` — streams walking downward in the address
  space;
* ``write_fraction`` — stores, which produce DRAM writes through dirty
  evictions;
* ``phases`` — coarse program phases with different stream mixtures,
  producing the epoch-to-epoch SLH variation of Figure 3.

Cold stream data comes from a bump allocator over a huge footprint, so
streaming lines always miss the cache hierarchy — matching the paper's
memory-intensive workloads whose streams are compulsory-miss traffic.
"""

from __future__ import annotations

import math
import random
import zlib
from bisect import bisect
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from repro.workloads.trace import Trace

#: Line-address region where the hot (cache-resident) set lives.
HOT_BASE = 1 << 30
#: Start of the cold streaming region.
COLD_BASE = 1 << 34
#: Random spacing added between consecutively allocated stream regions
#: is drawn from ``[_SLACK_MIN, REGION_SLACK)``.
REGION_SLACK = 48
_SLACK_MIN = 8
_SLACK_SPAN = REGION_SLACK - _SLACK_MIN
_SLACK_BITS = _SLACK_SPAN.bit_length()


@dataclass
class WorkloadPhase:
    """A program phase: a weight and parameter overrides for it."""

    weight: float
    length_dist: Optional[Dict[int, float]] = None
    gap_mean: Optional[float] = None
    hot_fraction: Optional[float] = None


@dataclass
class StreamWorkload:
    """Parameter set for one synthetic benchmark."""

    name: str = "synthetic"
    length_dist: Dict[int, float] = field(default_factory=lambda: {1: 0.3, 2: 0.4, 4: 0.3})
    gap_mean: float = 20.0
    hot_fraction: float = 0.3
    hot_lines: int = 2048
    write_fraction: float = 0.12
    descending_fraction: float = 0.15
    interleave: int = 4
    #: probability that the next cold access continues the same stream as
    #: the previous one (loops sweep one region at a time; higher values
    #: mean burstier, easier-to-track streams at the controller)
    burstiness: float = 0.5
    phases: Sequence[WorkloadPhase] = ()
    #: accesses per full cycle through the phase list; phases alternate
    #: in rounds (so SLH epochs see genuinely different phases over time)
    phase_round: int = 6000

    def validate(self) -> None:
        # the base has no value to inherit: a missing length_dist is empty
        _check_mix(self.length_dist or {}, self.gap_mean, self.hot_fraction, "")
        if not isinstance(self.hot_lines, int) or self.hot_lines < 1:
            raise ValueError("hot_lines must be an integer >= 1")
        if not 0 <= self.write_fraction <= 1:
            raise ValueError("write_fraction must be in [0, 1]")
        if not 0 <= self.descending_fraction <= 1:
            raise ValueError("descending_fraction must be in [0, 1]")
        if not 0 <= self.burstiness <= 1:
            raise ValueError("burstiness must be in [0, 1]")
        if not isinstance(self.interleave, int) or self.interleave < 1:
            raise ValueError("interleave must be an integer >= 1")
        for index, phase in enumerate(self.phases):
            if phase.weight < 0:
                raise ValueError(f"phases[{index}].weight must be non-negative")
            _check_mix(phase.length_dist, phase.gap_mean, phase.hot_fraction,
                       f"phases[{index}].")

    def with_overrides(self, phase: WorkloadPhase) -> "StreamWorkload":
        """This workload with a phase's overrides applied."""
        changes = {}
        if phase.length_dist is not None:
            changes["length_dist"] = phase.length_dist
        if phase.gap_mean is not None:
            changes["gap_mean"] = phase.gap_mean
        if phase.hot_fraction is not None:
            changes["hot_fraction"] = phase.hot_fraction
        return replace(self, phases=(), **changes)


def _check_mix(
    length_dist: Optional[Dict[int, float]],
    gap_mean: Optional[float],
    hot_fraction: Optional[float],
    where: str,
) -> None:
    """The rules a workload's stream mix obeys, base or phase override.

    ``None`` (a phase not overriding the field) passes.  The generator
    draws a length by bisecting the cumulative weights, so weights that
    are infinite, NaN or all zero would pick a length silently instead
    of failing.  Each error names the field; ``where`` prefixes it with
    the phase index.
    """
    if length_dist is not None:
        if not length_dist:
            raise ValueError(f"{where}length_dist must not be empty")
        if any(length < 1 for length in length_dist):
            raise ValueError(f"{where}length_dist: stream lengths must be >= 1")
        if not all(0 <= weight < math.inf for weight in length_dist.values()):
            raise ValueError(
                f"{where}length_dist: weights must be finite and non-negative"
            )
        if sum(length_dist.values()) <= 0:
            raise ValueError(
                f"{where}length_dist: weights must sum to a positive value"
            )
    if gap_mean is not None and not gap_mean >= 0:
        raise ValueError(f"{where}gap_mean must be non-negative")
    if hot_fraction is not None and not 0 <= hot_fraction <= 1:
        raise ValueError(f"{where}hot_fraction must be in [0, 1]")


class _Stream:
    __slots__ = ("next", "step", "remaining", "is_write")

    def __init__(
        self, next_line: int, step: int, remaining: int, is_write: bool
    ) -> None:
        self.next = next_line
        self.step = step
        self.remaining = remaining
        self.is_write = is_write


class _Allocator:
    """Bump allocator handing out non-overlapping cold stream regions."""

    def __init__(self, rng: random.Random) -> None:
        self._getrandbits = rng.getrandbits
        self._cursor = COLD_BASE

    def region(self, length: int) -> int:
        base = self._cursor
        # rng.randrange(_SLACK_MIN, REGION_SLACK), drawn as CPython does
        # (see _generate_segment)
        slack = self._getrandbits(_SLACK_BITS)
        while slack >= _SLACK_SPAN:
            slack = self._getrandbits(_SLACK_BITS)
        self._cursor += length + _SLACK_MIN + slack
        return base


def _generate_segment(
    cfg: StreamWorkload,
    count: int,
    rng: random.Random,
    alloc: _Allocator,
    active: List[_Stream],
    records: List[Tuple[int, int, bool]],
) -> None:
    # The loop draws from the RNG in a fixed order (stream choice, then
    # the gap), straight from ``rng.random`` and ``rng.getrandbits``
    # with CPython's own arithmetic: ``randrange(n)`` is
    # ``_randbelow_with_getrandbits`` (``n.bit_length()`` bits, redrawn
    # while ``>= n``) and ``choices(cum_weights=...)`` is
    # ``bisect(cum_weights, random() * total, 0, n - 1)``.  So every
    # trace is bit-for-bit what those calls would produce.
    rand = rng.random
    getrandbits = rng.getrandbits
    log = math.log
    hot_fraction = cfg.hot_fraction
    hot_lines = cfg.hot_lines
    hot_bits = hot_lines.bit_length()
    write_fraction = cfg.write_fraction
    descending_fraction = cfg.descending_fraction
    interleave = cfg.interleave
    # ``active`` only grows in the refill loop, so a pick always sees
    # exactly ``interleave`` live streams
    pick_bits = interleave.bit_length()
    burstiness = cfg.burstiness
    neg_gap_mean = -cfg.gap_mean
    draw_gaps = cfg.gap_mean > 0
    lengths = list(cfg.length_dist)
    cum_weights = list(accumulate(cfg.length_dist.values()))
    total = cum_weights[-1] + 0.0
    last_length = len(lengths) - 1
    region = alloc.region
    append = records.append
    # the stream the last cold access advanced, while it is still live
    last_stream: Optional[_Stream] = None
    for _ in range(count):
        if rand() < hot_fraction:
            pick = getrandbits(hot_bits)
            while pick >= hot_lines:
                pick = getrandbits(hot_bits)
            line = HOT_BASE + pick
            is_write = rand() < write_fraction
        else:
            while len(active) < interleave:
                length = lengths[bisect(cum_weights, rand() * total, 0, last_length)]
                descending = rand() < descending_fraction
                # streams are load streams or store streams wholesale:
                # real codes sweep input and output arrays separately, so
                # a store never punches a hole in a read stream at the MC
                writes = rand() < write_fraction
                base = region(length)
                if descending:
                    active.append(_Stream(base + length - 1, -1, length, writes))
                else:
                    active.append(_Stream(base, 1, length, writes))
            if last_stream is not None and rand() < burstiness:
                stream = last_stream
            else:
                pick = getrandbits(pick_bits)
                while pick >= interleave:
                    pick = getrandbits(pick_bits)
                stream = active[pick]
            line = stream.next
            stream.next += stream.step
            stream.remaining -= 1
            is_write = stream.is_write
            if stream.remaining:
                last_stream = stream
            else:
                active.remove(stream)
                last_stream = None
        if draw_gaps:
            draw = rand()
            gap = int(neg_gap_mean * log(draw if draw > 1e-12 else 1e-12))
        else:
            gap = 0  # no draw
        append((gap, line, is_write))


def generate_trace(
    workload: StreamWorkload, n_accesses: int, seed: int = 0
) -> Trace:
    """Generate a deterministic trace of ``n_accesses`` records.

    With ``workload.phases`` set, the trace is split into contiguous
    segments proportional to the phase weights, each generated with that
    phase's overrides (live streams carry across the boundary, like a
    real phase change mid-loop-nest).
    """
    workload.validate()
    if n_accesses <= 0:
        raise ValueError("n_accesses must be positive")
    # crc32, not hash(): Python string hashing is randomised per process
    # and would silently break cross-process reproducibility
    rng = random.Random(seed ^ zlib.crc32(workload.name.encode()))
    alloc = _Allocator(rng)
    active: List[_Stream] = []
    records: List[Tuple[int, int, bool]] = []

    if workload.phases:
        total_weight = sum(p.weight for p in workload.phases)
        if total_weight <= 0:
            raise ValueError("phase weights must sum to a positive value")
        if workload.phase_round <= 0:
            raise ValueError("phase_round must be positive")
        remaining = n_accesses
        while remaining > 0:
            for phase in workload.phases:
                if phase.weight == 0:
                    # A zero-weight phase is "not present in this mix",
                    # not "present one access per round": the >=1 clamp
                    # below exists so tiny positive weights still appear.
                    continue
                count = int(round(workload.phase_round * phase.weight / total_weight))
                count = min(max(count, 1), remaining)
                _generate_segment(
                    workload.with_overrides(phase), count, rng, alloc, active, records
                )
                remaining -= count
                if remaining <= 0:
                    break
    else:
        _generate_segment(workload, n_accesses, rng, alloc, active, records)

    return Trace(records, name=workload.name)
