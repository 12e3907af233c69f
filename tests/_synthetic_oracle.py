"""The synthetic generator as it drew through the stdlib, kept as an oracle.

:func:`repro.workloads.synthetic._generate_segment` draws straight from
``rng.random``/``rng.getrandbits`` with CPython's ``randrange`` and
``choices`` arithmetic inlined.  This module keeps the version that
called ``randrange``/``choices`` themselves, and :func:`reference_trace`
runs :func:`~repro.workloads.synthetic.generate_trace` with it swapped
in, so tests can assert the two produce equal records.
"""

from __future__ import annotations

import math
import random
from itertools import accumulate
from typing import List, Optional, Tuple
from unittest import mock

from repro.workloads import synthetic
from repro.workloads.synthetic import (
    HOT_BASE,
    REGION_SLACK,
    StreamWorkload,
    _Stream,
)
from repro.workloads.trace import Trace


class ReferenceAllocator:
    """Bump allocator handing out non-overlapping cold stream regions."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._cursor = synthetic.COLD_BASE

    def region(self, length: int) -> int:
        base = self._cursor
        self._cursor += length + self._rng.randrange(8, REGION_SLACK)
        return base


def reference_segment(
    cfg: StreamWorkload,
    count: int,
    rng: random.Random,
    alloc: ReferenceAllocator,
    active: List[_Stream],
    records: List[Tuple[int, int, bool]],
) -> None:
    rand = rng.random
    randrange = rng.randrange
    choices = rng.choices
    log = math.log
    lengths = list(cfg.length_dist)
    cum_weights = list(accumulate(cfg.length_dist.values()))
    last_stream: Optional[_Stream] = None
    for _ in range(count):
        if rand() < cfg.hot_fraction:
            line = HOT_BASE + randrange(cfg.hot_lines)
            is_write = rand() < cfg.write_fraction
        else:
            while len(active) < cfg.interleave:
                length = choices(lengths, cum_weights=cum_weights)[0]
                descending = rand() < cfg.descending_fraction
                writes = rand() < cfg.write_fraction
                base = alloc.region(length)
                if descending:
                    active.append(_Stream(base + length - 1, -1, length, writes))
                else:
                    active.append(_Stream(base, 1, length, writes))
            if last_stream in active and rand() < cfg.burstiness:
                stream = last_stream
            else:
                stream = active[randrange(len(active))]
            last_stream = stream
            line = stream.next
            stream.next += stream.step
            stream.remaining -= 1
            is_write = stream.is_write
            if stream.remaining == 0:
                active.remove(stream)
        if cfg.gap_mean <= 0:
            gap = 0
        else:
            draw = rand()
            gap = int(-cfg.gap_mean * log(draw if draw > 1e-12 else 1e-12))
        records.append((gap, line, is_write))


def reference_trace(workload: StreamWorkload, n_accesses: int, seed: int = 0) -> Trace:
    """``generate_trace`` drawing through ``randrange``/``choices``."""
    with mock.patch.object(synthetic, "_generate_segment", reference_segment), \
            mock.patch.object(synthetic, "_Allocator", ReferenceAllocator):
        return synthetic.generate_trace(workload, n_accesses, seed)
