"""The Power5 processor-side stream prefetcher (paper Section 4.2).

A sequential prefetcher that "waits to issue prefetches until it detects
two consecutive cache misses", with a 12-entry stream-detection unit and
up to eight concurrently prefetched streams.  In steady state each
stream advance pulls one additional line toward the L1 and one toward
the L2 — modelled here as two leading-edge requests per advance at
``l1_lead`` and ``l2_lead`` lines ahead.

The engine watches demand accesses that miss the L1 **or** hit a line it
prefetched into the L1 itself (otherwise its own success would starve
its stream tracking).  Its prefetch requests travel to the memory
controller as ordinary reads — at the MC they are indistinguishable
from demand reads, exactly as the paper notes.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import List, Set

from repro.common.config import ProcessorSidePrefetcherConfig
from repro.common.stats import Stats


@dataclass(frozen=True, slots=True)
class PSRequest:
    """One processor-side prefetch request.

    ``to_l1`` selects the fill destination: True fills L1+L2 (the
    near-edge line), False stops at the L2 (the far-edge line).
    """

    line: int
    to_l1: bool


class _Stream:
    __slots__ = ("last", "step", "next_pf", "depth")

    def __init__(self, last: int, step: int, ramp: int) -> None:
        self.last = last
        self.step = step
        self.next_pf = last + step  # next line to prefetch
        self.depth = ramp  # current lead, grows toward l2_lead


class ProcessorSidePrefetcher:
    """Two-miss-confirm sequential stream prefetcher, per core."""

    def __init__(self, config: ProcessorSidePrefetcherConfig) -> None:
        config.validate()
        self.config = config
        self.enabled = config.enabled
        self._candidates = deque(maxlen=config.detect_entries)
        self._streams: "OrderedDict[int, _Stream]" = OrderedDict()
        #: lines this prefetcher installed into the L1 (advance-on-hit)
        self._installed_l1: Set[int] = set()
        self.stats = Stats()
        # hot path: observe() adds straight into the counter mapping
        self._stat_values = self.stats.raw()

    # ------------------------------------------------------------------
    def observe(self, line: int, l1_hit: bool) -> List[PSRequest]:
        """Feed one demand access; returns prefetch requests to send.

        Call for every demand access.  L1 hits are ignored unless the
        line was installed by this prefetcher (stream advance on
        prefetch hit).
        """
        if not self.enabled:
            return []
        if l1_hit:
            if line not in self._installed_l1:
                return []
            self._installed_l1.discard(line)
        else:
            self._installed_l1.discard(line)

        cfg = self.config
        values = self._stat_values
        # advance an existing stream (move_to_end is safe mid-loop: the
        # loop returns right after it)
        for key, stream in self._streams.items():
            if line == stream.last + stream.step:
                stream.last = line
                stream.depth = min(stream.depth + 1, cfg.l2_lead)
                self._streams.move_to_end(key)
                values["advances"] += 1
                return self._emit(stream)

        # confirm a candidate (two consecutive-line misses)
        step = 0
        if line - 1 in self._candidates:
            step = 1
            self._candidates.remove(line - 1)
        elif line + 1 in self._candidates:
            step = -1
            self._candidates.remove(line + 1)
        if step:
            if len(self._streams) >= cfg.max_streams:
                self._streams.popitem(last=False)
                values["stream_replacements"] += 1
            stream = _Stream(line, step, cfg.ramp)
            self._streams[line] = stream
            values["confirms"] += 1
            return self._emit(stream)

        self._candidates.append(line)
        values["allocations"] += 1
        return []

    def _emit(self, stream: _Stream) -> List[PSRequest]:
        """Advance the per-stream prefetch pointer up to the current lead.

        The ramp makes the lead grow gradually — short streams waste at
        most ``ramp`` prefetches at their end, while long streams reach a
        lead of ``l2_lead`` lines (the steady state of Section 4.2: each
        advance brings one line toward the L1 edge and one toward the L2
        edge).
        """
        cfg = self.config
        out: List[PSRequest] = []
        while (stream.next_pf - stream.last) * stream.step <= stream.depth:
            distance = (stream.next_pf - stream.last) * stream.step
            out.append(PSRequest(stream.next_pf, to_l1=distance <= cfg.l1_lead))
            stream.next_pf += stream.step
        return out

    # ------------------------------------------------------------------
    def notify_fill(self, line: int, to_l1: bool) -> None:
        """A prefetched line arrived; remember L1 installs for
        advance-on-hit tracking."""
        if to_l1:
            self._installed_l1.add(line)

    @property
    def active_streams(self) -> int:
        return len(self._streams)
