"""Bounded per-epoch time series.

Probes sample unbounded runs, so series storage must be bounded: a
:class:`Series` keeps the most recent ``capacity`` samples in a
``collections.deque``, counts what it dropped, and pairs each retained
value with the epoch index it was sampled at (so wrapped series still
line up across probes).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Tuple


class Series:
    """A named sequence of (epoch, value) samples, oldest dropped first."""

    __slots__ = ("name", "_samples", "dropped")

    def __init__(self, name: str, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.name = name
        self._samples: Deque[Tuple[int, Any]] = deque(maxlen=capacity)
        #: samples lost to wraparound
        self.dropped = 0

    def record(self, epoch: int, value: Any) -> None:
        """Append one sample taken at ``epoch``."""
        if len(self._samples) == self._samples.maxlen:
            self.dropped += 1
        self._samples.append((epoch, value))

    def __len__(self) -> int:
        return len(self._samples)

    def samples(self) -> List[Tuple[int, Any]]:
        """All retained (epoch, value) pairs, oldest first."""
        return list(self._samples)

    def epochs(self) -> List[int]:
        """Epoch indices of the retained samples."""
        return [e for e, _ in self._samples]

    def points(self) -> List[Any]:
        """Values of the retained samples."""
        return [v for _, v in self._samples]

    @property
    def is_scalar(self) -> bool:
        """True when every retained value is a plain number."""
        return all(isinstance(v, (int, float)) for _, v in self._samples)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Series({self.name!r}, n={len(self)}, dropped={self.dropped})"
