"""A tiny counter bag used by every simulated block.

A :class:`Stats` object is a string-keyed accumulator of numeric values.
Blocks bump counters as events happen; analysis code reads them at the
end of a run.  Missing keys read as 0, so reporting code never needs
``.get(..., 0)`` chains.

Two accounting conventions used by the simulator's hot loops:

* **Per-cycle integrals** (``ticks``, ``occ_*``): every simulated MC
  cycle is accounted, *including* cycles the event-driven main loop
  fast-forwards over, so ``occ_x / ticks`` is a true time average over
  the whole run, not an average conditioned on executed cycles.  The
  reference loop bumps them every cycle.  The event loop keeps one
  accumulator per queue, updated where a command enters (minus its
  clock) or leaves (plus its clock), and writes the integrals from the
  clock only where they are read (``MemoryController.settle_integrals``,
  before a result is collected and at each probe sample): between
  settles the stored values are stale.  They start at ``0.0`` and
  settle as floats, like the per-cycle bumps.
* **Hot-path batching**: blocks that bump several counters per cycle
  may hold on to :meth:`Stats.raw` and add into the mapping directly;
  missing keys read as 0.0 there too, so ``values["k"] += 1`` behaves
  exactly like :meth:`bump`.

Membership contract (pinned by tests): a key is ``in`` a ``Stats``
exactly when something *wrote* it — ``bump``/``set``/``merge`` or an
add through :meth:`raw`.  Reads never materialize: ``stats["missing"]``
and ``stats.raw()["missing"]`` both return 0 and leave ``len``,
iteration, and ``in`` unchanged.  (The old ``defaultdict`` backing
broke this: any read through ``raw()`` inserted the key, so ``in`` and
``len`` depended on who had *looked*.)
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Tuple


class _CounterMap(dict):
    """Dict whose missing keys read as 0.0 without materializing.

    Unlike ``defaultdict(float)``, ``__missing__`` does **not** insert
    the key — so hot-path augmented adds (``d[k] += 1`` = read 0.0,
    add, store) work unchanged, while plain reads stay side-effect
    free.
    """

    __slots__ = ()

    def __missing__(self, key: str) -> float:
        return 0.0


class Stats:
    """String-keyed numeric accumulator with namespacing support."""

    def __init__(self) -> None:
        self._values: Dict[str, float] = _CounterMap()

    def bump(self, key: str, amount: float = 1) -> None:
        """Add ``amount`` (default 1) to counter ``key``."""
        self._values[key] += amount

    def set(self, key: str, value: float) -> None:
        """Overwrite counter ``key`` with ``value``."""
        self._values[key] = value

    def raw(self) -> Dict[str, float]:
        """The live underlying mapping, for hot-path batched updates.

        Adding into the returned mapping is equivalent to :meth:`bump`
        but skips a method call per counter.  Missing keys read as 0.0
        *without* being inserted, so reads through this mapping never
        change membership (``in``/``len``/iteration) — callers may
        freely mix batched adds and probes.
        """
        return self._values

    def __getitem__(self, key: str) -> float:
        return self._values[key]

    def __contains__(self, key: str) -> bool:
        """True exactly when ``key`` has been written (never by reads)."""
        return key in self._values

    def __iter__(self) -> Iterator[Tuple[str, float]]:
        return iter(sorted(self._values.items()))

    def __len__(self) -> int:
        return len(self._values)

    def as_dict(self) -> Dict[str, float]:
        """Snapshot of all counters as a plain dict."""
        return dict(self._values)

    def merge(self, other: Mapping[str, float], prefix: str = "") -> None:
        """Fold another stats mapping into this one, optionally prefixed."""
        items = other.as_dict().items() if isinstance(other, Stats) else other.items()
        for key, value in items:
            self._values[prefix + key] += value

    def ratio(self, numerator: str, denominator: str) -> float:
        """Safe ratio of two counters; 0.0 when the denominator is 0."""
        denom = self._values.get(denominator, 0)
        if denom == 0:
            return 0.0
        return self._values.get(numerator, 0) / denom

    def total(self, prefix: str = "") -> float:
        """Sum of every counter whose key starts with ``prefix``.

        With the default empty prefix this is the grand total of all
        counters.  Replaces the prefix-sum loops analysis code used to
        re-implement locally.
        """
        if not prefix:
            return sum(self._values.values())
        return sum(v for k, v in self._values.items() if k.startswith(prefix))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self._values.items()))
        return f"Stats({inner})"
