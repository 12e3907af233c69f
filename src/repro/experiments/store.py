"""Content-addressed result store: the only cache of simulation results.

Each completed run is written as one JSON file under ``.repro-results/``
(override with ``REPRO_STORE_DIR``), keyed by a SHA-256 hash of the
*full job specification* — benchmark, configuration name, trace length,
seed, thread count, scheduler, and a fingerprint of the fully-built
:class:`~repro.common.config.SystemConfig`.  That job key is the one
job identity: the sweep engine (and so ``runner.run``), the fidelity
orchestrator and the fabric all read and write results through it.

With the store off (``REPRO_STORE=0`` or ``use_store=False``),
:func:`active_store` hands out a :class:`MemoryStore` instead: the same
``get``/``put`` under the same keys, holding encoded results in process
memory (so every read decodes a fresh object, as from disk) until
``runner.clear_cache()`` empties it, and at most
:data:`MEMORY_STORE_ENTRIES` of them (least recently used first out).

Because the config fingerprint covers every knob of the final config
(including a job's overrides and preset definitions), editing a preset
automatically invalidates exactly the affected entries — stale results
can never be served — and an override that leaves the config unchanged
shares the preset's key.

Probed runs (``EpochProbes`` attached) are **never** stored: their
series are the point of running them, and a stored result cannot
replay probe samples.  :func:`encode_result` enforces this.

Concurrency: writes are atomic (``os.replace`` of a same-directory temp
file), so parallel sweep workers and multiple processes can share one
store; last writer wins with an identical payload.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from collections import OrderedDict
from typing import Dict, Iterator, Mapping, Optional, Tuple, Union

from repro.common.config import SystemConfig
from repro.common.files import durable_write
from repro.dram.power import PowerReport
from repro.obs.metrics import default_registry
from repro.obs.paths import obs_root as store_root
from repro.system.results import RunResult

#: Bumped whenever the stored payload or key layout changes; part of
#: every key, so old-format entries are simply never matched.
#: 2: ``mc.ticks`` / ``mc.occ_*`` integrals now cover fast-forwarded
#: cycles, so occupancy averages from version-1 entries don't compare.
STORE_VERSION = 2

#: Orphaned ``.tmp-*`` files younger than this are presumed to belong
#: to a live writer and are left alone (see ResultStore.sweep_orphans).
ORPHAN_MIN_AGE_SECONDS = 3600.0

#: Most results a :class:`MemoryStore` keeps (~4 KiB each, so ~16 MiB):
#: ten times the 340 distinct cells of the experiments report.
MEMORY_STORE_ENTRIES = 4096


def store_enabled() -> bool:
    """On-disk persistence is on unless ``REPRO_STORE=0``."""
    return os.environ.get("REPRO_STORE", "1") != "0"


def _canonical(obj: object) -> str:
    """Deterministic JSON text (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


#: JSON leaves that ``_plain`` returns as they are
_SCALARS = frozenset({bool, int, float, str, type(None)})

#: dataclass type -> its field names, looked up once per class
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def _plain(value: object) -> object:
    """``dataclasses.asdict(value)`` as JSON sees it, without the deep
    copy ``asdict`` makes of every leaf."""
    cls = type(value)
    if cls in _SCALARS:
        return value
    names = _FIELD_NAMES.get(cls)
    if names is None:
        if not dataclasses.is_dataclass(cls):
            if isinstance(value, (list, tuple)):
                return [_plain(item) for item in value]
            if isinstance(value, dict):
                return {key: _plain(item) for key, item in value.items()}
            return value
        names = _FIELD_NAMES[cls] = tuple(f.name for f in dataclasses.fields(cls))
    return {name: _plain(getattr(value, name)) for name in names}


def config_fingerprint(config: SystemConfig) -> str:
    """Short digest of every knob of a fully-built system config."""
    digest = hashlib.sha256(_canonical(_plain(config)).encode("utf-8"))
    return digest.hexdigest()[:16]


def job_spec(
    benchmark: str,
    config_name: str,
    accesses: int,
    seed: int,
    threads: int,
    scheduler: str,
    config: SystemConfig,
    fidelity: str = "exact",
) -> Dict[str, object]:
    """The canonical job specification a store key is derived from.

    A job's overrides are identified by ``config_fingerprint`` alone.
    Exact jobs keep the historical key shape (no ``fidelity`` key), so
    every pre-existing store entry stays addressable.  Fast-tier jobs
    add the tier *and* the fast-model version: bumping
    :data:`repro.fastsim.version.FAST_MODEL_VERSION` silently retires
    every fast entry while leaving exact ones untouched.
    """
    spec: Dict[str, object] = {
        "benchmark": benchmark,
        "config": config_name,
        "accesses": accesses,
        "seed": seed,
        "threads": threads,
        "scheduler": scheduler,
        # Always None now; kept so that every existing key stays valid.
        "mutate_key": None,
        "config_fingerprint": config_fingerprint(config),
    }
    if fidelity != "exact":
        from repro.fastsim.version import FAST_MODEL_VERSION, JOB_FIDELITIES

        if fidelity not in JOB_FIDELITIES:
            raise ValueError(f"unknown job fidelity {fidelity!r}")
        spec["fidelity"] = fidelity
        spec["fast_model"] = FAST_MODEL_VERSION
    return spec


def job_key(spec: Mapping[str, object]) -> str:
    """Content address of one job: SHA-256 over version + spec."""
    payload = {"version": STORE_VERSION, "spec": dict(spec)}
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def encode_result(result: RunResult) -> Dict[str, object]:
    """Lossless, JSON-safe encoding of an unprobed :class:`RunResult`."""
    if result.telemetry is not None:
        raise ValueError(
            "probed runs are never stored: probe samples cannot be "
            "replayed from a store"
        )
    payload: Dict[str, object] = {
        "config_name": result.config_name,
        "benchmark": result.benchmark,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "cpu_ratio": result.cpu_ratio,
        "stats": dict(result.stats),
        "power": dataclasses.asdict(result.power) if result.power else None,
    }
    if result.fidelity is not None:
        payload["fidelity"] = dict(result.fidelity)
    return payload


def decode_result(payload: Mapping[str, object]) -> RunResult:
    """Inverse of :func:`encode_result`."""
    power = payload.get("power")
    fidelity = payload.get("fidelity")
    return RunResult(
        config_name=payload["config_name"],
        benchmark=payload["benchmark"],
        cycles=payload["cycles"],
        instructions=payload["instructions"],
        cpu_ratio=payload["cpu_ratio"],
        stats=dict(payload["stats"]),
        power=PowerReport(**power) if power is not None else None,
        fidelity=dict(fidelity) if fidelity is not None else None,
    )


@dataclasses.dataclass
class StoreStats:
    """Counters for one :class:`ResultStore` instance."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    errors: int = 0  # unreadable/corrupt entries treated as misses

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)

    def reset(self) -> None:
        self.hits = self.misses = self.puts = self.errors = 0


def _count_read(result: str) -> None:
    """Mirror one store read into the process metrics registry."""
    registry = default_registry()
    if registry.enabled:
        registry.counter(
            "repro_store_reads_total",
            "Result-store reads, by outcome (hit, miss, error).",
            ("result",),
        ).inc(result=result)


def _count_write(nbytes: int) -> None:
    """Mirror one store write (and its payload size) into the registry."""
    registry = default_registry()
    if registry.enabled:
        registry.counter(
            "repro_store_writes_total", "Results persisted to the store."
        ).inc()
        registry.counter(
            "repro_store_bytes_written_total",
            "Bytes of JSON written to the result store.",
        ).inc(nbytes)


class ResultStore:
    """One directory of ``<job_key>.json`` result files."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root if root is not None else store_root()
        self.stats = StoreStats()

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key + ".json")

    def get(self, spec: Mapping[str, object]) -> Optional[RunResult]:
        """The stored result for ``spec``, or None (corruption = miss)."""
        path = self.path_for(job_key(spec))
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
            # Paranoia against hash collisions and hand-edited files:
            # the spec recorded inside the entry must match exactly.
            if document.get("spec") != dict(spec):
                raise ValueError("stored spec does not match its key")
            result = decode_result(document["result"])
        except FileNotFoundError:
            self.stats.misses += 1
            _count_read("miss")
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self.stats.errors += 1
            self.stats.misses += 1
            _count_read("error")
            return None
        self.stats.hits += 1
        _count_read("hit")
        return result

    def put(self, spec: Mapping[str, object], result: RunResult) -> str:
        """Persist one result atomically; returns the entry path."""
        key = job_key(spec)
        path = self.path_for(key)
        document = {
            "version": STORE_VERSION,
            "key": key,
            "spec": dict(spec),
            "result": encode_result(result),
        }
        text = json.dumps(document, sort_keys=True)
        with durable_write(path) as handle:
            handle.write(text)
        self.stats.puts += 1
        _count_write(len(text.encode("utf-8")))
        return path

    def entries(self) -> Iterator[Tuple[Dict[str, object], RunResult]]:
        """Iterate all readable ``(spec, result)`` pairs in the store."""
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return
        for name in names:
            if not name.endswith(".json") or name.startswith("."):
                continue
            try:
                with open(
                    os.path.join(self.root, name), "r", encoding="utf-8"
                ) as handle:
                    document = json.load(handle)
                yield dict(document["spec"]), decode_result(document["result"])
            except (OSError, ValueError, KeyError, TypeError):
                self.stats.errors += 1
                continue

    def __len__(self) -> int:
        try:
            return sum(
                1
                for name in os.listdir(self.root)
                if name.endswith(".json") and not name.startswith(".")
            )
        except OSError:
            return 0

    def sweep_orphans(
        self, min_age_seconds: float = ORPHAN_MIN_AGE_SECONDS
    ) -> int:
        """Remove ``.tmp-*`` files abandoned by killed writers.

        :meth:`put` stages every entry as a same-directory ``.tmp-*``
        temp file before ``os.replace``-ing it into place; a writer
        killed between the two leaves the temp file behind forever
        (``entries``/``clear`` skip dot-files).  Startup paths — the
        fabric coordinator and the benchmark suite's session start —
        call this to reap them.  The age guard keeps temp files of
        concurrent in-flight writers safe; returns the number removed.
        """
        removed = 0
        try:
            names = os.listdir(self.root)
        except OSError:
            return 0
        cutoff = time.time() - min_age_seconds
        for name in names:
            if not name.startswith(".tmp-"):
                continue
            path = os.path.join(self.root, name)
            try:
                if os.path.getmtime(path) <= cutoff:
                    os.unlink(path)
                    removed += 1
            except OSError:
                continue
        return removed

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        try:
            names = os.listdir(self.root)
        except OSError:
            return 0
        for name in names:
            if name.endswith(".json") and not name.startswith("."):
                try:
                    os.unlink(os.path.join(self.root, name))
                    removed += 1
                except OSError:
                    pass
        return removed


class MemoryStore:
    """Process-memory stand-in for :class:`ResultStore` (store off).

    Keyed by :func:`job_key` like the disk store and holding encoded
    results, so a hit decodes a fresh :class:`RunResult` exactly as a
    disk read would; nothing touches the file system.  It keeps the
    :data:`MEMORY_STORE_ENTRIES` most recently used results.
    """

    def __init__(self) -> None:
        self.stats = StoreStats()
        self._payloads: "OrderedDict[str, Dict[str, object]]" = OrderedDict()

    def get(self, spec: Mapping[str, object]) -> Optional[RunResult]:
        key = job_key(spec)
        payload = self._payloads.get(key)
        if payload is None:
            self.stats.misses += 1
            return None
        self._payloads.move_to_end(key)
        self.stats.hits += 1
        return decode_result(payload)

    def put(self, spec: Mapping[str, object], result: RunResult) -> str:
        key = job_key(spec)
        self._payloads[key] = encode_result(result)
        self._payloads.move_to_end(key)
        while len(self._payloads) > MEMORY_STORE_ENTRIES:
            self._payloads.popitem(last=False)
        self.stats.puts += 1
        return key

    def __len__(self) -> int:
        return len(self._payloads)

    def clear(self) -> int:
        """Drop every entry; returns the number removed."""
        removed = len(self._payloads)
        self._payloads.clear()
        return removed


_stores: Dict[str, ResultStore] = {}
_memory_store = MemoryStore()


def get_store() -> ResultStore:
    """The process-wide store for the *current* root.

    Keyed by absolute root path so tests (and tools) that repoint
    ``REPRO_STORE_DIR`` get a fresh instance while stats stay stable
    per directory within one process.
    """
    root = os.path.abspath(store_root())
    if root not in _stores:
        _stores[root] = ResultStore(root)
    return _stores[root]


def active_store(use_store: Optional[bool] = None) -> Union[ResultStore, MemoryStore]:
    """The store results are read from and written to.

    ``use_store`` overrides the ``REPRO_STORE`` default: on, the
    process-wide disk store for the current root (:func:`get_store`);
    off, the process's one :class:`MemoryStore`.
    """
    enabled = store_enabled() if use_store is None else use_store
    return get_store() if enabled else _memory_store
