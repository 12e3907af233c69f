"""Coordinator bookkeeping: job table, priority queue, leases, sweeps.

Pure in-memory logic with an injectable clock — no HTTP, no store, no
threads — so every failure mode (lease expiry, duplicate completion,
retry exhaustion) is unit-testable with a fake clock.  The
:class:`~repro.fabric.coordinator.Coordinator` wraps this with the
store read-through, metrics, and the HTTP surface, and serialises
access behind one lock.

Jobs are identified by their store key, so the table doubles as the
dedupe index: submitting an overlapping grid while another sweep is in
flight attaches the new sweep to the existing queued/leased jobs
instead of enqueuing duplicates.  Durability is the store's problem,
not this table's: every completed result is persisted by the
coordinator before :meth:`CoordinatorState.complete` records it, so a
restarted coordinator rebuilds exactly this state by re-running
submissions through the store read-through (finished jobs dedupe away,
unfinished ones re-queue).

The table is also the only record of progress: a sweep *settles* once
every job is done or failed, and :meth:`CoordinatorState.progress`
derives the view of one sweep, or of the sweeps accepted since the
fleet was last idle, from the jobs themselves.  A settled sweep keeps
the :class:`SweepTally` it settled with, since a failed job submitted
again gets a fresh table entry that belongs to the new sweep.

The record is bounded: past :data:`SETTLED_SWEEPS` settled sweeps the
one that settled first is forgotten, with every finished job no kept
sweep names.  A forgotten sweep reads as unknown; the store answers a
later resubmission of its jobs.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments import sweep
from repro.obs.progress import OUTCOMES, make_snapshot

#: Job life-cycle states.
QUEUED = "queued"
LEASED = "leased"
DONE = "done"
FAILED = "failed"

#: Settled sweeps a coordinator keeps (about 40 KB of ``status()``).
SETTLED_SWEEPS = 256


@dataclass
class JobEntry:
    """One unique job known to the coordinator (keyed by store key)."""

    key: str
    job: sweep.Job  # resolved
    spec: Dict[str, object]
    priority: int = 0
    status: str = QUEUED
    #: sweeps that attached while the job was open (some may since be
    #: forgotten); a sweep that finds it done counts it as deduped
    sweeps: List[str] = field(default_factory=list)
    attempts: int = 0
    worker: Optional[str] = None
    lease_id: Optional[str] = None
    error: Optional[str] = None
    #: the worker's report: "executed" or "store", and its seconds
    outcome: Optional[str] = None
    seconds: Optional[float] = None


@dataclass
class Lease:
    """One granted batch: expires as a unit, renewed by heartbeats."""

    id: str
    worker: str
    keys: List[str]
    expires: float
    #: span context the batch executes under (None when untraced)
    trace: Optional[Dict[str, str]] = None


@dataclass
class SweepTally:
    """What a sweep's jobs say about it: counts by status, the failed
    jobs with their errors, how the done ones were served (progress
    outcomes) and the seconds of those a worker executed."""

    counts: Dict[str, int]
    failed: List[Dict[str, Optional[str]]]
    outcomes: Dict[str, int]
    seconds: List[float]


@dataclass
class SweepRecord:
    """One accepted submission and the job keys it resolved to."""

    id: str
    number: int  # 1-based order of acceptance
    keys: List[str]
    deduped: int  # jobs already satisfied by the store at submit time
    submitted: float  # clock at submission
    settled: Optional[float] = None  # clock when every job closed
    tally: Optional[SweepTally] = None  # the view it settled with


@dataclass
class WorkerInfo:
    """Liveness and lifetime counters for one worker id."""

    id: str
    last_seen: float = 0.0
    leased: int = 0
    completed: int = 0
    failed: int = 0


class CoordinatorState:
    """The scheduling state machine (single-threaded; caller locks).

    ``clock`` is any monotonic float source (``time.monotonic`` in
    production, a fake in tests); leases expire ``lease_seconds`` after
    grant/renewal.  A job whose lease expires re-queues at the front of
    its priority class until it has been attempted ``max_attempts``
    times, then fails — a job that kills every worker that touches it
    must not poison the queue forever.  ``on_settle(record)`` is called
    once per sweep, when it settles.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        lease_seconds: float = 60.0,
        max_attempts: int = 3,
        on_settle: Callable[[SweepRecord], None] = lambda record: None,
    ) -> None:
        self.clock = clock
        self.lease_seconds = lease_seconds
        self.max_attempts = max_attempts
        self.on_settle = on_settle
        self.jobs: Dict[str, JobEntry] = {}
        self.sweeps: Dict[str, SweepRecord] = {}
        #: the sweeps accepted since the fleet was last idle
        self.window: List[SweepRecord] = []
        self.leases: Dict[str, Lease] = {}
        self.workers: Dict[str, WorkerInfo] = {}
        #: (-priority, seq, key): higher priority first, FIFO within.
        self._heap: List[Tuple[int, int, str]] = []
        self._seq = itertools.count()
        self._sweep_ids = itertools.count(1)
        self._lease_ids = itertools.count(1)

    # -- submission -----------------------------------------------------
    def submit(
        self,
        entries: Sequence[Tuple[str, sweep.Job, Dict[str, object], bool]],
        priority: int = 0,
    ) -> SweepRecord:
        """Register one submission.

        ``entries`` is ``(key, resolved job, spec, already_done)`` per
        grid cell — ``already_done`` meaning the coordinator's store
        read-through satisfied it at submit time.  Duplicate keys
        (within the grid or against in-flight jobs) attach rather than
        re-queue.  A failed job given again runs again, with a fresh
        attempt budget: its new entry attaches to this sweep and to any
        earlier sweep still open (which would otherwise never settle).
        A settled sweep keeps its settle stamp, though its counts now
        read the new entry.  A submission that finds every earlier
        sweep settled starts a new window.
        """
        if all(record.settled is not None for record in self.window):
            self.window = []
        number = next(self._sweep_ids)
        sweep_id = f"sweep-{number}"
        record = SweepRecord(id=sweep_id, number=number, keys=[], deduped=0,
                             submitted=self.clock())
        for key, job, spec, already_done in entries:
            record.keys.append(key)
            entry = self.jobs.get(key)
            if entry is None or entry.status == FAILED:
                entry = JobEntry(
                    key=key, job=job, spec=dict(spec), priority=priority,
                    status=DONE if already_done else QUEUED,
                    sweeps=[] if entry is None else [
                        earlier for earlier in entry.sweeps
                        if earlier in self.sweeps
                        and self.sweeps[earlier].settled is None
                    ],
                )
                self.jobs[key] = entry
                if not already_done:
                    self._push(entry)
            if entry.status == DONE:
                record.deduped += 1
            elif sweep_id not in entry.sweeps:
                entry.sweeps.append(sweep_id)
        self.sweeps[sweep_id] = record
        self.window.append(record)
        self._settle(record)
        return record

    def _push(self, entry: JobEntry) -> None:
        heapq.heappush(
            self._heap, (-entry.priority, next(self._seq), entry.key)
        )

    # -- leasing --------------------------------------------------------
    def lease(self, worker: str, capacity: int) -> Optional[Lease]:
        """Grant up to ``capacity`` queued jobs to ``worker``.

        Returns None when nothing is queued.  Stale heap entries (jobs
        completed or re-queued since they were pushed) are discarded
        lazily here.
        """
        self._touch(worker)
        keys: List[str] = []
        while self._heap and len(keys) < capacity:
            _, _, key = heapq.heappop(self._heap)
            entry = self.jobs.get(key)
            if entry is None or entry.status != QUEUED:
                continue  # stale heap entry
            keys.append(key)
        if not keys:
            return None
        lease = Lease(
            id=f"lease-{next(self._lease_ids)}",
            worker=worker,
            keys=keys,
            expires=self.clock() + self.lease_seconds,
        )
        self.leases[lease.id] = lease
        info = self.workers[worker]
        for key in keys:
            entry = self.jobs[key]
            entry.status = LEASED
            entry.worker = worker
            entry.lease_id = lease.id
            entry.attempts += 1
            info.leased += 1
        return lease

    def renew(self, lease_id: str, worker: str) -> bool:
        """Heartbeat: push the lease expiry out; False if unknown/expired."""
        self._touch(worker)
        lease = self.leases.get(lease_id)
        if lease is None or lease.worker != worker:
            return False
        lease.expires = self.clock() + self.lease_seconds
        return True

    def expire_leases(self) -> List[str]:
        """Re-queue jobs of every overdue lease; returns re-queued keys.

        Called lazily from every API entry point (lease, complete,
        status), so a dead worker's jobs surface the next time anyone
        talks to the coordinator.  Jobs past ``max_attempts`` fail
        instead of re-queuing.
        """
        now = self.clock()
        requeued: List[str] = []
        for lease in [
            lease for lease in self.leases.values() if lease.expires <= now
        ]:
            del self.leases[lease.id]
            for key in lease.keys:
                entry = self.jobs.get(key)
                if entry is None or entry.status != LEASED:
                    continue
                if entry.lease_id != lease.id:
                    continue
                entry.worker = None
                entry.lease_id = None
                if entry.attempts >= self.max_attempts:
                    entry.status = FAILED
                    entry.error = (
                        f"lease expired after {entry.attempts} attempt(s); "
                        "worker presumed dead"
                    )
                    self._settle_sweeps_of(entry)
                else:
                    entry.status = QUEUED
                    self._push(entry)
                    requeued.append(key)
        return requeued

    # -- completion -----------------------------------------------------
    def complete(self, key: str, worker: str, outcome: str = "executed",
                 seconds: Optional[float] = None) -> str:
        """Record one finished job; returns ``first``/``duplicate``/
        ``unknown``.

        ``outcome`` and ``seconds`` are the worker's report of how it
        served the job.  A worker whose lease expired may still return a
        correct result (the simulator is deterministic) — accept it
        unless someone else finished first, or the job has already
        failed: its sweeps settled with that verdict.
        """
        self._touch(worker)
        entry = self.jobs.get(key)
        if entry is None:
            return "unknown"
        if entry.status in (DONE, FAILED):
            return "duplicate"
        self._detach_from_lease(entry)
        entry.status = DONE
        entry.worker = worker
        entry.error = None
        entry.outcome = outcome
        entry.seconds = seconds
        self.workers[worker].completed += 1
        self._settle_sweeps_of(entry)
        return "first"

    def fail(self, key: str, worker: str, error: str) -> str:
        """Record one failed execution; re-queue or fail permanently."""
        self._touch(worker)
        entry = self.jobs.get(key)
        if entry is None:
            return "unknown"
        if entry.status == DONE:
            return "duplicate"
        self._detach_from_lease(entry)
        self.workers[worker].failed += 1
        entry.worker = None
        entry.lease_id = None
        if entry.attempts >= self.max_attempts:
            entry.status = FAILED
            entry.error = error
            self._settle_sweeps_of(entry)
            return "failed"
        entry.status = QUEUED
        entry.error = error
        self._push(entry)
        return "requeued"

    def _detach_from_lease(self, entry: JobEntry) -> None:
        lease = self.leases.get(entry.lease_id) if entry.lease_id else None
        if lease is not None:
            try:
                lease.keys.remove(entry.key)
            except ValueError:
                pass
            if not lease.keys:
                del self.leases[lease.id]
        entry.lease_id = None

    def _settle_sweeps_of(self, entry: JobEntry) -> None:
        for sweep_id in entry.sweeps:
            record = self.sweeps.get(sweep_id)
            if record is not None:  # a forgotten sweep settled long ago
                self._settle(record)

    def _settle(self, record: SweepRecord) -> None:
        """The one place a sweep settles: once, when every job closed,
        keeping the tally it closed with."""
        if record.settled is None and all(
            self.jobs[key].status in (DONE, FAILED) for key in record.keys
        ):
            record.settled = self.clock()
            record.tally = self.tally(record)
            self.on_settle(record)
            self._forget()

    def _forget(self) -> None:
        """Keep at most :data:`SETTLED_SWEEPS` settled sweeps, forgetting
        those that settled first but never the newest (its number counts
        the sweeps accepted), then drop every job entry that no kept
        sweep names and that is neither queued nor leased."""
        *older, newest = self.sweeps.values()
        settled = sorted(
            (record for record in older if record.settled is not None),
            key=lambda record: (record.settled, record.number),
        )
        excess = len(settled) + (newest.settled is not None) - SETTLED_SWEEPS
        if excess <= 0:
            return
        for record in settled[:excess]:
            del self.sweeps[record.id]
        named = {key for record in self.sweeps.values() for key in record.keys}
        for key in [key for key, entry in self.jobs.items()
                    if key not in named and entry.status in (DONE, FAILED)]:
            del self.jobs[key]

    def _touch(self, worker: str) -> None:
        info = self.workers.get(worker)
        if info is None:
            info = self.workers[worker] = WorkerInfo(id=worker)
        info.last_seen = self.clock()

    # -- views ----------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Job counts by status over the whole table."""
        counts = {QUEUED: 0, LEASED: 0, DONE: 0, FAILED: 0}
        for entry in self.jobs.values():
            counts[entry.status] += 1
        return counts

    def tally(self, record: SweepRecord) -> SweepTally:
        """One sweep's tally: the one it settled with, else the table's.

        A done job is a ``store`` hit if a store served it or it was
        done before the sweep attached, else ``fabric``.
        """
        if record.tally is not None:
            return record.tally
        tally = SweepTally(
            counts={QUEUED: 0, LEASED: 0, DONE: 0, FAILED: 0}, failed=[],
            outcomes=dict.fromkeys(OUTCOMES, 0), seconds=[],
        )
        for key in record.keys:
            entry = self.jobs[key]
            tally.counts[entry.status] += 1
            if entry.status == FAILED:
                tally.failed.append({"key": key, "error": entry.error})
            elif entry.status == DONE:
                if record.id not in entry.sweeps or entry.outcome == "store":
                    tally.outcomes["store"] += 1
                else:
                    tally.outcomes["fabric"] += 1
                    if entry.seconds is not None:
                        tally.seconds.append(entry.seconds)
        return tally

    def sweeps_since(self, count: int) -> Tuple[List[SweepRecord], int]:
        """The kept sweeps accepted after the first ``count``, and the
        number accepted so far, forgotten ones included, so a reader
        that keeps it as a cursor sees each later sweep once."""
        records = list(self.sweeps.values())
        accepted = records[-1].number if records else 0  # never forgotten
        return [record for record in records if record.number > count], accepted

    def sweep_status(self, sweep_id: str) -> Optional[Dict[str, object]]:
        record = self.sweeps.get(sweep_id)
        if record is None:
            return None
        tally = self.tally(record)
        return {
            "sweep": record.id,
            "total": len(record.keys),
            "deduped": record.deduped,
            "counts": dict(tally.counts),
            "done": tally.counts[DONE] == len(record.keys),
            "failed": list(tally.failed),
        }

    def progress(self, records: Sequence[SweepRecord]) -> Dict[str, object]:
        """The progress snapshot of ``records`` (one sweep, or the window).

        Counts sum over the sweeps' tallies, and a failed job counts as
        done and as a ``failed`` event.  Finished once every sweep has
        settled.
        """
        outcomes = dict.fromkeys(OUTCOMES, 0)
        failed = 0
        times: List[float] = []
        for record in records:
            tally = self.tally(record)
            failed += tally.counts[FAILED]
            for name, count in tally.outcomes.items():
                outcomes[name] += count
            times += tally.seconds
        now = self.clock()
        settled = [record.settled for record in records]
        finished = None not in settled
        end = max(settled, default=now) if finished else now
        return make_snapshot(
            sum(len(record.keys) for record in records),
            failed + outcomes["store"] + outcomes["fabric"],
            outcomes, {"failed": failed} if failed else {},
            end - (records[0].submitted if records else now),
            sum(times) / len(times) if times else None,
            len(self.workers), finished,
        )

    def workers_view(self) -> Dict[str, Dict[str, object]]:
        now = self.clock()
        return {
            info.id: {
                "last_seen_seconds_ago": max(0.0, now - info.last_seen),
                "leased": info.leased,
                "completed": info.completed,
                "failed": info.failed,
            }
            for info in self.workers.values()
        }
