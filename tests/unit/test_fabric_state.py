"""Unit tests for CoordinatorState with an injected fake clock."""

from repro.experiments import sweep
from repro.fabric.state import (
    DONE,
    FAILED,
    LEASED,
    QUEUED,
    SETTLED_SWEEPS,
    CoordinatorState,
)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def job(benchmark="milc", config="NP"):
    return sweep.Job(benchmark=benchmark, config_name=config,
                     accesses=1000, seed=1, threads=1, scheduler="ahb")


def entry(key, already_done=False, benchmark="milc", config="NP"):
    return (key, job(benchmark, config), {"benchmark": benchmark},
            already_done)


def make_state(**overrides):
    clock = FakeClock()
    kwargs = dict(clock=clock, lease_seconds=30.0, max_attempts=3)
    kwargs.update(overrides)
    return CoordinatorState(**kwargs), clock


class TestSubmit:
    def test_fresh_jobs_queue(self):
        state, _ = make_state()
        record = state.submit([entry("k1"), entry("k2", config="PS")])
        assert record.id == "sweep-1"
        assert record.deduped == 0
        assert state.counts() == {QUEUED: 2, LEASED: 0, DONE: 0, FAILED: 0}

    def test_store_satisfied_jobs_are_deduped(self):
        state, _ = make_state()
        record = state.submit([entry("k1", already_done=True), entry("k2")])
        assert record.deduped == 1
        assert state.jobs["k1"].status == DONE
        assert state.counts()[QUEUED] == 1

    def test_overlapping_submission_attaches_not_requeues(self):
        state, _ = make_state()
        state.submit([entry("k1")])
        record = state.submit([entry("k1"), entry("k2", config="PS")])
        assert record.id == "sweep-2"
        # k1 is shared between both sweeps, queued exactly once
        assert state.jobs["k1"].sweeps == ["sweep-1", "sweep-2"]
        assert state.counts()[QUEUED] == 2
        lease = state.lease("w1", 10)
        assert sorted(lease.keys) == ["k1", "k2"]

    def test_attaching_to_a_done_job_counts_as_deduped(self):
        state, _ = make_state()
        state.submit([entry("k1")])
        state.lease("w1", 1)
        state.complete("k1", "w1")
        record = state.submit([entry("k1")])
        assert record.deduped == 1
        assert state.sweep_status(record.id)["done"] is True

    def test_failed_job_given_again_keeps_an_open_sweep_attached(self):
        state, _ = make_state(max_attempts=1)
        first = state.submit([entry("k1"), entry("k2", config="PS")])
        state.lease("w1", 1)
        state.fail("k1", "w1", "boom")
        second = state.submit([entry("k1")])
        # the first sweep still waits on k2, so it waits on k1's rerun too
        assert state.jobs["k1"].sweeps == [first.id, second.id]
        assert sorted(state.lease("w1", 2).keys) == ["k1", "k2"]
        state.complete("k2", "w1")
        assert first.settled is None
        state.complete("k1", "w1")
        assert first.settled is not None and second.settled is not None


class TestLeasing:
    def test_capacity_bounds_the_grant(self):
        state, _ = make_state()
        state.submit([entry(f"k{i}") for i in range(5)])
        lease = state.lease("w1", 2)
        assert len(lease.keys) == 2
        assert all(state.jobs[k].status == LEASED for k in lease.keys)
        assert state.jobs[lease.keys[0]].attempts == 1

    def test_empty_queue_grants_nothing(self):
        state, _ = make_state()
        assert state.lease("w1", 4) is None
        assert "w1" in state.workers  # still registered as alive

    def test_priority_orders_grants(self):
        state, _ = make_state()
        state.submit([entry("low")], priority=0)
        state.submit([entry("high", config="PS")], priority=9)
        assert state.lease("w1", 1).keys == ["high"]
        assert state.lease("w1", 1).keys == ["low"]

    def test_fifo_within_a_priority_class(self):
        state, _ = make_state()
        state.submit([entry("a"), entry("b", config="PS")])
        assert state.lease("w1", 1).keys == ["a"]
        assert state.lease("w1", 1).keys == ["b"]


class TestLeaseExpiry:
    def test_expired_lease_requeues_its_jobs(self):
        state, clock = make_state(lease_seconds=30.0)
        state.submit([entry("k1")])
        lease = state.lease("w1", 1)
        clock.advance(31.0)
        assert state.expire_leases() == ["k1"]
        assert state.jobs["k1"].status == QUEUED
        assert lease.id not in state.leases
        # another worker picks the job right back up
        assert state.lease("w2", 1).keys == ["k1"]

    def test_renew_pushes_expiry_out(self):
        state, clock = make_state(lease_seconds=30.0)
        state.submit([entry("k1")])
        lease = state.lease("w1", 1)
        clock.advance(25.0)
        assert state.renew(lease.id, "w1") is True
        clock.advance(25.0)  # 50s total, but renewed at 25s
        assert state.expire_leases() == []
        assert state.jobs["k1"].status == LEASED

    def test_renew_rejects_wrong_worker_or_unknown_lease(self):
        state, _ = make_state()
        state.submit([entry("k1")])
        lease = state.lease("w1", 1)
        assert state.renew(lease.id, "w2") is False
        assert state.renew("lease-999", "w1") is False

    def test_max_attempts_turns_expiry_into_failure(self):
        state, clock = make_state(lease_seconds=30.0, max_attempts=2)
        state.submit([entry("k1")])
        for _ in range(2):  # two grants, two expiries
            state.lease("w1", 1)
            clock.advance(31.0)
            state.expire_leases()
        assert state.jobs["k1"].status == FAILED
        assert "presumed dead" in state.jobs["k1"].error
        assert state.lease("w1", 1) is None

    def test_late_result_after_expiry_is_accepted(self):
        # the simulator is deterministic, so a slow worker's answer is
        # still the right answer unless someone else finished first
        state, clock = make_state(lease_seconds=30.0)
        state.submit([entry("k1")])
        state.lease("w1", 1)
        clock.advance(31.0)
        state.expire_leases()
        assert state.complete("k1", "w1") == "first"
        assert state.jobs["k1"].status == DONE

    def test_late_result_after_failure_is_refused(self):
        # the job's sweep settled failed; a late answer must not flip it
        state, clock = make_state(lease_seconds=30.0, max_attempts=1)
        state.submit([entry("k1")])
        state.lease("w1", 1)
        clock.advance(31.0)
        state.expire_leases()
        assert state.complete("k1", "w1") == "duplicate"
        assert state.jobs["k1"].status == FAILED
        assert state.workers["w1"].completed == 0


class TestCompletion:
    def test_first_then_duplicate(self):
        state, _ = make_state()
        state.submit([entry("k1")])
        state.lease("w1", 1)
        assert state.complete("k1", "w1") == "first"
        assert state.complete("k1", "w2") == "duplicate"
        assert state.complete("k-unknown", "w1") == "unknown"
        assert state.workers["w1"].completed == 1

    def test_completion_shrinks_the_lease(self):
        state, _ = make_state()
        state.submit([entry("k1"), entry("k2", config="PS")])
        lease = state.lease("w1", 2)
        state.complete("k1", "w1")
        assert state.leases[lease.id].keys == ["k2"]
        state.complete("k2", "w1")
        assert lease.id not in state.leases

    def test_fail_requeues_until_attempts_exhausted(self):
        state, _ = make_state(max_attempts=2)
        state.submit([entry("k1")])
        state.lease("w1", 1)
        assert state.fail("k1", "w1", "boom") == "requeued"
        assert state.jobs["k1"].status == QUEUED
        state.lease("w1", 1)
        assert state.fail("k1", "w1", "boom again") == "failed"
        assert state.jobs["k1"].status == FAILED
        assert state.jobs["k1"].error == "boom again"


class TestViews:
    def test_sweep_status_tracks_its_own_keys(self):
        state, _ = make_state()
        first = state.submit([entry("k1"), entry("k2", config="PS")])
        second = state.submit([entry("k3", config="PMS")])
        state.lease("w1", 3)
        state.complete("k1", "w1")
        status = state.sweep_status(first.id)
        assert status["total"] == 2
        assert status["counts"][DONE] == 1
        assert status["counts"][LEASED] == 1
        assert status["done"] is False
        assert state.sweep_status(second.id)["counts"][LEASED] == 1
        assert state.sweep_status("sweep-404") is None

    def test_failed_jobs_surface_with_their_errors(self):
        state, _ = make_state(max_attempts=1)
        record = state.submit([entry("k1")])
        state.lease("w1", 1)
        state.fail("k1", "w1", "simulator exploded")
        status = state.sweep_status(record.id)
        assert status["failed"] == [
            {"key": "k1", "error": "simulator exploded"}
        ]

    def test_workers_view_reports_liveness(self):
        state, clock = make_state()
        state.submit([entry("k1")])
        state.lease("w1", 1)
        clock.advance(7.0)
        view = state.workers_view()
        assert view["w1"]["last_seen_seconds_ago"] == 7.0
        assert view["w1"]["leased"] == 1


class TestBoundedRecord:
    """Past SETTLED_SWEEPS settled sweeps the oldest is forgotten, with
    the finished jobs no kept sweep names."""

    def test_cap_plus_one_settled_sweeps(self):
        state, clock = make_state()
        open_sweep = state.submit([entry("open")])
        first = state.submit([entry("k0", already_done=True)])
        for n in range(1, SETTLED_SWEEPS + 1):
            clock.advance(1.0)
            state.submit([entry("grid", already_done=True),
                          entry(f"k{n}", already_done=True)])
        # the oldest settled sweep went; the open one stays
        assert len(state.sweeps) == SETTLED_SWEEPS + 1
        assert first.id not in state.sweeps
        assert state.sweep_status(first.id) is None
        assert open_sweep.id in state.sweeps
        # k0 only belonged to the forgotten sweep; the queued job stays
        assert "k0" not in state.jobs
        assert state.jobs["open"].status == QUEUED
        assert "grid" in state.jobs and "k1" in state.jobs
        assert state.sweep_status(f"sweep-{SETTLED_SWEEPS + 2}")["done"]
        # the open sweep settles last, so it stays and the one that
        # settled first after the forgotten sweep goes
        clock.advance(1.0)
        state.lease("w1", 1)
        state.complete("open", "w1")
        assert len(state.sweeps) == SETTLED_SWEEPS
        assert "sweep-3" not in state.sweeps and "k1" not in state.jobs
        assert state.sweeps[open_sweep.id].tally.counts[DONE] == 1

    def test_failed_job_given_again_after_its_sweep_was_forgotten(self):
        state, _ = make_state(max_attempts=1)
        first = state.submit([entry("k1")])
        state.lease("w1", 1)
        assert state.fail("k1", "w1", "boom") == "failed"
        for n in range(SETTLED_SWEEPS):
            state.submit([entry(f"done{n}", already_done=True)])
        assert first.id not in state.sweeps and "k1" not in state.jobs
        again = state.submit([entry("k1")])
        assert again.deduped == 0 and again.settled is None
        assert state.jobs["k1"].sweeps == [again.id]
        assert state.lease("w1", 1).keys == ["k1"]
        assert state.complete("k1", "w1") == "first"
        assert state.sweep_status(again.id)["done"] is True

    def test_cursor_counts_forgotten_sweeps(self):
        state, _ = make_state()
        records, seen = state.sweeps_since(0)
        assert (records, seen) == ([], 0)
        for n in range(1, SETTLED_SWEEPS + 3):
            state.submit([entry("grid", already_done=True)])
            records, seen = state.sweeps_since(seen)
            # one new sweep per read: no replay, and none skipped when
            # the oldest is forgotten
            assert [record.id for record in records] == [f"sweep-{n}"]
            assert seen == n
        assert len(state.sweeps) == SETTLED_SWEEPS
        records, total = state.sweeps_since(0)
        assert total == SETTLED_SWEEPS + 2
        assert records[0].id == "sweep-3"

    def test_newest_sweep_is_kept_to_count_from(self):
        state, clock = make_state()
        for n in range(SETTLED_SWEEPS + 1):
            state.submit([entry(f"k{n}")])
        newest = state.submit([entry("done", already_done=True)])
        assert newest.settled is not None
        state.lease("w1", SETTLED_SWEEPS + 1)
        for n in range(SETTLED_SWEEPS + 1):
            clock.advance(1.0)
            state.complete(f"k{n}", "w1")
        # it settled first, yet the cursor still counts from it
        assert len(state.sweeps) == SETTLED_SWEEPS
        assert newest.id in state.sweeps and "sweep-3" in state.sweeps
        assert "sweep-1" not in state.sweeps and "sweep-2" not in state.sweeps
        assert state.sweeps_since(SETTLED_SWEEPS + 1) == (
            [newest], SETTLED_SWEEPS + 2)

    def test_window_folds_forgotten_sweeps_into_its_totals(self):
        # one sweep stays open, so the window never resets while a
        # 2-job grid is resubmitted 1,000 times
        state, clock = make_state()
        state.submit([entry("open")])
        state.lease("w1", 1)
        clock.advance(1.0)
        state.submit([entry("g1"), entry("g2", config="PS")])
        lease = state.lease("w1", 2)
        for n, key in enumerate(list(lease.keys)):
            clock.advance(0.5)
            state.complete(key, "w1", seconds=0.1 * (n + 1))
        for _ in range(1000):
            clock.advance(0.01)
            state.submit([entry("g1", already_done=True),
                          entry("g2", already_done=True, config="PS")])
        assert len(state.sweeps) == SETTLED_SWEEPS + 1
        assert len(state.window) <= SETTLED_SWEEPS + 1
        progress = state.progress(state.window)
        assert (progress["total"], progress["done"]) == (2003, 2002)
        assert progress["outcomes"] == {"store": 2000, "parallel": 0,
                                        "serial": 0, "fabric": 2}
        assert progress["mean_job_seconds"] == (0.1 + 0.2) / 2
        assert progress["elapsed_seconds"] == clock.now - 100.0
        assert not progress["finished"]
        # the open sweep settles: the folded sweeps count as settled
        state.complete("open", "w1")
        assert state.progress(state.window)["finished"]
