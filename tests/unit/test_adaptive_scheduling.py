"""Unit tests for Adaptive Scheduling (the five policies + adaptation)."""

import itertools
from collections import deque

from repro.common.config import AdaptiveSchedulingConfig
from repro.common.types import CommandKind, MemoryCommand, Provenance
from repro.prefetch.adaptive_scheduling import (
    POLICIES,
    AdaptiveScheduler,
    SchedulerView,
    lpq_allowed,
)


def view(
    caq_len=0,
    caq_head_arrival=None,
    reorder_empty=True,
    reorder_has_issuable=False,
    lpq_len=1,
    lpq_full=False,
    lpq_head_arrival=0,
):
    return SchedulerView(
        caq_len=caq_len,
        caq_head_arrival=caq_head_arrival,
        reorder_empty=reorder_empty,
        reorder_has_issuable=reorder_has_issuable,
        lpq_len=lpq_len,
        lpq_full=lpq_full,
        lpq_head_arrival=lpq_head_arrival,
    )


class TestPolicies:
    def test_policy1_requires_everything_empty(self):
        assert POLICIES[1](view())
        assert not POLICIES[1](view(reorder_empty=False))
        assert not POLICIES[1](view(caq_len=1))

    def test_policy2_allows_unissuable_reorder_commands(self):
        v = view(reorder_empty=False, reorder_has_issuable=False)
        assert POLICIES[2](v)
        assert not POLICIES[2](view(reorder_empty=False, reorder_has_issuable=True))

    def test_policy3_only_needs_empty_caq(self):
        assert POLICIES[3](view(reorder_empty=False, reorder_has_issuable=True))
        assert not POLICIES[3](view(caq_len=1))

    def test_policy4_one_caq_entry_and_full_lpq(self):
        v = view(caq_len=1, caq_head_arrival=5, lpq_full=True)
        assert POLICIES[4](v)
        assert not POLICIES[4](view(caq_len=1, caq_head_arrival=5, lpq_full=False))
        assert not POLICIES[4](view(caq_len=2, caq_head_arrival=5, lpq_full=True))

    def test_policy5_timestamp_comparison(self):
        older = view(caq_len=1, caq_head_arrival=10, lpq_head_arrival=5)
        newer = view(caq_len=1, caq_head_arrival=3, lpq_head_arrival=5)
        assert POLICIES[5](older)
        assert not POLICIES[5](newer)

    def test_policies_monotone_when_caq_empty(self):
        # with an empty CAQ and empty reorder queues, every policy allows
        v = view()
        assert all(POLICIES[k](v) for k in range(1, 6))

    def test_conservative_ordering_example(self):
        # a busy system: only the aggressive policies allow issue
        v = view(
            caq_len=1,
            caq_head_arrival=10,
            reorder_empty=False,
            reorder_has_issuable=True,
            lpq_head_arrival=1,
        )
        assert not POLICIES[1](v)
        assert not POLICIES[2](v)
        assert not POLICIES[3](v)
        assert not POLICIES[4](v)
        assert POLICIES[5](v)


class TestAdaptiveScheduler:
    def make(self, **kw):
        return AdaptiveScheduler(AdaptiveSchedulingConfig(**kw))

    def test_initial_policy(self):
        assert self.make(initial_policy=3).policy == 3

    def test_empty_lpq_never_allows(self):
        s = self.make()
        assert not s.allows_lpq(view(lpq_len=0))

    def test_many_conflicts_step_conservative(self):
        s = self.make(raise_threshold=5, lower_threshold=1, initial_policy=3)
        s.record_conflict(10)
        s.epoch_update()
        assert s.policy == 2

    def test_few_conflicts_step_aggressive(self):
        s = self.make(raise_threshold=5, lower_threshold=3, initial_policy=3)
        s.record_conflict(1)
        s.epoch_update()
        assert s.policy == 4

    def test_policy_bounded_one_to_five(self):
        s = self.make(raise_threshold=5, lower_threshold=1, initial_policy=1)
        s.record_conflict(100)
        s.epoch_update()
        assert s.policy == 1
        s = self.make(raise_threshold=5, lower_threshold=3, initial_policy=5)
        s.epoch_update()
        assert s.policy == 5

    def test_conflicts_reset_each_epoch(self):
        s = self.make(raise_threshold=5, lower_threshold=0, initial_policy=3)
        s.record_conflict(10)
        s.epoch_update()
        assert s.conflicts_this_epoch == 0
        s.epoch_update()  # zero conflicts but lower_threshold=0: no step
        assert s.policy == 2

    def test_fixed_policy_never_adapts(self):
        s = self.make(fixed_policy=4)
        s.record_conflict(1000)
        s.epoch_update()
        assert s.policy == 4

    def test_midband_holds_policy(self):
        s = self.make(raise_threshold=10, lower_threshold=2, initial_policy=3)
        s.record_conflict(5)
        s.epoch_update()
        assert s.policy == 3

    def test_stats_track_epochs(self):
        s = self.make()
        s.epoch_update()
        s.epoch_update()
        assert s.stats["epochs"] == 2


class TestInlinedPredicate:
    """``lpq_allowed`` (the Final Scheduler's form) against
    ``allows_lpq(SchedulerView(...))`` (the specification)."""

    CAQ_DEPTH = 3
    LPQ_DEPTH = 3
    ARRIVALS = (4, 5, 6)  # head arrivals: before, equal to, after 5

    @staticmethod
    def queue(length, head_arrival, provenance):
        return deque(
            MemoryCommand(
                CommandKind.READ, 100 + i, provenance=provenance,
                arrival=head_arrival + i,
            )
            for i in range(length)
        )

    def test_equals_allows_lpq_for_every_policy_and_queue_state(self):
        checked = 0
        for policy in range(1, 6):
            scheduler = AdaptiveScheduler(
                AdaptiveSchedulingConfig(fixed_policy=policy)
            )
            for (caq_len, caq_arrival, lpq_len, lpq_arrival, reorder_empty,
                 has_issuable) in itertools.product(
                range(self.CAQ_DEPTH + 1), self.ARRIVALS,
                range(self.LPQ_DEPTH + 1), (5,),
                (True, False), (True, False),
            ):
                caq = self.queue(caq_len, caq_arrival, Provenance.DEMAND)
                lpq = self.queue(lpq_len, lpq_arrival, Provenance.MS_PREFETCH)
                spec = scheduler.allows_lpq(SchedulerView(
                    caq_len=caq_len,
                    caq_head_arrival=caq[0].arrival if caq else None,
                    reorder_empty=reorder_empty,
                    reorder_has_issuable=has_issuable,
                    lpq_len=lpq_len,
                    lpq_full=lpq_len >= self.LPQ_DEPTH,
                    lpq_head_arrival=lpq[0].arrival if lpq else None,
                ))
                fast = lpq_allowed(
                    policy, caq, lpq, self.LPQ_DEPTH, reorder_empty, has_issuable
                )
                assert fast == spec, (policy, caq_len, caq_arrival, lpq_len,
                                      reorder_empty, has_issuable)
                checked += 1
        assert checked == 5 * 4 * 3 * 4 * 2 * 2
