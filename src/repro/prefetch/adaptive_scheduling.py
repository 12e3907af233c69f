"""Adaptive Scheduling (paper Section 3.5).

The Final Scheduler must decide, each cycle, whether the head of the Low
Priority Queue may issue instead of the head of the CAQ.  The paper
defines five policies in decreasing order of conservativeness; a
prefetch command may issue only if:

1. the CAQ is empty **and** the Reorder Queues are empty;
2. the CAQ is empty **and** the Reorder Queues hold no issuable command;
3. the CAQ is empty;
4. the CAQ holds at most one entry **and** the LPQ is full;
5. the head of the LPQ has an earlier timestamp than the head of the CAQ.

Rather than fixing one policy at design time, Adaptive Scheduling tracks
how often a regular command was blocked by the memory-system footprint
of a previously issued prefetch, and once per epoch steps the active
policy toward conservative (on many conflicts) or aggressive (on few).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from repro.common.config import AdaptiveSchedulingConfig
from repro.common.stats import Stats
from repro.common.types import MemoryCommand


@dataclass(slots=True)
class SchedulerView:
    """Snapshot of queue state the policy predicates look at.

    The predicates below are the readable specification; the Final
    Scheduler evaluates the same rules on its live queues through
    :func:`lpq_allowed` (a unit test pins the two against each other).
    """

    caq_len: int
    caq_head_arrival: Optional[int]
    reorder_empty: bool
    reorder_has_issuable: bool
    lpq_len: int
    lpq_full: bool
    lpq_head_arrival: Optional[int]


def _policy1(v: SchedulerView) -> bool:
    return v.caq_len == 0 and v.reorder_empty


def _policy2(v: SchedulerView) -> bool:
    return v.caq_len == 0 and not v.reorder_has_issuable


def _policy3(v: SchedulerView) -> bool:
    return v.caq_len == 0


def _policy4(v: SchedulerView) -> bool:
    return _policy3(v) or (v.caq_len <= 1 and v.lpq_full)


def _policy5(v: SchedulerView) -> bool:
    if v.caq_len == 0:
        return True
    if v.lpq_head_arrival is None or v.caq_head_arrival is None:
        return False
    return v.lpq_head_arrival < v.caq_head_arrival


POLICIES: Dict[int, Callable[[SchedulerView], bool]] = {
    1: _policy1,
    2: _policy2,
    3: _policy3,
    4: _policy4,
    5: _policy5,
}


def lpq_allowed(
    policy: int,
    caq: Sequence[MemoryCommand],
    lpq: Sequence[MemoryCommand],
    lpq_depth: int,
    reorder_empty: bool,
    reorder_has_issuable: bool,
) -> bool:
    """The Final Scheduler's per-cycle form of :meth:`AdaptiveScheduler.
    allows_lpq`, with the five predicates inlined on the live queues.

    ``caq`` and ``lpq`` hold commands head first.  Only policy 2 reads
    ``reorder_has_issuable``, and only with an empty CAQ: callers may
    pass False in every other case instead of scanning the reorder
    queues against DRAM timing.
    """
    if not lpq:
        return False
    if not caq:
        if policy == 1:
            return reorder_empty
        if policy == 2:
            return not reorder_has_issuable
        return True
    if policy == 4:
        return len(caq) <= 1 and len(lpq) >= lpq_depth
    if policy == 5:
        return lpq[0].arrival < caq[0].arrival
    return False


class AdaptiveScheduler:
    """Selects and adapts the LPQ prioritisation policy.

    ``record_conflict`` is called by the controller whenever a regular
    command is first found blocked by a bank held by an in-flight
    memory-side prefetch; ``epoch_update`` is called at every SLH epoch
    boundary (the paper reuses the SLH epoch for policy adaptation).
    """

    def __init__(self, config: AdaptiveSchedulingConfig) -> None:
        config.validate()
        self.config = config
        if config.fixed_policy is not None:
            self.policy = config.fixed_policy
        else:
            self.policy = config.initial_policy
        self.conflicts_this_epoch = 0
        self.stats = Stats()

    # ------------------------------------------------------------------
    def allows_lpq(self, view: SchedulerView) -> bool:
        """May the LPQ head issue this cycle under the active policy?"""
        if view.lpq_len == 0:
            return False
        return POLICIES[self.policy](view)

    # ------------------------------------------------------------------
    def record_conflict(self, count: int = 1) -> None:
        self.conflicts_this_epoch += count
        self.stats.bump("conflicts", count)

    def epoch_update(self) -> None:
        """Adapt the policy once per epoch from the conflict count."""
        conflicts = self.conflicts_this_epoch
        self.conflicts_this_epoch = 0
        self.stats.bump("epochs")
        if self.config.fixed_policy is not None:
            return
        if conflicts > self.config.raise_threshold and self.policy > 1:
            self.policy -= 1
            self.stats.bump("steps_conservative")
        elif conflicts < self.config.lower_threshold and self.policy < 5:
            self.policy += 1
            self.stats.bump("steps_aggressive")
        self.stats.bump(f"epochs_at_policy_{self.policy}")
