"""Unit tests for the Low Priority Queue."""

import pytest

from repro.common.types import CommandKind, MemoryCommand, Provenance
from repro.prefetch.lpq import LowPriorityQueue


def pf(line, arrival=0):
    return MemoryCommand(
        CommandKind.READ, line, provenance=Provenance.MS_PREFETCH, arrival=arrival
    )


class TestPushPop:
    def test_fifo_order(self):
        q = LowPriorityQueue(3)
        q.push(pf(1), 0)
        q.push(pf(2), 0)
        assert q.pop(0).line == 1
        assert q.pop(0).line == 2

    def test_head_peeks(self):
        q = LowPriorityQueue(3)
        q.push(pf(7), 0)
        assert q.head().line == 7
        assert len(q) == 1

    def test_empty_head_is_none(self):
        assert LowPriorityQueue(3).head() is None

    def test_full_drops(self):
        q = LowPriorityQueue(2)
        assert q.push(pf(1), 0)
        assert q.push(pf(2), 0)
        assert not q.push(pf(3), 0)
        assert q.stats["dropped_full"] == 1

    def test_duplicate_line_dropped(self):
        q = LowPriorityQueue(3)
        q.push(pf(1), 0)
        assert not q.push(pf(1), 0)
        assert q.stats["dropped_duplicate"] == 1

    def test_zero_depth_rejected(self):
        with pytest.raises(ValueError):
            LowPriorityQueue(0)


class TestSquash:
    def test_drop_line_removes_pending(self):
        q = LowPriorityQueue(3)
        q.push(pf(1), 0)
        q.push(pf(2), 0)
        assert q.drop_line(1, 0)
        assert q.head().line == 2
        assert not q.contains_line(1)

    def test_drop_absent_line(self):
        assert not LowPriorityQueue(3).drop_line(9, 0)

    def test_line_reusable_after_pop(self):
        q = LowPriorityQueue(3)
        q.push(pf(1), 0)
        q.pop(0)
        assert q.push(pf(1), 0)

    def test_occupancy_accumulator(self):
        # entries subtract their clock, exits add theirs: the settled
        # integral acc + len * clock counts each command once per sample
        q = LowPriorityQueue(3)
        q.push(pf(1), 2)
        q.push(pf(2), 3)
        q.push(pf(2), 3)  # a dropped duplicate never entered
        q.pop(5)
        q.drop_line(2, 7)
        q.push(pf(3), 8)
        assert q.occ_acc == (5 - 2) + (7 - 3) - 8
        assert q.occ_acc + len(q) * 10 == 3 + 4 + 2

    def test_full_property(self):
        q = LowPriorityQueue(1)
        assert not q.full
        q.push(pf(1), 0)
        assert q.full
