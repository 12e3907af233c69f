"""Unit tests for controller queues."""

import pytest

from repro.common.types import CommandKind, MemoryCommand
from repro.controller.queues import CommandQueue, ReorderQueues


def read(line, arrival=0):
    return MemoryCommand(CommandKind.READ, line, arrival=arrival)


def write(line, arrival=0):
    return MemoryCommand(CommandKind.WRITE, line, arrival=arrival)


class TestCommandQueue:
    def test_fifo(self):
        q = CommandQueue(3)
        a, b = read(1), read(2)
        q.push(a)
        q.push(b)
        assert q.pop() is a
        assert q.pop() is b

    def test_bounded(self):
        q = CommandQueue(1)
        assert q.push(read(1))
        assert not q.push(read(2))
        assert q.full

    def test_head_and_empty(self):
        q = CommandQueue(2)
        assert q.head() is None
        assert q.empty
        q.push(read(9))
        assert q.head().line == 9
        assert not q.empty

    def test_positional_remove(self):
        q = CommandQueue(3)
        a, b = read(1), read(2)
        q.push(a)
        q.push(b)
        q.remove(a)
        assert q.head() is b

    def test_zero_depth_rejected(self):
        with pytest.raises(ValueError):
            CommandQueue(0)

    def test_iteration(self):
        q = CommandQueue(3)
        q.push(read(1))
        q.push(read(2))
        assert [c.line for c in q] == [1, 2]


class TestReorderQueues:
    def test_reads_always_candidates(self):
        q = ReorderQueues(4, 4)
        r = read(1)
        q.reads.push(r)
        q.writes.push(write(2))
        assert q.candidates(drain_writes=False) == [r]

    def test_writes_join_when_draining(self):
        q = ReorderQueues(4, 4)
        r, w = read(1), write(2)
        q.reads.push(r)
        q.writes.push(w)
        assert q.candidates(drain_writes=True) == [r, w]

    def test_writes_serve_when_no_reads(self):
        q = ReorderQueues(4, 4)
        w = write(2)
        q.writes.push(w)
        assert q.candidates(drain_writes=False) == [w]

    def test_remove_routes_by_kind(self):
        q = ReorderQueues(4, 4)
        r, w = read(1), write(2)
        q.reads.push(r)
        q.writes.push(w)
        q.remove(w)
        assert len(q.writes) == 0
        q.remove(r)
        assert q.empty

    def test_len_counts_both(self):
        q = ReorderQueues(4, 4)
        q.reads.push(read(1))
        q.writes.push(write(2))
        assert len(q) == 2
