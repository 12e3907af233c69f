"""Unit tests for the assembled memory-side prefetcher."""


import pytest

from repro.common.config import MemorySidePrefetcherConfig, SLHConfig
from repro.common.types import CommandKind, MemoryCommand, Provenance
from repro.prefetch.memory_side import MemorySidePrefetcher


def make_ms(engine="nextline", enabled=True, **kw):
    cfg = MemorySidePrefetcherConfig(enabled=enabled, engine=engine, **kw)
    return MemorySidePrefetcher(cfg, threads=1)


def read(line, thread=0):
    return MemoryCommand(CommandKind.READ, line, thread=thread)


def write(line):
    return MemoryCommand(CommandKind.WRITE, line)


class TestGeneration:
    def test_nextline_lands_in_lpq(self):
        ms = make_ms()
        ms.observe_read(read(100), now_mc=5, now_cpu=40)
        assert len(ms.lpq) == 1
        cmd = ms.lpq.head()
        assert cmd.line == 101
        assert cmd.provenance is Provenance.MS_PREFETCH
        assert cmd.arrival == 5

    def test_disabled_generates_nothing(self):
        ms = make_ms(enabled=False)
        ms.observe_read(read(100), 0, 0)
        assert len(ms.lpq) == 0

    def test_dedupe_against_buffer(self):
        ms = make_ms()
        ms.buffer.insert(101)
        ms.observe_read(read(100), 0, 0)
        assert len(ms.lpq) == 0
        assert ms.stats["dropped_in_buffer"] == 1

    def test_dedupe_against_in_flight(self):
        ms = make_ms()
        ms.in_flight.add(101)
        ms.observe_read(read(100), 0, 0)
        assert len(ms.lpq) == 0
        assert ms.stats["dropped_in_flight"] == 1

    def test_negative_lines_discarded(self):
        ms = make_ms(engine="asd")
        # a descending stream at address 0 could propose line -1; the
        # nextline engine cannot, so drive the filter directly
        ms._try_generate(-1, 0, 0)
        assert len(ms.lpq) == 0


class TestIssueComplete:
    def test_issue_tracks_in_flight(self):
        ms = make_ms()
        ms.observe_read(read(100), 0, 0)
        cmd = ms.lpq.pop(0)
        ms.notify_issue(cmd)
        assert cmd.line in ms.in_flight

    def test_complete_fills_buffer(self):
        ms = make_ms()
        ms.observe_read(read(100), 0, 0)
        cmd = ms.lpq.pop(0)
        ms.notify_issue(cmd)
        ms.notify_complete(cmd)
        assert cmd.line not in ms.in_flight
        assert ms.buffer.contains(101)


class TestReadLookup:
    def test_hit_consumes(self):
        ms = make_ms()
        ms.buffer.insert(101)
        assert ms.read_lookup(101, 0)
        assert not ms.read_lookup(101, 0)

    def test_lookup_squashes_pending_prefetch(self):
        ms = make_ms()
        ms.observe_read(read(100), 0, 0)
        assert ms.lpq.contains_line(101)
        ms.read_lookup(101, 0)  # demand for the line arrived
        assert not ms.lpq.contains_line(101)

    def test_disabled_lookup_misses(self):
        ms = make_ms(enabled=False)
        assert not ms.read_lookup(101, 0)


class TestMerge:
    def prepared(self):
        ms = make_ms()
        ms.observe_read(read(100), 0, 0)
        cmd = ms.lpq.pop(0)
        ms.notify_issue(cmd)
        return ms, cmd

    def test_merge_with_in_flight(self):
        ms, pf = self.prepared()
        demand = read(101)
        assert ms.try_merge(demand)

    def test_merge_delivers_on_complete(self):
        ms, pf = self.prepared()
        delivered = []
        ms.on_merge_ready = delivered.append
        demand = read(101)
        ms.try_merge(demand)
        ms.notify_complete(pf)
        assert delivered == [demand]

    def test_merged_line_not_left_in_buffer(self):
        # the waiting read consumes the arriving line (read-once)
        ms, pf = self.prepared()
        ms.on_merge_ready = lambda cmd: None
        ms.try_merge(read(101))
        ms.notify_complete(pf)
        assert not ms.buffer.contains(101)

    def test_no_merge_without_in_flight(self):
        ms = make_ms()
        assert not ms.try_merge(read(999))

    def test_write_cancels_unmerged_in_flight(self):
        ms, pf = self.prepared()
        ms.observe_write(write(101), 0)
        ms.notify_complete(pf)
        # stale data must not land in the buffer
        assert not ms.buffer.contains(101)

    def test_write_does_not_cancel_merged(self):
        ms, pf = self.prepared()
        delivered = []
        ms.on_merge_ready = delivered.append
        ms.try_merge(read(101))
        ms.observe_write(write(101), 0)
        ms.notify_complete(pf)
        assert len(delivered) == 1


class TestWritePath:
    def test_write_invalidates_buffer(self):
        ms = make_ms()
        ms.buffer.insert(50)
        ms.observe_write(write(50), 0)
        assert not ms.buffer.contains(50)

    def test_write_squashes_lpq(self):
        ms = make_ms()
        ms.observe_read(read(100), 0, 0)
        ms.observe_write(write(101), 0)
        assert not ms.lpq.contains_line(101)


class TestEpochs:
    def test_epoch_counter_drives_scheduler(self):
        cfg = MemorySidePrefetcherConfig(
            enabled=True, engine="nextline", slh=SLHConfig(epoch_reads=4)
        )
        ms = MemorySidePrefetcher(cfg, threads=1)
        for i in range(8):
            ms.observe_read(read(i * 100), i, i * 8)
        assert ms.stats["epochs"] == 2
        assert ms.scheduler.stats["epochs"] == 2

    def test_coverage_metric(self):
        ms = make_ms()
        ms.buffer.insert(5)
        ms.read_lookup(5, 0)
        assert ms.coverage(total_reads=10) == pytest.approx(0.1)
        assert ms.coverage(total_reads=0) == 0.0

    def test_asd_tables_accessor(self):
        assert make_ms(engine="asd").asd_tables() is not None
        assert make_ms(engine="nextline").asd_tables() is None
