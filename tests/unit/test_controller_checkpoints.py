"""Unit tests for the two Prefetch Buffer check points and conflict
accounting in the controller."""


from repro.common.config import (
    ControllerConfig,
    DRAMConfig,
    MemorySidePrefetcherConfig,
)
from repro.common.types import CommandKind, MemoryCommand, Provenance
from repro.controller.controller import MemoryController
from repro.dram.device import DRAMDevice
from repro.prefetch.memory_side import MemorySidePrefetcher


def build(engine="nextline", enabled=True, banks=1):
    dram = DRAMDevice(DRAMConfig(ranks=1, banks_per_rank=banks))
    ms = MemorySidePrefetcher(
        MemorySidePrefetcherConfig(enabled=enabled, engine=engine), threads=1
    )
    completed = []
    mc = MemoryController(
        ControllerConfig(),
        dram,
        ms,
        on_read_complete=lambda cmd, now: completed.append((cmd, now)),
    )
    return mc, completed


def read(line):
    return MemoryCommand(CommandKind.READ, line)


def drain(mc, start=0, limit=20_000):
    now = start
    while not mc.idle():
        mc.tick(now)
        now += 1
        assert now - start < limit
    return now


class TestFirstCheckPoint:
    def test_hit_before_caq(self):
        mc, completed = build()
        mc.ms.buffer.insert(7)
        mc.enqueue(read(7), 0)
        drain(mc)
        assert mc.stats["pb_hits_pre_caq"] == 1
        assert mc.stats["issued_regular"] == 0

    def test_miss_goes_to_dram(self):
        mc, _ = build()
        mc.enqueue(read(7), 0)
        drain(mc)
        assert mc.stats["pb_hits_pre_caq"] == 0
        assert mc.stats["issued_regular"] == 1


class TestSecondCheckPoint:
    def test_data_arriving_while_in_caq_squashes(self):
        # single bank: the second read sits in the CAQ behind the first;
        # meanwhile its line materialises in the Prefetch Buffer
        mc, completed = build(banks=1)
        mc.enqueue(read(0), 0)
        mc.enqueue(read(100), 0)  # same bank -> waits in the CAQ
        # let both move into the CAQ; the first occupies the bank
        for now in range(3):
            mc.tick(now)
        assert len(mc.caq) >= 1
        mc.ms.buffer.insert(100)  # prefetch data "arrives"
        drain(mc, start=3)
        assert mc.stats["pb_hits_caq"] == 1
        assert len(completed) == 2

    def test_prefetch_issued_while_in_caq_merges(self):
        # the CAQ-resident read's line goes in flight as a prefetch: the
        # second check point attaches the read to it instead of DRAM
        mc, completed = build(banks=1)
        mc.enqueue(read(0), 0)
        mc.enqueue(read(100), 0)
        for now in range(3):
            mc.tick(now)
        assert 100 in [cmd.line for cmd in mc.caq]
        pf = MemoryCommand(
            CommandKind.READ, 100, provenance=Provenance.MS_PREFETCH
        )
        mc.ms.notify_issue(pf)
        now = drain(mc, start=3)
        assert mc.stats["pb_merges_caq"] == 1
        assert mc.stats["issued_regular"] == 1
        mc.ms.notify_complete(pf)  # the prefetch data delivers the read
        drain(mc, start=now)
        assert sorted(cmd.line for cmd, _ in completed) == [0, 100]


class TestConflictAccounting:
    def test_blocked_head_read_counts_conflict(self):
        mc, _ = build(banks=1)
        # put a prefetch in flight on the only bank
        pf = MemoryCommand(
            CommandKind.READ, 0, provenance=Provenance.MS_PREFETCH
        )
        mc.ms.lpq.push(pf, 0)
        mc.tick(0)  # prefetch issues (everything else empty: policy 1 ok)
        assert mc.stats["issued_prefetch"] == 1
        # a regular read to the held bank arrives and is blocked
        mc.enqueue(read(100), 1)
        mc.tick(1)
        mc.tick(2)
        assert mc.ms.scheduler.stats["conflicts"] >= 1

    def test_conflict_counted_once_per_command(self):
        mc, _ = build(banks=1)
        pf = MemoryCommand(
            CommandKind.READ, 0, provenance=Provenance.MS_PREFETCH
        )
        mc.ms.lpq.push(pf, 0)
        mc.tick(0)
        mc.enqueue(read(100), 1)
        for now in range(1, 6):
            mc.tick(now)
        assert mc.ms.scheduler.stats["conflicts"] == 1

    def test_delayed_regular_stat(self):
        mc, _ = build(banks=1)
        pf = MemoryCommand(
            CommandKind.READ, 0, provenance=Provenance.MS_PREFETCH
        )
        mc.ms.lpq.push(pf, 0)
        mc.tick(0)
        mc.enqueue(read(100), 1)
        drain(mc, start=1)
        assert mc.stats["delayed_regular"] >= 1

    def test_no_conflicts_without_prefetches(self):
        mc, _ = build(enabled=False, banks=1)
        mc.enqueue(read(0), 0)
        mc.enqueue(read(100), 0)
        drain(mc)
        assert mc.ms.scheduler.stats["conflicts"] == 0
        assert mc.stats["delayed_regular"] == 0
