"""Unit tests for repro.common.types."""


from repro.common.types import (
    LINE_SIZE,
    CommandKind,
    Direction,
    MemoryCommand,
    Provenance,
)


class TestDirection:
    def test_ascending_step(self):
        assert Direction.ASCENDING.step == 1

    def test_descending_step(self):
        assert Direction.DESCENDING.step == -1


class TestMemoryCommand:
    def test_read_predicates(self):
        cmd = MemoryCommand(CommandKind.READ, 0x10)
        assert cmd.is_read
        assert not cmd.is_write

    def test_write_predicates(self):
        cmd = MemoryCommand(CommandKind.WRITE, 0x10)
        assert cmd.is_write
        assert not cmd.is_read

    def test_default_provenance_is_demand(self):
        cmd = MemoryCommand(CommandKind.READ, 1)
        assert cmd.provenance is Provenance.DEMAND
        assert not cmd.is_ms_prefetch

    def test_ms_prefetch_flag(self):
        cmd = MemoryCommand(
            CommandKind.READ, 1, provenance=Provenance.MS_PREFETCH
        )
        assert cmd.is_ms_prefetch

    def test_uids_are_unique_and_increasing(self):
        a = MemoryCommand(CommandKind.READ, 1)
        b = MemoryCommand(CommandKind.READ, 1)
        assert b.uid > a.uid

    def test_line_size_is_power5_line(self):
        assert LINE_SIZE == 128

    def test_default_thread_zero(self):
        assert MemoryCommand(CommandKind.READ, 5).thread == 0

    def test_arrival_defaults_to_zero(self):
        assert MemoryCommand(CommandKind.READ, 5).arrival == 0
