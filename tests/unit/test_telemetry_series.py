"""Unit tests for repro.telemetry.series — bounded per-epoch series."""

import pytest

from repro.telemetry.series import Series


def filled(capacity, count):
    series = Series("x", capacity=capacity)
    for epoch in range(1, count + 1):
        series.record(epoch, epoch * 10)
    return series


class TestRingBuffer:
    """The bound: the newest ``capacity`` samples stay, the rest count."""

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            Series("x", capacity=0)

    def test_under_capacity_keeps_order(self):
        series = filled(4, 3)
        assert series.samples() == [(1, 10), (2, 20), (3, 30)]
        assert series.dropped == 0

    def test_wraparound_keeps_most_recent(self):
        series = filled(3, 6)
        assert series.points() == [40, 50, 60]
        assert series.dropped == 3
        assert len(series) == 3

    def test_wraparound_partial(self):
        series = filled(4, 5)
        assert series.epochs() == [2, 3, 4, 5]
        assert series.dropped == 1

    def test_iteration_matches_values(self):
        series = filled(2, 3)
        assert series.samples() == list(zip(series.epochs(), series.points()))
        assert series.samples() == [(2, 20), (3, 30)]


class TestSeries:
    def test_records_epoch_value_pairs(self):
        s = Series("x", capacity=8)
        s.record(1, 10.0)
        s.record(2, 20.0)
        assert s.samples() == [(1, 10.0), (2, 20.0)]
        assert s.epochs() == [1, 2]
        assert s.points() == [10.0, 20.0]

    def test_wraparound_drops_oldest_epochs(self):
        s = Series("x", capacity=3)
        for epoch in range(1, 7):
            s.record(epoch, epoch * 1.0)
        assert s.epochs() == [4, 5, 6]
        assert s.dropped == 3

    def test_is_scalar_for_numbers(self):
        s = Series("x")
        s.record(1, 3)
        s.record(2, 4.5)
        assert s.is_scalar

    def test_is_scalar_false_for_tuples(self):
        s = Series("x")
        s.record(1, (1, 2, 3))
        assert not s.is_scalar
