"""Unit tests for the Likelihood Tables / Stream Length Histograms."""

import pytest

from repro.common.config import SLHConfig
from repro.prefetch.slh import LikelihoodTables, slh_bars


def make_tables(table_len=16, epoch_reads=1000):
    return LikelihoodTables(SLHConfig(table_len=table_len, epoch_reads=epoch_reads))


class TestRecordStream:
    def test_length_one_touches_only_first_entry(self):
        t = make_tables()
        t.record_stream(1)
        assert t.next[1] == 1
        assert t.next[2] == 0

    def test_length_l_adds_l_to_prefix(self):
        t = make_tables()
        t.record_stream(4)
        # a length-4 stream has 4 reads, all in streams of length >= i, i<=4
        assert t.next[1:6] == [4, 4, 4, 4, 0]

    def test_length_beyond_table_clamps(self):
        t = make_tables(table_len=4)
        t.record_stream(10)
        assert t.next[1:5] == [10, 10, 10, 10]

    def test_curr_decrements_saturating(self):
        t = make_tables()
        t.curr[1] = 3
        t.curr[2] = 1
        t.record_stream(2)
        assert t.curr[1] == 1
        assert t.curr[2] == 0  # saturates, never negative

    def test_counter_saturates_at_max(self):
        t = make_tables(table_len=4, epoch_reads=2)
        for _ in range(100):
            t.record_stream(4)
        assert t.next[1] == t.counter_max

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            make_tables().record_stream(0)

    def test_next_only_does_not_touch_curr(self):
        t = make_tables()
        t.curr[1] = 5
        t.record_stream_next_only(3)
        assert t.curr[1] == 5
        assert t.next[1] == 3


class TestRollover:
    def test_next_becomes_curr(self):
        t = make_tables()
        t.record_stream(3)
        t.rollover()
        assert t.curr[1:4] == [3, 3, 3]
        assert all(v == 0 for v in t.next)

    def test_epoch_start_snapshot(self):
        t = make_tables()
        t.record_stream(2)
        t.rollover()
        t.record_stream(2)  # decrements curr but not the snapshot
        assert t.epoch_start[1] == 2
        assert t.curr[1] == 0

    def test_epoch_counter(self):
        t = make_tables()
        t.rollover()
        t.rollover()
        assert t.epochs == 2


class TestShouldPrefetch:
    def test_empty_tables_never_prefetch(self):
        t = make_tables()
        assert not t.should_prefetch(1)

    def test_inequality_five_boundary(self):
        # lht(k) < 2*lht(k+1): equality must NOT prefetch
        t = make_tables()
        t.curr[1] = 4
        t.curr[2] = 2
        assert not t.should_prefetch(1)
        t.curr[2] = 3
        assert t.should_prefetch(1)

    def test_gemsfdtd_example_from_paper(self):
        # Paper Section 3.1: with 21.8% of reads in length-1 streams and
        # 43.7% in length-2 streams, prefetch at k=1 but not at k=2.
        t = make_tables()
        # construct lht from the figure's bar values (x1000 reads)
        bars = {1: 218, 2: 437, 3: 60, 4: 50, 5: 40, 6: 40, 7: 50}
        rest = 1000 - sum(bars.values())  # mass at length >= 8
        for i in range(1, 17):
            t.curr[i] = sum(v for k, v in bars.items() if k >= i)
            if i <= 8:
                t.curr[i] += rest
        assert t.should_prefetch(1)  # 78.2% chance of length >= 2
        assert not t.should_prefetch(2)  # 43.7% > remaining 34.5%

    def test_k_clamped_to_table(self):
        t = make_tables(table_len=4)
        t.curr[3] = 1
        t.curr[4] = 1
        # k beyond Lm uses the tail of the histogram
        assert t.should_prefetch(99) == t.should_prefetch(3)

    def test_degree_generalisation(self):
        # inequality (6): lht(k) < 2*lht(k+d)
        t = make_tables()
        t.curr[1] = 10
        t.curr[2] = 9
        t.curr[3] = 2
        assert t.should_prefetch(1, degree=1)
        assert not t.should_prefetch(1, degree=2)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            make_tables().should_prefetch(0)

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            make_tables(table_len=4).should_prefetch(1, degree=4)


class TestBars:
    def test_bars_reconstruct_fractions(self):
        t = make_tables(table_len=4)
        t.record_stream(1)  # 1 read in a length-1 stream
        t.record_stream(3)  # 3 reads in a length-3 stream
        t.rollover()
        bars = t.bars_epoch_start()
        assert bars[1] == pytest.approx(0.25)
        assert bars[2] == pytest.approx(0.0)
        assert bars[3] == pytest.approx(0.75)

    def test_bars_sum_to_one(self):
        t = make_tables()
        for length in (1, 2, 2, 5, 16, 20):
            t.record_stream(length)
        t.rollover()
        assert sum(t.bars_epoch_start()[1:]) == pytest.approx(1.0)

    def test_last_bar_aggregates_tail(self):
        t = make_tables(table_len=4)
        t.record_stream(9)
        t.rollover()
        assert t.bars_epoch_start()[4] == pytest.approx(1.0)

    def test_empty_bars_all_zero(self):
        assert all(b == 0 for b in make_tables().bars_epoch_start())


class TestSlhBarsFunction:
    def test_zero_total(self):
        assert slh_bars([0, 0, 0, 0, 0], 4) == [0.0] * 5

    def test_explicit_vector(self):
        # 10 reads total; 4 in length-1 streams, 6 in length>=2
        lht = [0, 10, 6, 6, 6]
        bars = slh_bars(lht, 4)
        assert bars[1] == pytest.approx(0.4)
        assert bars[2] == pytest.approx(0.0)
        assert bars[4] == pytest.approx(0.6)

    def test_negative_differences_clamped(self):
        # a noisy lht (non-monotone) must not yield negative bars
        bars = slh_bars([0, 5, 6, 0, 0], 4)
        assert all(b >= 0 for b in bars)
