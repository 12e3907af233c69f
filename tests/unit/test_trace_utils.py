"""Unit tests for trace manipulation utilities and latency histograms."""

import pytest

from repro.workloads.trace import Trace


def t(lines, name="t"):
    return Trace([(0, line, False) for line in lines], name=name)


class TestSlice:
    def test_slice_range(self):
        trace = t([1, 2, 3, 4])
        assert [r[1] for r in trace.slice(1, 3).records] == [2, 3]

    def test_slice_open_end(self):
        assert len(t([1, 2, 3]).slice(1)) == 2

    def test_slice_does_not_share(self):
        trace = t([1, 2, 3])
        sliced = trace.slice(0, 2)
        sliced.records.append((0, 99, False))
        assert len(trace) == 3


class TestInterleave:
    def test_round_robin(self):
        mixed = Trace.interleave([t([1, 2]), t([10, 20])])
        assert [r[1] for r in mixed.records] == [1, 10, 2, 20]

    def test_chunked(self):
        mixed = Trace.interleave([t([1, 2, 3]), t([10, 20, 30])], chunk=2)
        assert [r[1] for r in mixed.records] == [1, 2, 10, 20, 3, 30]

    def test_uneven_lengths(self):
        mixed = Trace.interleave([t([1]), t([10, 20, 30])])
        assert sorted(r[1] for r in mixed.records) == [1, 10, 20, 30]

    def test_bad_chunk(self):
        with pytest.raises(ValueError):
            Trace.interleave([t([1])], chunk=0)


class TestLatencyHistogram:
    def test_histogram_from_run(self):
        from repro import make_config, simulate

        trace = Trace([(0, (1 << 34) + i * 7, False) for i in range(30)])
        result = simulate(make_config("NP"), trace)
        hist = result.read_latency_histogram()
        assert sum(hist.values()) == result.stats["mc.lat_cnt_demand"]
        assert all(bucket >= 1 for bucket in hist)

    def test_histogram_empty_for_ps_when_disabled(self):
        from repro import make_config, simulate

        trace = Trace([(0, (1 << 34), False)])
        result = simulate(make_config("NP"), trace)
        assert result.read_latency_histogram("ps_prefetch") == {}
