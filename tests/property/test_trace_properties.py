"""Property-based tests for trace manipulation and persistence."""

from hypothesis import given
from hypothesis import strategies as st

from repro.workloads.trace import Trace

records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=1 << 40),
        st.booleans(),
    ),
    max_size=50,
)


@given(records)
def test_save_load_roundtrip(recs):
    import os
    import tempfile

    trace = Trace(recs, name="prop")
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.trace")
        trace.save(path)
        loaded = Trace.load(path)
    assert loaded.records == trace.records


@given(records, st.integers(min_value=0, max_value=60),
       st.integers(min_value=0, max_value=60))
def test_slice_matches_python_semantics(recs, start, stop):
    trace = Trace(recs)
    assert trace.slice(start, stop).records == recs[start:stop]


@given(st.lists(records, min_size=1, max_size=4),
       st.integers(min_value=1, max_value=5))
def test_interleave_is_a_permutation(trace_lists, chunk):
    traces = [Trace(r) for r in trace_lists]
    mixed = Trace.interleave(traces, chunk=chunk)
    assert len(mixed) == sum(len(t) for t in traces)
    assert sorted(mixed.records) == sorted(
        r for t in traces for r in t.records
    )


@given(st.lists(records, min_size=1, max_size=3))
def test_interleave_preserves_per_trace_order(trace_lists):
    traces = [Trace(r, name=str(i)) for i, r in enumerate(trace_lists)]
    # tag records by identity through unique wrapping is overkill: per
    # trace, the subsequence of its own records must appear in order.
    mixed = Trace.interleave(traces)
    for t in traces:
        remaining = list(t.records)
        for rec in mixed.records:
            if remaining and rec == remaining[0]:
                remaining.pop(0)
        assert not remaining
