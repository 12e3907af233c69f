"""Property-based tests for the synthetic workload generator."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.slh_accuracy import exact_slh
from repro.workloads.synthetic import (
    COLD_BASE,
    HOT_BASE,
    StreamWorkload,
    WorkloadPhase,
    generate_trace,
)
from tests._synthetic_oracle import reference_trace

length_dists = st.dictionaries(
    st.integers(min_value=1, max_value=16),
    st.floats(min_value=0.01, max_value=1.0),
    min_size=1,
    max_size=5,
)
gap_means = st.floats(min_value=0.0, max_value=50.0)
hot_fractions = st.floats(min_value=0.0, max_value=0.9)

phases = st.lists(
    st.builds(
        WorkloadPhase,
        weight=st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=1.0)),
        length_dist=st.none() | length_dists,
        gap_mean=st.none() | gap_means,
        hot_fraction=st.none() | hot_fractions,
    ),
    max_size=3,
).map(tuple).filter(lambda ps: not ps or sum(p.weight for p in ps) > 0)

workloads = st.builds(
    StreamWorkload,
    name=st.just("prop"),
    length_dist=length_dists,
    gap_mean=gap_means,
    hot_fraction=hot_fractions,
    hot_lines=st.integers(min_value=1, max_value=512),
    write_fraction=st.floats(min_value=0.0, max_value=0.5),
    descending_fraction=st.floats(min_value=0.0, max_value=0.5),
    interleave=st.integers(min_value=1, max_value=8),
    burstiness=st.floats(min_value=0.0, max_value=1.0),
    phases=phases,
    # short rounds, so a few hundred accesses cross several phases
    phase_round=st.integers(min_value=1, max_value=120),
)


@given(workloads, st.integers(min_value=1, max_value=300))
@settings(max_examples=40, deadline=None)
def test_exact_length(workload, n):
    assert len(generate_trace(workload, n, seed=5)) == n


@given(workloads)
@settings(max_examples=40, deadline=None)
def test_determinism(workload):
    a = generate_trace(workload, 100, seed=9)
    b = generate_trace(workload, 100, seed=9)
    assert a.records == b.records


@given(workloads)
@settings(max_examples=40, deadline=None)
def test_regions_partition_address_space(workload):
    for _, line, _ in generate_trace(workload, 200, seed=1).records:
        assert (HOT_BASE <= line < HOT_BASE + workload.hot_lines) or (
            line >= COLD_BASE
        )


@given(workloads)
@settings(max_examples=40, deadline=None)
def test_gaps_non_negative(workload):
    assert all(r[0] >= 0 for r in generate_trace(workload, 100, seed=2).records)


@given(workloads, st.integers(min_value=1, max_value=400),
       st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_matches_the_stdlib_oracle(workload, n, seed):
    """The inlined draws give the records randrange/choices gave."""
    assert (generate_trace(workload, n, seed).records
            == reference_trace(workload, n, seed).records)


@given(st.integers(min_value=2, max_value=12))
@settings(max_examples=20, deadline=None)
def test_fixed_length_dist_is_recovered(length):
    """A single-length distribution with no noise yields streams of
    exactly that length at the memory side (measured by the exact
    tracker on the raw cold-read sequence)."""
    wl = StreamWorkload(
        name="pure",
        length_dist={length: 1.0},
        gap_mean=0,
        hot_fraction=0.0,
        write_fraction=0.0,
        descending_fraction=0.0,
        interleave=2,
        burstiness=0.5,
    )
    trace = generate_trace(wl, length * 40, seed=3)
    bars = exact_slh([r[1] for r in trace.records], table_len=16)
    # nearly all read mass sits at the target length (edge streams at
    # the trace end may be truncated)
    assert bars[min(length, 16)] > 0.8
