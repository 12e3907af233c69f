"""Unit tests for the synthetic workload generator."""

import pytest

from repro.workloads.dynamic import decode_workload, encode_workload
from repro.workloads.synthetic import (
    COLD_BASE,
    HOT_BASE,
    StreamWorkload,
    WorkloadPhase,
    generate_trace,
)


def simple_workload(**kw):
    defaults = dict(
        name="t",
        length_dist={4: 1.0},
        gap_mean=0.0,
        hot_fraction=0.0,
        write_fraction=0.0,
        descending_fraction=0.0,
        interleave=1,
        burstiness=1.0,
    )
    defaults.update(kw)
    return StreamWorkload(**defaults)


class TestValidation:
    def test_empty_dist_rejected(self):
        with pytest.raises(ValueError):
            simple_workload(length_dist={}).validate()

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            simple_workload(length_dist={0: 1.0}).validate()

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            simple_workload(length_dist={2: -1.0}).validate()

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            simple_workload(hot_fraction=1.5).validate()
        with pytest.raises(ValueError):
            simple_workload(burstiness=-0.1).validate()

    def test_zero_accesses_rejected(self):
        with pytest.raises(ValueError):
            generate_trace(simple_workload(), 0)


def _phased(**phase):
    return simple_workload(phases=(
        WorkloadPhase(weight=1.0), WorkloadPhase(weight=1.0, **phase),
    ), phase_round=20)


#: input the generator's draws would hang on or silently default on,
#: with the field (and phase index) the error must name
BAD_INPUT = {
    "hot_lines=0": (simple_workload(hot_lines=0), r"^hot_lines"),
    "hot_lines=-3": (simple_workload(hot_lines=-3), r"^hot_lines"),
    "phase_zero_length": (_phased(length_dist={0: 1.0}),
                          r"^phases\[1\]\.length_dist"),
    "phase_empty_dist": (_phased(length_dist={}), r"^phases\[1\]\.length_dist"),
    "phase_negative_weight": (_phased(length_dist={2: -1.0, 3: 2.0}),
                              r"^phases\[1\]\.length_dist"),
    "phase_zero_weights": (_phased(length_dist={2: 0.0, 3: 0.0}),
                           r"^phases\[1\]\.length_dist"),
    "phase_infinite_weight": (_phased(length_dist={2: float("inf")}),
                              r"^phases\[1\]\.length_dist"),
    "phase_gap_mean": (_phased(gap_mean=-1.0), r"^phases\[1\]\.gap_mean"),
    "phase_hot_fraction": (_phased(hot_fraction=2.0),
                           r"^phases\[1\]\.hot_fraction"),
    "infinite_weight": (simple_workload(length_dist={4: float("inf")}),
                        r"^length_dist"),
}


class TestInputNamedInErrors:
    @pytest.mark.parametrize("label", sorted(BAD_INPUT))
    def test_generate_trace_names_the_field(self, label):
        workload, field = BAD_INPUT[label]
        with pytest.raises(ValueError, match=field):
            generate_trace(workload, 200, seed=1)

    @pytest.mark.parametrize("label", sorted(BAD_INPUT))
    def test_decode_workload_names_the_field(self, label):
        workload, field = BAD_INPUT[label]
        with pytest.raises(ValueError, match=field):
            decode_workload(encode_workload(workload))

    @pytest.mark.parametrize("field", ["hot_lines", "interleave"])
    def test_counts_must_be_integers(self, field):
        # the generator sizes its bit draws from these counts
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            generate_trace(simple_workload(**{field: 4.0}), 100, seed=1)

    def test_phase_index_is_the_failing_phase(self):
        wl = simple_workload(phases=(
            WorkloadPhase(weight=1.0, hot_fraction=0.5),
            WorkloadPhase(weight=1.0),
            WorkloadPhase(weight=1.0, hot_fraction=-0.5),
        ))
        with pytest.raises(ValueError, match=r"^phases\[2\]\.hot_fraction"):
            wl.validate()

    def test_valid_phase_overrides_pass(self):
        wl = _phased(length_dist={1: 0.0, 3: 1.0}, gap_mean=0.0, hot_fraction=1.0)
        assert decode_workload(encode_workload(wl)) == wl
        assert len(generate_trace(wl, 100, seed=1)) == 100


class TestDeterminism:
    def test_same_seed_same_trace(self):
        wl = simple_workload(interleave=3, burstiness=0.5, hot_fraction=0.2,
                             hot_lines=64, gap_mean=5)
        a = generate_trace(wl, 500, seed=7)
        b = generate_trace(wl, 500, seed=7)
        assert a.records == b.records

    def test_different_seed_differs(self):
        wl = simple_workload(gap_mean=5)
        a = generate_trace(wl, 200, seed=1)
        b = generate_trace(wl, 200, seed=2)
        assert a.records != b.records


class TestStreamStructure:
    def test_single_stream_is_sequential(self):
        trace = generate_trace(simple_workload(), 8, seed=1)
        lines = [r[1] for r in trace.records]
        # interleave=1, burstiness irrelevant: strictly 4-line runs
        assert lines[1] == lines[0] + 1
        assert lines[2] == lines[0] + 2
        assert lines[3] == lines[0] + 3
        # a new region starts afterwards
        assert lines[4] > lines[3] + 1

    def test_descending_streams(self):
        wl = simple_workload(descending_fraction=1.0)
        trace = generate_trace(wl, 8, seed=1)
        lines = [r[1] for r in trace.records]
        assert lines[1] == lines[0] - 1

    def test_streams_never_overlap_regions(self):
        wl = simple_workload(interleave=4, burstiness=0.0)
        trace = generate_trace(wl, 2000, seed=3)
        lines = [r[1] for r in trace.records]
        assert len(set(lines)) == len(lines)  # cold lines unique

    def test_hot_accesses_in_hot_region(self):
        wl = simple_workload(hot_fraction=1.0, hot_lines=16)
        trace = generate_trace(wl, 100, seed=1)
        for _, line, _ in trace.records:
            assert HOT_BASE <= line < HOT_BASE + 16

    def test_cold_accesses_in_cold_region(self):
        trace = generate_trace(simple_workload(), 100, seed=1)
        for _, line, _ in trace.records:
            assert line >= COLD_BASE


class TestWriteStreams:
    def test_write_fraction_zero_all_reads(self):
        trace = generate_trace(simple_workload(), 100, seed=1)
        assert trace.write_fraction == 0.0

    def test_whole_streams_are_write_or_read(self):
        wl = simple_workload(write_fraction=0.5, length_dist={4: 1.0})
        trace = generate_trace(wl, 400, seed=2)
        # group into consecutive runs of 4 (interleave=1): each run must
        # be homogeneous in its write flag
        recs = trace.records
        for i in range(0, len(recs) - 4, 4):
            flags = {recs[i + j][2] for j in range(4)}
            assert len(flags) == 1

    def test_write_fraction_approximate(self):
        wl = simple_workload(write_fraction=0.5)
        trace = generate_trace(wl, 4000, seed=2)
        assert 0.3 < trace.write_fraction < 0.7


class TestGaps:
    def test_zero_gap_mean(self):
        trace = generate_trace(simple_workload(gap_mean=0), 50, seed=1)
        assert all(r[0] == 0 for r in trace.records)

    def test_gap_mean_approximate(self):
        trace = generate_trace(simple_workload(gap_mean=20), 5000, seed=1)
        mean = sum(r[0] for r in trace.records) / len(trace)
        assert 15 < mean < 25


class TestPhases:
    def test_phase_round_alternates(self):
        wl = simple_workload(
            length_dist={8: 1.0},
            phases=(
                WorkloadPhase(weight=0.5, length_dist={1: 1.0}),
                WorkloadPhase(weight=0.5, length_dist={8: 1.0}),
            ),
            phase_round=100,
        )
        trace = generate_trace(wl, 400, seed=1)
        # first 50 accesses: isolated lines; next 50: 8-line runs
        first = [r[1] for r in trace.records[:40]]
        assert all(b - a != 1 for a, b in zip(first, first[1:]))

    def test_phase_weights_must_be_positive(self):
        wl = simple_workload(
            phases=(WorkloadPhase(weight=0.0),), phase_round=10
        )
        with pytest.raises(ValueError):
            generate_trace(wl, 100)

    def test_exact_access_count_with_phases(self):
        wl = simple_workload(
            phases=(
                WorkloadPhase(weight=0.3, length_dist={1: 1.0}),
                WorkloadPhase(weight=0.7, length_dist={2: 1.0}),
            ),
            phase_round=70,
        )
        assert len(generate_trace(wl, 1234, seed=1)) == 1234

    def test_phase_overrides_gap(self):
        wl = simple_workload(
            gap_mean=0,
            phases=(WorkloadPhase(weight=1.0, gap_mean=50.0),),
            phase_round=100,
        )
        trace = generate_trace(wl, 300, seed=1)
        assert sum(r[0] for r in trace.records) > 0


class TestPhaseWeightFixes:
    def test_negative_phase_weight_rejected(self):
        wl = simple_workload(
            phases=(WorkloadPhase(weight=-0.5), WorkloadPhase(weight=1.5)),
            phase_round=50,
        )
        with pytest.raises(ValueError, match="non-negative"):
            wl.validate()

    def test_negative_phase_weight_rejected_at_generation(self):
        wl = simple_workload(
            phases=(WorkloadPhase(weight=-0.5), WorkloadPhase(weight=1.5)),
            phase_round=50,
        )
        with pytest.raises(ValueError, match="non-negative"):
            generate_trace(wl, 100)

    def test_zero_weight_phase_is_skipped(self):
        # Pre-fix, the >=1 clamp forced one access per round from the
        # zero-weight phase; its huge gap override would leak through.
        wl = simple_workload(
            gap_mean=0.0,
            phases=(
                WorkloadPhase(weight=0.0, gap_mean=500.0),
                WorkloadPhase(weight=1.0),
            ),
            phase_round=50,
        )
        trace = generate_trace(wl, 500, seed=2)
        assert len(trace) == 500
        assert sum(r[0] for r in trace.records) == 0

    def test_zero_weight_phase_matches_absent_phase(self):
        with_zero = simple_workload(
            phases=(
                WorkloadPhase(weight=0.0, length_dist={1: 1.0}),
                WorkloadPhase(weight=1.0),
            ),
            phase_round=50,
        )
        lines = [r[1] for r in generate_trace(with_zero, 300, seed=3).records]
        # every access comes from the weight-1.0 phase's 4-line streams
        runs = sum(1 for a, b in zip(lines, lines[1:]) if b - a == 1)
        assert runs > len(lines) // 2
