"""The generator's inlined draws reproduce ``randrange``/``choices`` exactly.

Every trace must be record-for-record what the generator produced when it
called the stdlib (``tests/_synthetic_oracle.py``), over every shipped
profile and the edge cases of each draw.
"""

from dataclasses import replace

import pytest

from repro.workloads.profiles import BENCHMARKS
from repro.workloads.synthetic import StreamWorkload, WorkloadPhase, generate_trace
from tests._synthetic_oracle import reference_trace


def _assert_matches_oracle(workload, accesses, seed):
    assert (generate_trace(workload, accesses, seed).records
            == reference_trace(workload, accesses, seed).records)


@pytest.mark.parametrize("bench", sorted(BENCHMARKS))
def test_every_profile_matches_the_oracle(bench):
    workload = BENCHMARKS[bench].workload
    for seed in (1, 2, 9):
        for accesses in (1, 700, 20000):
            _assert_matches_oracle(workload, accesses, seed)


BASE = StreamWorkload(
    name="edge", length_dist={1: 0.2, 3: 0.5, 9: 0.3}, gap_mean=12.0,
    hot_fraction=0.4, hot_lines=300, write_fraction=0.2,
    descending_fraction=0.3, interleave=3, burstiness=0.6, phase_round=500,
)

EDGES = {
    "gap_mean=0": replace(BASE, gap_mean=0.0),
    "hot_fraction=0": replace(BASE, hot_fraction=0.0),
    "hot_fraction=1": replace(BASE, hot_fraction=1.0),
    "hot_lines=1": replace(BASE, hot_lines=1),
    "hot_lines=2**40": replace(BASE, hot_lines=2**40),
    "interleave=1,burstiness=1": replace(BASE, interleave=1, burstiness=1.0),
    "one_length": replace(BASE, length_dist={5: 1.0}),
    "zero_weight_length": replace(BASE, length_dist={2: 0.0, 4: 1.0, 7: 0.5}),
    "zero_weight_phase": replace(BASE, phases=(
        WorkloadPhase(weight=0.0, length_dist={1: 1.0}),
        WorkloadPhase(weight=1.0, gap_mean=3.0),
        WorkloadPhase(weight=0.5, hot_fraction=0.9, length_dist={16: 1.0}),
    )),
    "descending_writes": replace(BASE, descending_fraction=1.0,
                                 write_fraction=1.0),
}


@pytest.mark.parametrize("label", sorted(EDGES))
def test_edge_workloads_match_the_oracle(label):
    for seed in (1, 9):
        for accesses in (1, 2000):
            _assert_matches_oracle(EDGES[label], accesses, seed)
