"""Property-based tests: Prefetch Buffer coherence in the memory-side
prefetcher under random read/write interleavings."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import MemorySidePrefetcherConfig
from repro.common.types import CommandKind, MemoryCommand
from repro.prefetch.memory_side import MemorySidePrefetcher

events = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "issue", "complete"]),
        st.integers(min_value=0, max_value=24),
    ),
    max_size=120,
)


def replay(spec):
    """Drive the prefetcher directly; returns it plus a model of which
    lines were last written (and therefore must never be served)."""
    ms = MemorySidePrefetcher(
        MemorySidePrefetcherConfig(enabled=True, engine="nextline"), threads=1
    )
    delivered = []
    ms.on_merge_ready = delivered.append
    stale = set()  # lines whose freshest version is a write
    now = 0
    for op, line in spec:
        now += 1
        if op == "read":
            cmd = MemoryCommand(CommandKind.READ, line, arrival=now)
            served = ms.read_lookup(line, now)
            if served:
                assert line not in stale, "served stale data after a write"
            ms.observe_read(cmd, now, now * 8)
            stale.discard(line + 1)  # a fresh prefetch of line+1 may follow
        elif op == "write":
            ms.observe_write(MemoryCommand(CommandKind.WRITE, line, arrival=now), now)
            stale.add(line)
        elif op == "issue" and ms.lpq.head() is not None:
            ms.notify_issue(ms.lpq.pop(now))
        elif op == "complete" and ms.in_flight:
            target = next(iter(ms.in_flight))
            ms.notify_complete(
                MemoryCommand(
                    CommandKind.READ,
                    target,
                    provenance=__import__(
                        "repro.common.types", fromlist=["Provenance"]
                    ).Provenance.MS_PREFETCH,
                )
            )
    return ms, stale


@given(events)
@settings(max_examples=60, deadline=None)
def test_writes_never_served_from_buffer(spec):
    ms, stale = replay(spec)
    # after the dust settles, no stale line is resident
    for line in stale:
        assert not ms.buffer.contains(line)


@given(events)
@settings(max_examples=60, deadline=None)
def test_structural_bounds(spec):
    ms, _ = replay(spec)
    assert ms.buffer.occupancy <= ms.buffer.config.entries
    assert len(ms.lpq) <= ms.lpq.depth
    # in-flight lines are disjoint from LPQ lines
    for cmd_line in list(ms.in_flight):
        assert not ms.lpq.contains_line(cmd_line)


@given(events)
@settings(max_examples=60, deadline=None)
def test_epoch_counter_monotone(spec):
    ms, _ = replay(spec)
    reads = sum(1 for op, _ in spec if op == "read")
    assert ms.stats["epochs"] == reads // ms.config.slh.epoch_reads
