"""Property-based tests for the cache and Prefetch Buffer."""

from hypothesis import given
from hypothesis import strategies as st

from repro.cache.cache import Cache, PolicyCache
from repro.cache.replacement import LRUPolicy
from repro.common.config import CacheConfig, PrefetchBufferConfig
from repro.prefetch.prefetch_buffer import PrefetchBuffer

lines = st.integers(min_value=0, max_value=63)
ops = st.lists(
    st.tuples(st.sampled_from(["fill", "read", "write", "inval"]), lines),
    max_size=200,
)


def run_cache(operations, size=1024, assoc=2):
    cache = Cache(CacheConfig(size, assoc, latency=1))
    for op, line in operations:
        if op == "fill":
            cache.fill(line)
        elif op in ("read", "write"):
            cache.lookup(line, write=op == "write")
        elif op == "inval":
            cache.invalidate(line)
    return cache


@given(ops)
def test_cache_occupancy_bounded(operations):
    cache = run_cache(operations)
    assert cache.occupancy <= cache.config.num_lines


@given(ops)
def test_cache_no_duplicate_lines(operations):
    cache = run_cache(operations)
    resident = list(cache.resident_lines())
    assert len(resident) == len(set(resident))


@given(ops)
def test_cache_hit_iff_resident(operations):
    """contains() and lookup() agree; lookup after fill always hits
    until eviction/invalidation."""
    cache = run_cache(operations)
    for line in range(64):
        assert cache.contains(line) == (line in set(cache.resident_lines()))


@given(ops)
def test_set_discipline(operations):
    """A line only ever lives in its own set."""
    cache = run_cache(operations)
    for s_index, entries in enumerate(cache._sets):
        for line in entries:
            assert cache.set_index(line) == s_index


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["fill", "fill_dirty", "read", "write", "inval"]),
            lines,
        ),
        max_size=300,
    ),
    st.sampled_from([(256, 1), (512, 2), (1024, 2), (2048, 4), (4096, 8)]),
)
def test_dict_lru_matches_way_indexed_lru(operations, geometry):
    """The default dict-LRU sets and the way-indexed LRUPolicy path see
    the same hits, evictions (line, dirty) and resident lines."""
    size, assoc = geometry
    config = CacheConfig(size, assoc, latency=1)
    fast = Cache(config)
    ref = Cache(config, policy=LRUPolicy(config.num_sets, assoc))
    assert type(fast) is Cache and isinstance(ref, PolicyCache)

    def outcome(cache, op, line):
        if op.startswith("fill"):
            ev = cache.fill(line, dirty=op == "fill_dirty")
            return None if ev is None else (ev.line, ev.dirty)
        if op == "inval":
            return cache.invalidate(line)
        return cache.lookup(line, write=op == "write")

    for op, line in operations:
        assert outcome(fast, op, line) == outcome(ref, op, line), (op, line)
        assert sorted(fast.resident_lines()) == sorted(ref.resident_lines())
    assert fast.occupancy == ref.occupancy
    assert fast.stats.as_dict() == ref.stats.as_dict()
    # drain both: the remaining lines leave in the same LRU order
    for line in range(64, 64 + config.num_lines):
        assert outcome(fast, "fill", line) == outcome(ref, "fill", line)


@given(st.lists(st.tuples(st.sampled_from(["insert", "read", "write"]), lines), max_size=200))
def test_prefetch_buffer_read_once(operations):
    """A line can be consumed by exactly one read after each insert."""
    pb = PrefetchBuffer(PrefetchBufferConfig())
    consumable = set()
    for op, line in operations:
        if op == "insert":
            pb.insert(line)
            consumable.add(line)
        elif op == "read":
            hit = pb.read_hit(line)
            if hit:
                assert line in consumable
                consumable.discard(line)
            else:
                # misses may be capacity evictions; never a consumable
                # line that was not inserted
                pass
            assert not pb.contains(line) or line != line  # consumed
        else:
            pb.invalidate(line)
            consumable.discard(line)
    assert pb.occupancy <= PrefetchBufferConfig().entries


@given(st.lists(lines, max_size=300))
def test_prefetch_buffer_capacity(inserts):
    pb = PrefetchBuffer(PrefetchBufferConfig(entries=16, assoc=4))
    for line in inserts:
        pb.insert(line)
    assert pb.occupancy <= 16
    # stats balance: inserts = resident + consumed(0) + evicted
    assert pb.stats["inserts"] == pb.occupancy + pb.stats["evicted_unused"]


@given(st.lists(lines, min_size=1, max_size=100))
def test_prefetch_buffer_useful_fraction_bounds(inserts):
    pb = PrefetchBuffer(PrefetchBufferConfig())
    for line in inserts:
        pb.insert(line)
    pb.read_hit(inserts[-1])
    assert 0.0 <= pb.useful_fraction() <= 1.0
