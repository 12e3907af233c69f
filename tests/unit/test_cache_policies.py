"""Unit tests for the cache's replacement-policy selection."""

import pytest

from repro.cache.cache import Cache, PolicyCache
from repro.cache.replacement import LRUPolicy, TreePLRUPolicy
from repro.common.config import CacheConfig, CacheConfig, HierarchyConfig


class TestPolicySelection:
    def test_default_is_lru(self):
        # default LRU keeps recency in its per-set dicts: no policy object
        cache = Cache(CacheConfig(1024, 2, latency=1))
        assert type(cache) is Cache and cache.policy is None

    def test_lru_policy_object_selects_way_indexed_path(self):
        cache = Cache(CacheConfig(1024, 2, latency=1), policy=LRUPolicy(4, 2))
        assert isinstance(cache, PolicyCache)
        assert isinstance(cache.policy, LRUPolicy)

    def test_tree_plru_selectable(self):
        cache = Cache(CacheConfig(1024, 2, latency=1, replacement="tree_plru"))
        assert isinstance(cache.policy, TreePLRUPolicy)

    def test_explicit_policy_wins(self):
        policy = TreePLRUPolicy(4, 2)
        cache = Cache(CacheConfig(1024, 2, latency=1), policy=policy)
        assert cache.policy is policy

    def test_invalid_replacement_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(1024, 2, latency=1, replacement="random").validate()


class TestPLRUBehaviour:
    def test_plru_cache_works_end_to_end(self):
        cache = Cache(CacheConfig(512, 4, latency=1, replacement="tree_plru"))
        for line in range(16):
            cache.fill(line)
        assert cache.occupancy <= 4

    def test_plru_hierarchy_simulates(self):
        from repro import Trace, make_config, simulate

        cfg = make_config("PMS")
        hier = HierarchyConfig(
            l1=CacheConfig(32 * 1024, 4, latency=1, replacement="tree_plru"),
            l2=CacheConfig(160 * 1024, 10, latency=13, replacement="tree_plru"),
            l3=CacheConfig(512 * 1024, 12, latency=90, replacement="tree_plru"),
        )
        cfg = cfg.derive(hierarchy=hier)
        trace = Trace([(0, (1 << 34) + i, False) for i in range(200)])
        result = simulate(cfg, trace)
        assert result.cycles > 0

    def test_plru_close_to_lru_on_streams(self):
        # on a pure streaming pattern both policies evict cold lines
        lru = Cache(CacheConfig(512, 4, latency=1))
        plru = Cache(CacheConfig(512, 4, latency=1, replacement="tree_plru"))
        for line in range(64):
            for cache in (lru, plru):
                if not cache.lookup(line):
                    cache.fill(line)
        assert lru.stats["hits"] == plru.stats["hits"] == 0
