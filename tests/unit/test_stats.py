"""Unit tests for repro.common.stats."""

from repro.common.stats import Stats


class TestStats:
    def test_missing_key_reads_zero(self):
        assert Stats()["nothing"] == 0

    def test_bump_default_one(self):
        s = Stats()
        s.bump("x")
        assert s["x"] == 1

    def test_bump_amount(self):
        s = Stats()
        s.bump("x", 2.5)
        s.bump("x", 0.5)
        assert s["x"] == 3.0

    def test_set_overwrites(self):
        s = Stats()
        s.bump("x", 10)
        s.set("x", 3)
        assert s["x"] == 3

    def test_contains(self):
        s = Stats()
        assert "x" not in s
        s.bump("x")
        assert "x" in s

    def test_iteration_sorted(self):
        s = Stats()
        s.bump("b")
        s.bump("a")
        assert [k for k, _ in s] == ["a", "b"]

    def test_len(self):
        s = Stats()
        s.bump("a")
        s.bump("b")
        assert len(s) == 2

    def test_as_dict_snapshot(self):
        s = Stats()
        s.bump("a")
        d = s.as_dict()
        d["a"] = 99
        assert s["a"] == 1

    def test_merge_with_prefix(self):
        a = Stats()
        a.bump("hits", 2)
        b = Stats()
        b.merge(a, "l1.")
        assert b["l1.hits"] == 2

    def test_merge_accumulates(self):
        a = Stats()
        a.bump("x", 1)
        b = Stats()
        b.bump("x", 2)
        b.merge(a)
        assert b["x"] == 3

    def test_merge_plain_mapping(self):
        s = Stats()
        s.merge({"y": 4})
        assert s["y"] == 4

    def test_ratio(self):
        s = Stats()
        s.bump("hits", 3)
        s.bump("total", 4)
        assert s.ratio("hits", "total") == 0.75

    def test_ratio_zero_denominator(self):
        assert Stats().ratio("a", "b") == 0.0


class TestTotal:
    def test_total_sums_everything_without_prefix(self):
        s = Stats()
        s.bump("a", 1)
        s.bump("b", 2)
        assert s.total() == 3

    def test_total_sums_only_prefixed_keys(self):
        s = Stats()
        s.bump("lat_sum_demand", 10)
        s.bump("lat_sum_ps_prefetch", 5)
        s.bump("reads", 100)
        assert s.total("lat_sum_") == 15

    def test_total_empty_prefix_match(self):
        assert Stats().total("none_") == 0


class TestMembershipContract:
    """A key is ``in`` a Stats exactly when something wrote it.

    The old ``defaultdict(float)`` backing materialized keys on *reads*
    through ``raw()``, so ``in``/``len`` depended on who had looked.
    These tests pin the fixed contract.
    """

    def test_getitem_read_does_not_materialize(self):
        s = Stats()
        assert s["missing"] == 0
        assert "missing" not in s
        assert len(s) == 0

    def test_raw_read_does_not_materialize(self):
        s = Stats()
        values = s.raw()
        assert values["missing"] == 0.0
        assert "missing" not in s
        assert "missing" not in values
        assert len(s) == 0
        assert list(s) == []

    def test_raw_augmented_add_still_writes(self):
        s = Stats()
        values = s.raw()
        values["hits"] += 1  # read-0, add, store — same as bump
        values["hits"] += 2
        assert "hits" in s
        assert s["hits"] == 3
        assert len(s) == 1

    def test_mixed_probes_and_writes(self):
        s = Stats()
        values = s.raw()
        s.bump("written")
        assert values["probed"] == 0.0  # probe between writes
        s.bump("written")
        assert sorted(k for k, _ in s) == ["written"]
        assert s.as_dict() == {"written": 2}

    def test_ratio_of_unwritten_keys_does_not_materialize(self):
        s = Stats()
        assert s.ratio("a", "b") == 0.0
        assert len(s) == 0
