"""PAR rules: divergent fixture flagged, real dual-path classes clean.

The satellite requirement this file pins: a fixture with a deliberately
divergent ``tick``/``tick_reference`` pair must be flagged, and the real
``MemoryController`` / ``MemorySidePrefetcher`` pairs must pass.
"""

import pytest

from repro.analysislint.parity import (
    BULK_PAIR,
    BulkTickParityRule,
    EventParityRule,
    StatsParityRule,
    _analyses,
    _class_pairs,
)
from tests.unit._lint_util import mount, mount_text, real_tree

DIVERGENT = ("parity_divergent.py", "src/repro/controller/parity_divergent.py")
CLEAN = ("parity_clean.py", "src/repro/controller/parity_clean.py")
BULK = ("par003_divergent.py", "src/repro/controller/par003_divergent.py")
SETTLE = ("par001_settle.py", "src/repro/controller/par001_settle.py")


class TestDivergentFixture:
    @pytest.fixture(scope="class")
    def tree(self):
        return mount(DIVERGENT)

    def test_stats_divergence_flagged(self, tree):
        findings = StatsParityRule().check(tree)
        assert len(findings) == 1
        f = findings[0]
        assert f.symbol == "SkewedController"
        assert "only in tick: fast_only_counter" in f.message

    def test_event_divergence_flagged(self, tree):
        findings = EventParityRule().check(tree)
        assert len(findings) == 1
        assert "only in tick_reference: QueueDepthSample" in findings[0].message


class TestCleanFixture:
    @pytest.fixture(scope="class")
    def tree(self):
        return mount(CLEAN)

    def test_raw_alias_matches_bump(self, tree):
        """values["k"] += 1 on one path equals stats.bump("k") on the other."""
        assert StatsParityRule().check(tree) == []

    def test_helper_emit_matches_direct_emit(self, tree):
        """An emit inside a self._note() helper counts for its caller."""
        assert EventParityRule().check(tree) == []

    def test_pair_detection_sees_the_class(self, tree):
        pairs = _class_pairs(tree.files[0])
        assert [cls.name for cls, _ in pairs] == ["BalancedController"]


class TestSettleFixture:
    """The event path is ``tick`` plus ``settle_integrals``."""

    @pytest.fixture(scope="class")
    def tree(self):
        return mount(SETTLE)

    def test_forgotten_settled_integral_flagged(self, tree):
        findings = StatsParityRule().check(tree)
        assert [f.symbol for f in findings] == ["ForgetfulSettle"]
        assert "only in tick_reference: occ_write" in findings[0].message
        assert "occ_read" not in findings[0].message

    def test_settle_counts_one_self_call_deep(self, tree):
        by_name = {pa.cls.name: pa for pa in _analyses(tree)}
        full = by_name["FullSettle"]
        assert full.keys["tick"] == {"issued", "ticks", "occ_read"}
        assert full.keys["tick"] == full.keys["tick_reference"]

    def test_settle_is_not_counted_against_bulk_tick(self):
        # PAR003 compares tick and bulk_tick alone: with the integrals
        # settled from the clock, both sides write none
        tree = mount_text(
            "class Settled:\n"
            "    def tick(self, now):\n"
            '        self.stats.bump("issued")\n'
            "\n"
            "    def bulk_tick(self, start, cycles):\n"
            "        pass\n"
            "\n"
            "    def settle_integrals(self, clock):\n"
            '        self.stats.set("ticks", float(clock))\n',
            "src/repro/controller/settled_bulk.py",
        )
        assert BulkTickParityRule().check(tree) == []


class TestBulkTickFixture:
    @pytest.fixture(scope="class")
    def tree(self):
        return mount(BULK)

    def test_integral_stats_divergence_flagged(self, tree):
        findings = BulkTickParityRule().check(tree)
        stats = [f for f in findings if "integral-stats" in f.message]
        assert len(stats) == 1
        assert stats[0].symbol == "SkippyController"
        assert "only in tick: occ_read" in stats[0].message
        # work counters are not integrals — they must not be reported
        assert "issued_reads" not in stats[0].message

    def test_event_divergence_flagged(self, tree):
        findings = BulkTickParityRule().check(tree)
        events = [f for f in findings if "tracer-event" in f.message]
        assert len(events) == 1
        assert "only in tick: IdleJump" in events[0].message

    def test_covering_controller_clean(self, tree):
        assert {f.symbol for f in BulkTickParityRule().check(tree)} == {
            "SkippyController"
        }

    def test_class_line_waiver_suppresses(self):
        tree = mount_text(
            "class SkewBulk:  # lint: waive=PAR003\n"
            "    def tick(self, now):\n"
            '        self.stats.bump("occ_read")\n'
            "\n"
            "    def bulk_tick(self, start, cycles):\n"
            "        pass\n",
            "src/repro/controller/waived_bulk.py",
        )
        assert BulkTickParityRule().check(tree) == []


class TestRealBulkTick:
    def test_real_fast_forward_pair_is_analyzed(self):
        names = {pa.cls.name for pa in _analyses(real_tree(), BULK_PAIR)}
        assert "MemoryController" in names

    def test_real_fast_forward_pair_passes(self):
        findings = BulkTickParityRule().check(real_tree())
        assert findings == [], [f.render() for f in findings]


class TestRealDualPathClasses:
    def test_known_pairs_are_analyzed(self):
        """The rule must actually be looking at the real dual-path classes —
        a clean pass over zero classes would prove nothing."""
        names = {pa.cls.name for pa in _analyses(real_tree())}
        assert "MemoryController" in names
        assert "MemorySidePrefetcher" in names

    def test_memory_controller_and_prefetcher_pass(self):
        for rule_cls in (StatsParityRule, EventParityRule):
            findings = rule_cls().check(real_tree())
            assert findings == [], [f.render() for f in findings]

    def test_real_paths_extract_nonempty_behaviour(self):
        """Guards against the scan silently extracting nothing and the
        parity check passing on empty-vs-empty sets."""
        by_name = {pa.cls.name: pa for pa in _analyses(real_tree())}
        mc = by_name["MemoryController"]
        assert mc.keys["tick"], "MemoryController.tick writes no visible keys?"
        assert mc.keys["tick"] == mc.keys["tick_reference"]
