"""REG rules: key extraction, opaque writes, typo'd reads."""

import pytest

from repro.analysislint.registry import (
    DynamicKeyRule,
    UnwrittenReadRule,
    build_registry,
)
from repro.analysislint.statsmodel import provenance_values
from tests.unit._lint_util import mount, mount_text, real_tree

FIXTURE = ("registry_fixture.py", "src/repro/cache/registry_fixture.py")


@pytest.fixture(scope="module")
def fixture_tree():
    return mount(FIXTURE)


class TestExtraction:
    def test_literal_ifexp_and_pragma_keys(self, fixture_tree):
        model = build_registry(fixture_tree)
        assert {"observations", "hits", "misses"} <= model.keys
        assert "shape_" in model.prefixes  # f-string head + pragma

    def test_provenance_fstrings_expand_to_full_key_set(self):
        tree = mount_text(
            "class PB:\n"
            "    def hit(self, cmd):\n"
            "        self.stats.bump(f\"pb_hits_{cmd.provenance.value}\")\n",
            "src/repro/controller/pb.py",
        )
        model = build_registry(tree)
        assert model.keys == {f"pb_hits_{v}" for v in provenance_values()}

    def test_nested_conditional_keys_are_literal(self):
        tree = mount_text(
            "class PB:\n"
            "    def hit(self, prov, a, b):\n"
            "        self.stats.bump(\"pb_x\" if a else \"pb_y\" if b else \"pb_z\")\n",
            "src/repro/controller/pb.py",
        )
        model = build_registry(tree)
        assert model.keys == {"pb_x", "pb_y", "pb_z"}
        assert model.dynamic_writes == []

    def test_real_tree_covers_core_keys(self):
        model = build_registry(real_tree())
        assert "ticks" in model.keys
        assert "occ_read_queue" in model.keys
        assert "lat_sum_" in model.prefixes
        assert "mc." in model.merge_prefixes


class TestDynamicKeys:
    def test_unwaived_dynamic_write_flagged(self, fixture_tree):
        findings = DynamicKeyRule().check(fixture_tree)
        assert [f.symbol for f in findings] == ["KeyedBlock.record"]
        assert "stats-dynamic" in findings[0].message

    def test_waived_dynamic_write_passes(self, fixture_tree):
        findings = DynamicKeyRule().check(fixture_tree)
        assert not any(f.symbol == "KeyedBlock.batched" for f in findings)

    def test_real_tree_clean(self):
        findings = DynamicKeyRule().check(real_tree())
        assert findings == [], [f.render() for f in findings]


class TestUnwrittenReads:
    def test_typo_read_flagged(self, fixture_tree):
        findings = UnwrittenReadRule().check(fixture_tree)
        assert len(findings) == 1
        assert "observaitons" in findings[0].message
        assert findings[0].symbol == "KeyedBlock.summarize"

    def test_merge_prefix_stripping(self):
        tree = mount_text(
            "class A:\n"
            "    def w(self):\n"
            "        self.stats.bump('issued')\n"
            "class B:\n"
            "    def fold(self, a):\n"
            "        self.stats.merge(a.stats, 'mc.')\n"
            "    def r(self):\n"
            "        return self.stats['mc.issued'], self.stats['mc.isued']\n",
            "src/repro/system/fold.py",
        )
        findings = UnwrittenReadRule().check(tree)
        assert len(findings) == 1
        assert "mc.isued" in findings[0].message

    def test_real_tree_clean(self):
        findings = UnwrittenReadRule().check(real_tree())
        assert findings == [], [f.render() for f in findings]
