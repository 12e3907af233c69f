"""ATO001: seeded torn-write fixture flagged, real store writers clean."""

import pytest

from repro.analysislint.atomic import AtomicWriteRule
from repro.analysislint.rules import ATOMIC_PACKAGES
from tests.unit._lint_util import mount, mount_text, real_tree

FIXTURE = ("ato_violations.py", "src/repro/experiments/ato_violations.py")


@pytest.fixture(scope="module")
def tree():
    return mount(FIXTURE)


class TestSeededFixture:
    def test_only_the_bare_write_is_flagged(self, tree):
        findings = AtomicWriteRule().check(tree)
        assert len(findings) == 1
        f = findings[0]
        assert f.symbol == "save_report"
        assert "'path'" in f.message
        assert "os.replace" in f.message

    def test_sanctioned_idioms_clean(self, tree):
        flagged = {f.symbol for f in AtomicWriteRule().check(tree)}
        for clean in ("save_report_mkstemp", "save_report_suffix", "append_log"):
            assert clean not in flagged


class TestScopingAndWaivers:
    def test_non_atomic_package_ignored(self):
        tree = mount(("ato_violations.py", "src/repro/telemetry/ato.py"))
        assert AtomicWriteRule().check(tree) == []

    def test_waiver_suppresses(self):
        tree = mount_text(
            "def dump(path, text):\n"
            "    with open(path, 'w') as handle:  # lint: non-atomic-ok\n"
            "        handle.write(text)\n",
            "src/repro/experiments/waived.py",
        )
        assert AtomicWriteRule().check(tree) == []

    def test_read_mode_open_ignored(self):
        tree = mount_text(
            "def load(path):\n"
            "    with open(path) as handle:\n"
            "        return handle.read()\n",
            "src/repro/experiments/reader.py",
        )
        assert AtomicWriteRule().check(tree) == []


class TestRealTreeClean:
    def test_real_tree_has_no_findings(self):
        findings = AtomicWriteRule().check(real_tree())
        assert findings == [], [f.render() for f in findings]

    def test_real_tree_has_write_sites(self):
        """The clean pass must come from recognized atomic idioms, not
        from the scan finding nothing to look at."""
        from repro.analysislint.concurrency import walk_own
        from repro.analysislint.atomic import _OPENERS, _write_mode
        from repro.analysislint.core import call_name
        import ast

        writes = 0
        for sf in real_tree().in_packages(ATOMIC_PACKAGES):
            for func in sf.functions():
                for node in walk_own(func):
                    if (
                        isinstance(node, ast.Call)
                        and call_name(node).rsplit(".", 1)[-1] in _OPENERS
                        and _write_mode(node)
                    ):
                        writes += 1
        assert writes > 0
