"""CONC003: seeded blocking-under-lock violations flagged, real tree clean."""

import pytest

from repro.analysislint.concurrency import LockBlockingRule
from tests.unit._lint_util import mount, mount_text, real_tree

FIXTURE = ("conc_violations.py", "src/repro/fabric/conc_violations.py")


@pytest.fixture(scope="module")
def tree():
    return mount(FIXTURE)


class TestLockBlocking:
    def test_direct_sleep_under_lock_flagged(self, tree):
        findings = LockBlockingRule().check(tree)
        by_symbol = {f.symbol: f for f in findings}
        assert "Coordinator.wait_done" in by_symbol
        assert "time.sleep" in by_symbol["Coordinator.wait_done"].message
        assert "self._lock" in by_symbol["Coordinator.wait_done"].message

    def test_helper_expansion_one_level(self, tree):
        findings = LockBlockingRule().check(tree)
        by_symbol = {f.symbol: f for f in findings}
        assert "Coordinator.drain" in by_symbol
        assert "self._poll_remote() -> time.sleep" in by_symbol["Coordinator.drain"].message

    def test_pure_computation_under_lock_clean(self, tree):
        flagged = {f.symbol for f in LockBlockingRule().check(tree)}
        assert "Coordinator.snapshot" not in flagged

    def test_non_lock_context_managers_ignored(self):
        tree = mount_text(
            "import time\n\n\n"
            "def slow(path):\n"
            "    with open(path) as handle:\n"
            "        time.sleep(1)\n"
            "        return handle.read()\n",
            "src/repro/fabric/nolock.py",
        )
        assert LockBlockingRule().check(tree) == []


class TestRealTreeClean:
    @pytest.mark.parametrize("rule_cls", [LockBlockingRule])
    def test_real_tree_has_no_findings(self, rule_cls):
        findings = rule_cls().check(real_tree())
        assert findings == [], [f.render() for f in findings]
