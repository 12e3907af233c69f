"""CYC001: clock writes must integrate, delegate, or carry a waiver."""

import pytest

from repro.analysislint.cycles import CycleAccountingRule
from tests.unit._lint_util import mount, mount_text, real_tree

FIXTURE = ("cycles_violation.py", "src/repro/system/cycles_violation.py")


@pytest.fixture(scope="module")
def findings():
    return CycleAccountingRule().check(mount(FIXTURE))


class TestFixture:
    def test_only_the_unaccounted_advance_is_flagged(self, findings):
        assert [f.symbol for f in findings] == ["DriftingClock.skip_ahead"]

    def test_message_names_the_variable_and_remedies(self, findings):
        message = findings[0].message
        assert "'now'" in message
        assert "ticks" in message
        assert "bulk_tick" in message

    def test_integral_writer_passes(self, findings):
        assert not any("fast_forward" in f.symbol for f in findings)

    def test_aliased_accounting_call_passes(self, findings):
        # controller_tick = self.controller.bulk_tick; controller_tick(span)
        assert not any("delegated_forward" in f.symbol for f in findings)

    def test_def_line_waiver_passes(self, findings):
        assert not any("peek_ahead" in f.symbol for f in findings)


class TestScoping:
    def test_init_clock_zeroing_exempt(self):
        tree = mount_text(
            "class Block:\n"
            "    def __init__(self):\n"
            "        self.now = 0\n",
            "src/repro/dram/block.py",
        )
        assert CycleAccountingRule().check(tree) == []

    def test_outside_sim_packages_ignored(self):
        tree = mount(("cycles_violation.py", "src/repro/analysis/clocks.py"))
        assert CycleAccountingRule().check(tree) == []

    def test_store_line_waiver(self):
        tree = mount_text(
            "class Block:\n"
            "    def jump(self, span):\n"
            "        self.now += span  # lint: no-integral\n",
            "src/repro/dram/block.py",
        )
        assert CycleAccountingRule().check(tree) == []


class TestRealTreeClean:
    def test_simulator_packages_pass(self):
        findings = CycleAccountingRule().check(real_tree())
        assert findings == [], [f.render() for f in findings]
