"""DET rules: seeded-violation fixture flagged, real sim tree clean."""

import pytest

from repro.analysislint.determinism import (
    SetIterationRule,
    UnseededRandomRule,
    UrandomRule,
    WallClockRule,
)
from tests.unit._lint_util import mount, mount_text, real_tree

FIXTURE = ("det_violations.py", "src/repro/controller/det_violations.py")


@pytest.fixture(scope="module")
def fixture_tree():
    return mount(FIXTURE)


class TestFixtureViolations:
    def test_wallclock_flagged(self, fixture_tree):
        findings = WallClockRule().check(fixture_tree)
        messages = [f.message for f in findings]
        assert len(findings) == 2  # time.time + perf_counter; monotonic waived
        assert any("time.time" in m for m in messages)
        assert any("time.perf_counter" in m for m in messages)
        assert all(f.symbol == "LeakyBlock.tick" for f in findings)

    def test_wallclock_waiver_respected(self, fixture_tree):
        findings = WallClockRule().check(fixture_tree)
        assert not any("time.monotonic" in f.message for f in findings)

    def test_unseeded_random_flagged_seeded_ok(self, fixture_tree):
        findings = UnseededRandomRule().check(fixture_tree)
        # exactly random.random() and random.randint(); the seeded
        # random.Random(42) instance on line 25 is not flagged
        assert sorted(f.line for f in findings) == [16, 17]

    def test_urandom_flagged(self, fixture_tree):
        findings = UrandomRule().check(fixture_tree)
        assert len(findings) == 1
        assert "os.urandom" in findings[0].message

    def test_set_iteration_flagged(self, fixture_tree):
        findings = SetIterationRule().check(fixture_tree)
        # attr bound to a set literal, set() constructor, {s} comprehension
        assert len(findings) == 3
        lines = {f.line for f in findings}
        text = fixture_tree.files[0].text.splitlines()
        for line in lines:  # every flagged line really iterates a set
            assert "DET004" in text[line - 1]


class TestScoping:
    def test_outside_sim_packages_ignored(self):
        tree = mount(("det_violations.py", "src/repro/analysis/figures.py"))
        assert WallClockRule().check(tree) == []
        assert SetIterationRule().check(tree) == []

    def test_telemetry_allowlisted_for_wallclock(self):
        # same wall-clock body mounted under the tracer is allowlisted
        tree = mount(("det_violations.py", "src/repro/telemetry/tracer.py"))
        assert WallClockRule().check(tree) == []

    def test_fabric_allowlisted_for_wallclock(self):
        # lease timers and heartbeats measure real elapsed time, so the
        # fabric package is wall-clock-allowlisted like telemetry/obs
        tree = mount(("det_violations.py", "src/repro/fabric/agent.py"))
        assert WallClockRule().check(tree) == []

    def test_sim_packages_still_fire_wallclock(self):
        # the fabric allowlist must not leak: the same body mounted
        # under a simulator package keeps firing DET001
        tree = mount(("det_violations.py", "src/repro/prefetch/agent.py"))
        findings = WallClockRule().check(tree)
        assert len(findings) == 2
        assert all(f.rule == "DET001" for f in findings)

    def test_datetime_now_flagged(self):
        # the datetime family of wall-clock reads is DET001's too
        tree = mount_text(
            "import datetime\n\n\n"
            "class StampingBlock:\n"
            "    def tick(self, now):\n"
            "        self.stamp = datetime.datetime.now()\n"
            "        self.day = datetime.date.today()\n",
            "src/repro/controller/stamp.py",
        )
        findings = WallClockRule().check(tree)
        assert [f.symbol for f in findings] == ["StampingBlock.tick"] * 2
        assert "datetime.datetime.now" in findings[0].message
        assert WallClockRule().check(mount_text(
            tree.files[0].text, "src/repro/analysis/stamp.py"
        )) == []

    def test_from_import_random_detected(self):
        tree = mount_text(
            "from random import randint\n"
            "def pick(n):\n"
            "    return randint(0, n)\n",
            "src/repro/dram/pick.py",
        )
        findings = UnseededRandomRule().check(tree)
        assert len(findings) == 1
        assert findings[0].symbol == "pick"


class TestFastsimScope:
    """repro.fastsim is in the determinism scope (docs/fidelity.md):
    the analytic model feeds the same stores and plots as the
    simulator, so every DET rule must fire on a violating fastsim
    module exactly as it does under repro/controller/."""

    @pytest.fixture(scope="class")
    def fastsim_tree(self):
        return mount(("det_violations.py", "src/repro/fastsim/model_bad.py"))

    def test_det001_wallclock_fires(self, fastsim_tree):
        findings = WallClockRule().check(fastsim_tree)
        assert len(findings) == 2
        assert all(f.rule == "DET001" for f in findings)

    def test_det002_unseeded_random_fires(self, fastsim_tree):
        findings = UnseededRandomRule().check(fastsim_tree)
        assert sorted(f.line for f in findings) == [16, 17]
        assert all(f.rule == "DET002" for f in findings)

    def test_det003_urandom_fires(self, fastsim_tree):
        findings = UrandomRule().check(fastsim_tree)
        assert len(findings) == 1
        assert findings[0].rule == "DET003"

    def test_det004_set_iteration_fires(self, fastsim_tree):
        findings = SetIterationRule().check(fastsim_tree)
        assert len(findings) == 3
        assert all(f.rule == "DET004" for f in findings)


class TestRealTreeClean:
    @pytest.mark.parametrize(
        "rule_cls",
        [WallClockRule, UnseededRandomRule, UrandomRule, SetIterationRule],
    )
    def test_simulator_packages_pass(self, rule_cls):
        findings = rule_cls().check(real_tree())
        assert findings == [], [f.render() for f in findings]


class TestScenariosScope:
    """repro.scenarios is in the determinism scope: the fuzzer's
    contract is "same seed, same worst cases" and the trace loaders
    feed store-keyed benchmarks, so every DET rule must fire on a
    violating scenarios module exactly as under repro/controller/."""

    @pytest.fixture(scope="class")
    def scenarios_tree(self):
        return mount(("det_violations.py", "src/repro/scenarios/fuzzer_bad.py"))

    def test_det001_wallclock_fires(self, scenarios_tree):
        findings = WallClockRule().check(scenarios_tree)
        assert len(findings) == 2
        assert all(f.rule == "DET001" for f in findings)

    def test_det002_unseeded_random_fires(self, scenarios_tree):
        findings = UnseededRandomRule().check(scenarios_tree)
        assert sorted(f.line for f in findings) == [16, 17]
        assert all(f.rule == "DET002" for f in findings)

    def test_det003_urandom_fires(self, scenarios_tree):
        findings = UrandomRule().check(scenarios_tree)
        assert len(findings) == 1
        assert findings[0].rule == "DET003"

    def test_det004_set_iteration_fires(self, scenarios_tree):
        findings = SetIterationRule().check(scenarios_tree)
        assert len(findings) == 3
        assert all(f.rule == "DET004" for f in findings)
