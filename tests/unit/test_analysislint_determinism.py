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
        findings = sorted(WallClockRule().check(fixture_tree),
                          key=lambda f: f.line)
        messages = [f.message for f in findings]
        # time.time + perf_counter + the aliased bare clock(); monotonic
        # waived
        assert len(findings) == 3
        assert any("time.time" in m for m in messages)
        assert any("time.perf_counter" in m for m in messages)
        assert [f.symbol for f in findings] == ["LeakyBlock.tick"] * 2 + [
            "bare_clock"]
        # the alias is reported under the name it resolves to
        assert "time.perf_counter" in findings[2].message

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
        # analysis code and the perf harness timing the host read real
        # time legitimately: the DET rules scan only SIM_PACKAGES
        for path in ("src/repro/analysis/figures.py", "src/repro/perf.py",
                     "src/repro/obs/spans.py"):
            tree = mount(("det_violations.py", path))
            assert WallClockRule().check(tree) == [], path
            assert SetIterationRule().check(tree) == [], path

    def test_fabric_allowlisted_for_wallclock(self):
        # lease timers and heartbeats measure real elapsed time; the
        # fabric package is exempt because it lies outside SIM_PACKAGES
        tree = mount(("det_violations.py", "src/repro/fabric/agent.py"))
        assert WallClockRule().check(tree) == []

    def test_telemetry_fires_wallclock(self):
        # the probes sample mid-run, so telemetry is a sim package and
        # the same body mounted there fires DET001
        tree = mount(("det_violations.py",
                      "src/repro/telemetry/probes_bad.py"))
        findings = WallClockRule().check(tree)
        assert len(findings) == 3
        assert all(f.rule == "DET001" for f in findings)

    def test_sim_packages_still_fire_wallclock(self):
        # the fabric exemption must not leak: the same body mounted
        # under a simulator package keeps firing DET001
        tree = mount(("det_violations.py", "src/repro/prefetch/agent.py"))
        findings = WallClockRule().check(tree)
        assert len(findings) == 3
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

    def test_from_import_clock_aliases_resolved(self):
        tree = mount_text(
            "from datetime import datetime as dt\n"
            "from time import monotonic, time\n\n\n"
            "def stamp():\n"
            "    return dt.now(), monotonic(), time()\n",
            "src/repro/dram/stamp.py",
        )
        findings = WallClockRule().check(tree)
        assert sorted(f.message.split("(")[0] for f in findings) == [
            "wall-clock call datetime.datetime.now",
            "wall-clock call time.monotonic",
            "wall-clock call time.time",
        ]

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
        assert len(findings) == 3
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
        assert len(findings) == 3
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
