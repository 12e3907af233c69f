"""Lint infrastructure: the run verdict, stale waivers, fixture mounting.

These pin that any finding fails a run, the stale-waiver reporting of
full-catalogue runs, and the virtual-path mounting the rule-family
tests are built on.
"""

import os

from repro.analysislint.runner import run_lint
from tests.unit._lint_util import FIXTURES, mount, mount_text

#: a single seeded DET001 violation (wall-clock read in a sim package)
CLOCK_SRC = "import time\n\n\ndef now_cycles():\n    return time.time()\n"


def seed_repo(tmp_path, files):
    """A minimal repo root holding the given files."""
    root = str(tmp_path)
    for relpath, text in files.items():
        path = os.path.join(root, relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return root


class TestRunLint:
    def test_a_finding_fails_the_run(self, tmp_path):
        root = seed_repo(tmp_path, {"src/repro/controller/clock.py": CLOCK_SRC})
        result = run_lint(root=root)
        assert not result.ok
        assert [f.rule for f in result.findings] == ["DET001"]
        assert "1 new finding(s)" in result.render()


class TestStaleWaivers:
    def test_unused_waiver_reported(self, tmp_path):
        root = seed_repo(
            tmp_path,
            {"src/repro/controller/noop.py": "x = 1  # lint: resource-ok\n"},
        )
        result = run_lint(root=root)
        assert result.stale_waivers == [
            ("src/repro/controller/noop.py", 1, "resource-ok")
        ]
        assert "stale waiver" in result.render()

    def test_used_waiver_not_reported(self, tmp_path):
        root = seed_repo(
            tmp_path,
            {
                "src/repro/controller/clock.py": CLOCK_SRC.replace(
                    "return time.time()",
                    "return time.time()  # lint: waive=DET001",
                )
            },
        )
        result = run_lint(root=root)
        assert result.ok  # the waiver suppressed the finding...
        assert result.stale_waivers == []  # ...so it is not stale

    def test_narrowed_rule_runs_skip_collection(self, tmp_path):
        from repro.analysislint.determinism import WallClockRule

        root = seed_repo(
            tmp_path,
            {"src/repro/controller/noop.py": "x = 1  # lint: resource-ok\n"},
        )
        result = run_lint(root=root, rules=[WallClockRule()])
        assert result.stale_waivers == []

    def test_prose_mentioning_the_syntax_is_not_a_waiver(self):
        tree = mount_text(
            "#: docs may say ``# lint: resource-ok`` without waiving\n" "x = 1\n",
            "src/repro/fabric/docsy.py",
        )
        assert tree.files[0].waivers == {}


class TestFixtureMounting:
    def test_every_fixture_parses_and_mounts(self):
        names = sorted(
            name
            for name in os.listdir(FIXTURES)
            if name.endswith(".py") and name != "__init__.py"
        )
        assert names, "lint_fixtures directory is empty?"
        for name in names:
            tree = mount((name, f"src/repro/controller/{name}"))
            assert tree.files[0].relpath == f"src/repro/controller/{name}"

    def test_mounted_relpath_drives_package_scoping(self):
        tree = mount(("det_violations.py", "src/repro/dram/det_violations.py"))
        assert tree.in_packages({"dram"}) == tree.files
        assert tree.in_packages({"fabric"}) == []

    def test_mount_text_root_override(self, tmp_path):
        tree = mount_text("x = 1\n", "src/repro/obs/t.py", root=str(tmp_path))
        assert tree.root == str(tmp_path)
        assert tree.get("src/repro/obs/t.py") is not None
