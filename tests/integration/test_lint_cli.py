"""End-to-end runs of the lint front doors against the real repo.

These are the same invocations CI's lint job makes, so a failure here
reproduces the CI failure locally with pytest alone.
"""

import json
import os
import subprocess
import sys

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)


def _run(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.run(
        [sys.executable, *argv],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestToolsLint:
    def test_check_passes_on_the_repo(self):
        proc = _run("tools/lint.py", "--check")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 new finding(s)" in proc.stdout

    def test_json_report_is_parseable(self):
        proc = _run("tools/lint.py", "--json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        data = json.loads(proc.stdout)
        assert data["new"] == []
        assert data["files"] > 50

    def test_output_writes_json_artifact(self, tmp_path):
        """--output writes the JSON report to a file (the CI artifact)
        while stdout keeps the human-readable report."""
        artifact = tmp_path / "lint-report.json"
        proc = _run("tools/lint.py", "--check", "--output", str(artifact))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 new finding(s)" in proc.stdout  # stdout stays text
        data = json.loads(artifact.read_text())
        assert data["new"] == []
        assert data["stale_waivers"] == []
        assert data["files"] > 50

    def test_seeded_violation_fails_check(self, tmp_path):
        """--check must exit nonzero when pointed at code that violates
        an invariant (here: a det_violations fixture copied into a
        virtual sim package)."""
        bad_root = tmp_path / "src" / "repro" / "controller"
        bad_root.mkdir(parents=True)
        fixture = os.path.join(
            REPO_ROOT, "tests", "lint_fixtures", "det_violations.py"
        )
        with open(fixture, "r", encoding="utf-8") as handle:
            (bad_root / "leaky.py").write_text(handle.read())
        proc = _run("tools/lint.py", "--check", str(tmp_path / "src" / "repro"))
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "DET001" in proc.stdout


class TestNarrowedRuns:
    """A run narrowed to some paths reports only what is wrong in them:
    REG003 checks their reads against every writer in the repo."""

    def test_narrowed_packages_are_clean(self):
        for package in ("system", "controller"):
            proc = _run("tools/lint.py", "--check", f"src/repro/{package}")
            assert proc.returncode == 0, proc.stdout + proc.stderr
            assert "0 new finding(s)" in proc.stdout

    def test_seeded_typo_read_in_a_narrowed_file_is_reported(self, tmp_path):
        results = os.path.join(REPO_ROOT, "src", "repro", "system", "results.py")
        with open(results, "r", encoding="utf-8") as handle:
            text = handle.read()
        assert '"mc.delayed_regular"' in text
        seeded = tmp_path / "src" / "repro" / "system" / "results.py"
        seeded.parent.mkdir(parents=True)
        seeded.write_text(
            text.replace('"mc.delayed_regular"', '"mc.delayed_regualr"')
        )
        proc = _run("tools/lint.py", "--check", str(seeded.parent))
        assert proc.returncode == 1, proc.stdout + proc.stderr
        [finding] = [line for line in proc.stdout.splitlines() if ": REG" in line]
        assert "REG003" in finding and "mc.delayed_regualr" in finding
        assert "1 new finding(s)" in proc.stdout


class TestReproLintSubcommand:
    def test_module_entry_point(self):
        proc = _run("-m", "repro", "lint", "--check")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 new finding(s)" in proc.stdout
