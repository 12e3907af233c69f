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

    def test_write_registry_is_a_no_op(self, tmp_path):
        """Regenerating the committed registry must not change it — the
        same invariant CI enforces with git diff --exit-code.  The
        original bytes are restored either way, so a stale registry
        fails every run until the regenerated file is committed."""
        registry = os.path.join(
            REPO_ROOT, "src", "repro", "common", "stat_keys.py"
        )
        with open(registry, "rb") as handle:
            before = handle.read()
        try:
            proc = _run("tools/lint.py", "--write-registry")
            assert proc.returncode == 0, proc.stdout + proc.stderr
            assert proc.stdout.split() == [
                "wrote", os.path.join("src", "repro", "common", "stat_keys.py")
            ]
            with open(registry, "rb") as handle:
                assert handle.read() == before, registry
        finally:
            with open(registry, "wb") as handle:
                handle.write(before)

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
        proc = _run(
            "tools/lint.py",
            "--check",
            "--baseline",
            str(tmp_path / "empty-baseline.json"),
            str(tmp_path / "src" / "repro"),
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "DET001" in proc.stdout


class TestReproLintSubcommand:
    def test_module_entry_point(self):
        proc = _run("-m", "repro", "lint", "--check")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 new finding(s)" in proc.stdout
