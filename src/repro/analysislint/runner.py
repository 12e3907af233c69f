"""Orchestration: scan -> rules -> baseline -> report -> exit code.

This is the engine behind both front doors (``tools/lint.py`` and
``repro lint``).  ``run_lint`` is also the API the unit tests use, so
the CLI layers stay trivially thin.

Configuration comes from ``[tool.repro.lint]`` in pyproject.toml (rule
scoping, severity levels, allowlists — see
:mod:`repro.analysislint.config`); rules configured ``"off"`` are
skipped, rules configured ``"warn"`` report without failing
``--check``.  A full-catalogue run additionally reports *stale
waivers*: ``# lint:`` comments that no longer suppress anything.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.analysislint.baseline import (
    DEFAULT_BASELINE,
    BaselineSplit,
    load_baseline,
    save_baseline,
    split_against_baseline,
)
from repro.analysislint.config import LintConfig, load_config
from repro.analysislint.core import Finding, SourceTree, load_tree
from repro.analysislint.registry import write_registry
from repro.analysislint.report import StaleWaiver, render_json, render_text
from repro.analysislint.rules import Rule, all_rules


def find_repo_root(start: Optional[str] = None) -> str:
    """Nearest ancestor holding ``src/repro`` (fallback: cwd)."""
    path = os.path.abspath(start or os.getcwd())
    while True:
        if os.path.isdir(os.path.join(path, "src", "repro")):
            return path
        parent = os.path.dirname(path)
        if parent == path:
            return os.path.abspath(start or os.getcwd())
        path = parent


@dataclass
class LintResult:
    """Everything one lint run produced."""

    tree: SourceTree
    findings: List[Finding] = field(default_factory=list)
    split: BaselineSplit = field(default_factory=BaselineSplit)
    warnings: List[Finding] = field(default_factory=list)
    stale_waivers: List[StaleWaiver] = field(default_factory=list)

    @property
    def checked_files(self) -> int:
        return len(self.tree.files)

    @property
    def ok(self) -> bool:
        """No *new* findings (baselined and warn-level are tolerated)."""
        return not self.split.new

    def render(self, as_json: bool = False) -> str:
        if as_json:
            return render_json(
                self.split, self.checked_files, self.warnings, self.stale_waivers
            )
        return render_text(
            self.split, self.checked_files, self.warnings, self.stale_waivers
        )


def run_lint(
    root: Optional[str] = None,
    paths: Optional[Iterable[str]] = None,
    rules: Optional[Iterable[Rule]] = None,
    baseline_path: Optional[str] = None,
    update_baseline: bool = False,
    config: Optional[LintConfig] = None,
) -> LintResult:
    """Run the full pass and partition findings against the baseline.

    ``paths`` defaults to ``<root>/src/repro``; narrowing it narrows
    every per-file rule but the registry rules always compare against
    the committed stat-key registry, so partial scans of files that
    define counters will report registry drift — run on the full tree
    for authoritative results.

    Passing an explicit ``rules`` iterable (tests, focused runs)
    bypasses severity filtering *and* stale-waiver collection — both
    are only meaningful against the full catalogue.
    """
    root = find_repo_root(root)
    config = config if config is not None else load_config(root)
    tree = load_tree(root, list(paths) if paths else None)
    full_catalogue = rules is None
    if full_catalogue:
        active: List[Rule] = [
            rule
            for rule in all_rules(config)
            if config.rule_severity(rule.id) != "off"
        ]
    else:
        active = list(rules)
    findings: List[Finding] = []
    warnings: List[Finding] = []
    for rule in active:
        produced = rule.check(tree)
        if full_catalogue and config.rule_severity(rule.id) == "warn":
            warnings.extend(produced)
        else:
            findings.extend(produced)
    stale_waivers: List[StaleWaiver] = []
    if full_catalogue:
        for sf in tree:
            for waiver in sf.unused_waivers():
                stale_waivers.append((sf.relpath, waiver.line, waiver.token))
    baseline_file = baseline_path or os.path.join(root, DEFAULT_BASELINE)
    if update_baseline:
        save_baseline(baseline_file, findings)
    split = split_against_baseline(findings, load_baseline(baseline_file))
    return LintResult(
        tree=tree,
        findings=findings,
        split=split,
        warnings=warnings,
        stale_waivers=stale_waivers,
    )


def regenerate_registry(root: Optional[str] = None) -> List[str]:
    """Rewrite the generated stat-key registry
    (``repro/common/stat_keys.py``) from a fresh scan; returns the
    written paths."""
    root = find_repo_root(root)
    return [write_registry(load_tree(root), root)]


def build_parser(prog: str = "lint") -> argparse.ArgumentParser:
    """The analyzer's arguments, parsed by both front doors."""
    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "simulator-invariant static analysis (determinism, dual-path "
            "parity, cycle accounting, the stat-key registry, lock "
            "discipline, atomic writes) — see docs/linting.md"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to scan (default: src/repro)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero on any new (non-baselined) finding",
    )
    parser.add_argument("--json", action="store_true", help="JSON report")
    parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="additionally write the JSON report to PATH (CI artifact)",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help=f"baseline file (default {DEFAULT_BASELINE} at the repo root)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to grandfather every current finding",
    )
    parser.add_argument(
        "--write-registry",
        action="store_true",
        help="regenerate the stat-key registry and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None, prog: str = "lint") -> int:
    """Shared CLI entry point (tools/lint.py and ``repro lint``)."""
    args = build_parser(prog).parse_args(argv)

    root = find_repo_root()
    if args.write_registry:
        for path in regenerate_registry(root):
            print(f"wrote {os.path.relpath(path, root)}")
        return 0

    result = run_lint(
        root=root,
        paths=args.paths or None,
        baseline_path=args.baseline,
        update_baseline=args.update_baseline,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(result.render(as_json=True) + "\n")
    print(result.render(as_json=args.json))
    if args.check and not result.ok:
        return 1
    return 0
