"""Orchestration: scan -> rules -> report -> exit code.

This is the engine behind both front doors (``tools/lint.py`` and
``repro lint``).  ``run_lint`` is also the API the unit tests use, so
the CLI layers stay trivially thin.

Every finding fails ``--check`` until it is fixed or waived in place
with a ``# lint:`` comment.  A full-catalogue run additionally reports
*stale waivers*: ``# lint:`` comments that no longer suppress anything.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.analysislint.core import Finding, SourceTree, load_tree
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
    stale_waivers: List[StaleWaiver] = field(default_factory=list)

    @property
    def checked_files(self) -> int:
        return len(self.tree.files)

    @property
    def ok(self) -> bool:
        """No findings (stale waivers are reported, never fatal)."""
        return not self.findings

    def render(self, as_json: bool = False) -> str:
        render = render_json if as_json else render_text
        return render(self.findings, self.checked_files, self.stale_waivers)


def run_lint(
    root: Optional[str] = None,
    paths: Optional[Iterable[str]] = None,
    rules: Optional[Iterable[Rule]] = None,
) -> LintResult:
    """Run the catalogue (or ``rules``) over ``paths``.

    ``paths`` defaults to ``<root>/src/repro``; narrowing it narrows
    what every rule reports on.  REG003 still checks the narrowed
    files' reads against every writer under ``<root>/src/repro``.

    Passing an explicit ``rules`` iterable (tests, focused runs) skips
    stale-waiver collection, which is only meaningful against the full
    catalogue.
    """
    root = find_repo_root(root)
    tree = load_tree(root, list(paths) if paths else None)
    full_catalogue = rules is None
    findings: List[Finding] = []
    for rule in all_rules() if full_catalogue else rules:
        findings.extend(rule.check(tree))
    stale_waivers: List[StaleWaiver] = []
    if full_catalogue:
        for sf in tree:
            for waiver in sf.unused_waivers():
                stale_waivers.append((sf.relpath, waiver.line, waiver.token))
    return LintResult(tree=tree, findings=findings, stale_waivers=stale_waivers)


def build_parser(prog: str = "lint") -> argparse.ArgumentParser:
    """The analyzer's arguments, parsed by both front doors."""
    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "simulator-invariant static analysis (determinism, dual-path "
            "parity, cycle accounting, stat keys, lock discipline, atomic "
            "writes) — see docs/linting.md"
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
        help="exit nonzero on any finding",
    )
    parser.add_argument("--json", action="store_true", help="JSON report")
    parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="additionally write the JSON report to PATH (CI artifact)",
    )
    return parser


def main(argv: Optional[List[str]] = None, prog: str = "lint") -> int:
    """Shared CLI entry point (tools/lint.py and ``repro lint``)."""
    args = build_parser(prog).parse_args(argv)
    result = run_lint(paths=args.paths or None)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(result.render(as_json=True) + "\n")
    print(result.render(as_json=args.json))
    if args.check and not result.ok:
        return 1
    return 0
