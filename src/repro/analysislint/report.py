"""Reporters: human-readable text and machine-readable JSON.

Both render the same :class:`~repro.analysislint.runner.LintResult`;
the text form is what CI prints on failure, the JSON form is for
tooling (and for the unit tests, which assert on structure instead of
scraping text).  Besides the findings, both carry ``stale_waivers``
(``# lint:`` comments that suppressed nothing — suppressions must not
rot silently), which never affect the exit code.
"""

from __future__ import annotations

import json
from typing import List, Sequence, Tuple

from repro.analysislint.core import Finding

#: (relpath, line, waiver token) of one stale ``# lint:`` comment.
StaleWaiver = Tuple[str, int, str]


def _sorted(findings: List[Finding]) -> List[Finding]:
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule, f.message))


def render_text(
    findings: List[Finding],
    checked_files: int,
    stale_waivers: Sequence[StaleWaiver],
) -> str:
    """The human report: findings, then stale waivers, then a summary."""
    lines = [finding.render() for finding in _sorted(findings)]
    if stale_waivers:
        lines.append("")
        lines.append(
            "stale waivers (suppressing nothing any more — remove them):"
        )
        for relpath, line, token in sorted(stale_waivers):
            lines.append(f"  {relpath}:{line}: # lint: {token}")
    lines.append("")
    lines.append(
        f"analysislint: {checked_files} files, "
        f"{len(findings)} new finding(s), "
        f"{len(stale_waivers)} stale waiver(s)"
    )
    return "\n".join(lines)


def render_json(
    findings: List[Finding],
    checked_files: int,
    stale_waivers: Sequence[StaleWaiver],
) -> str:
    """Machine-readable report: files scanned, findings, stale waivers."""
    payload = {
        "files": checked_files,
        "new": [f.as_dict() for f in _sorted(findings)],
        "stale_waivers": [
            {"path": relpath, "line": line, "token": token}
            for relpath, line, token in sorted(stale_waivers)
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
