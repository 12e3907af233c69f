"""Lint configuration: the ``[tool.repro.lint]`` block in pyproject.toml.

Rule scoping used to be hardcoded module constants (``SIM_PACKAGES``,
``WALLCLOCK_ALLOWLIST``).  With the CONC and ATO rules each wanting
their own package scope, the knobs live in pyproject.toml:

* ``[tool.repro.lint.scope]`` — package lists per rule family
  (``sim_packages``, ``fleet_packages``, ``atomic_packages``)
* ``[tool.repro.lint.allow]`` — path-substring allowlists
  (``wallclock`` replaces the old ``WALLCLOCK_ALLOWLIST``)
* ``[tool.repro.lint.severity]`` — per-rule ``"error"`` (default),
  ``"warn"`` (reported, never fails ``--check``) or ``"off"``

The in-code defaults below are *identical* to the committed pyproject
values, so the linter behaves the same when run against a tree that has
no pyproject at all (narrowed-path runs, mounted fixture trees).

``tomllib`` only exists on Python 3.11+ while the repo supports 3.10;
:func:`_parse_toml_subset` is a fallback parser for the small TOML
subset this block actually uses (tables, strings, ints, booleans,
single-line string arrays).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

try:  # Python 3.11+
    import tomllib as _tomllib  # type: ignore[import-not-found]
except ImportError:  # pragma: no cover - exercised on 3.10 CI
    _tomllib = None

__all__ = ["DEFAULT_CONFIG", "LintConfig", "load_config"]

SEVERITIES = ("error", "warn", "off")


@dataclass(frozen=True)
class LintConfig:
    """Effective lint options (defaults overlaid with pyproject)."""

    # rule-family package scopes; package = first path segment after
    # ``repro/`` (SourceTree.in_packages semantics)
    sim_packages: Tuple[str, ...] = (
        "cache",
        "controller",
        "cpu",
        "dram",
        "fastsim",
        "prefetch",
        "scenarios",
        "system",
    )
    fleet_packages: Tuple[str, ...] = ("fabric", "obs")
    atomic_packages: Tuple[str, ...] = (
        "experiments",
        "fabric",
        "obs",
        "scenarios",
    )
    # path substrings where wall-clock access is legitimate
    wallclock_allowlist: Tuple[str, ...] = (
        "repro/telemetry/",
        "repro/perf.py",
        "repro/obs/",
        "repro/fabric/",
    )
    # rule id -> "error" | "warn" | "off"; unlisted rules are errors
    severity: Mapping[str, str] = field(default_factory=dict)

    def rule_severity(self, rule_id: str) -> str:
        return self.severity.get(rule_id, "error")


DEFAULT_CONFIG = LintConfig()


_TABLE_RE = re.compile(r"^\[(?P<name>[\w.\-]+)\]\s*$")
_KEY_RE = re.compile(r"^(?P<key>[\w\-]+)\s*=\s*(?P<value>.+?)\s*$")
_STR_RE = re.compile(r'^(?:"(?P<dq>[^"]*)"|\'(?P<sq>[^\']*)\')$')


def _parse_scalar(text: str) -> Any:
    match = _STR_RE.match(text)
    if match:
        return match.group("dq") if match.group("dq") is not None else match.group("sq")
    if text in ("true", "false"):
        return text == "true"
    if re.match(r"^-?\d+$", text):
        return int(text)
    raise ValueError(f"unsupported TOML value: {text!r}")


def _parse_toml_subset(text: str) -> Dict[str, Any]:
    """Parse the tiny TOML subset the lint block uses (see module doc).

    Unparseable lines outside ``[tool.repro.lint*]`` tables are skipped
    so the rest of a real pyproject (multiline ruff arrays, etc.) can't
    trip the fallback; inside lint tables they raise.
    """
    root: Dict[str, Any] = {}
    current: Optional[Dict[str, Any]] = None
    current_is_lint = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip() if not raw.lstrip().startswith("#") else ""
        # keep '#' inside quoted strings intact
        if raw.strip() and not raw.lstrip().startswith("#"):
            stripped = raw.strip()
            if '"' in stripped or "'" in stripped:
                line = stripped
        if not line:
            continue
        table = _TABLE_RE.match(line)
        if table:
            parts = table.group("name").split(".")
            node = root
            for part in parts:
                node = node.setdefault(part, {})
            current = node
            current_is_lint = table.group("name").startswith("tool.repro.lint")
            continue
        if current is None or not current_is_lint:
            continue
        kv = _KEY_RE.match(line)
        if not kv:
            raise ValueError(f"unparseable lint config line: {raw!r}")
        key, value = kv.group("key"), kv.group("value")
        if value.startswith("["):
            if not value.endswith("]"):
                raise ValueError(
                    f"lint config arrays must be single-line: {raw!r}"
                )
            inner = value[1:-1].strip()
            items: List[Any] = []
            if inner:
                for part in inner.split(","):
                    part = part.strip()
                    if part:
                        items.append(_parse_scalar(part))
            current[key] = items
        else:
            current[key] = _parse_scalar(value)
    return root


def _load_pyproject(path: str) -> Dict[str, Any]:
    with open(path, "rb") as fh:
        data = fh.read()
    if _tomllib is not None:
        return _tomllib.loads(data.decode("utf-8"))
    return _parse_toml_subset(data.decode("utf-8"))


def _as_tuple(value: Any, fallback: Tuple[str, ...]) -> Tuple[str, ...]:
    if isinstance(value, (list, tuple)) and all(
        isinstance(item, str) for item in value
    ):
        return tuple(value)
    return fallback


def load_config(root: Optional[str]) -> LintConfig:
    """Effective config for a repo rooted at ``root``.

    Missing file, missing block or malformed values fall back to
    :data:`DEFAULT_CONFIG` (which mirrors the committed pyproject).
    """
    if root is None:
        return DEFAULT_CONFIG
    path = os.path.join(root, "pyproject.toml")
    if not os.path.isfile(path):
        return DEFAULT_CONFIG
    try:
        doc = _load_pyproject(path)
    except (OSError, ValueError, UnicodeDecodeError):
        return DEFAULT_CONFIG
    lint = (
        doc.get("tool", {}).get("repro", {}).get("lint", {})
        if isinstance(doc, dict)
        else {}
    )
    if not isinstance(lint, dict) or not lint:
        return DEFAULT_CONFIG
    scope = lint.get("scope", {}) if isinstance(lint.get("scope"), dict) else {}
    allow = lint.get("allow", {}) if isinstance(lint.get("allow"), dict) else {}
    severity_raw = (
        lint.get("severity", {}) if isinstance(lint.get("severity"), dict) else {}
    )
    severity = {
        str(rule): str(level)
        for rule, level in severity_raw.items()
        if str(level) in SEVERITIES
    }
    return replace(
        DEFAULT_CONFIG,
        sim_packages=_as_tuple(
            scope.get("sim_packages"), DEFAULT_CONFIG.sim_packages
        ),
        fleet_packages=_as_tuple(
            scope.get("fleet_packages"), DEFAULT_CONFIG.fleet_packages
        ),
        atomic_packages=_as_tuple(
            scope.get("atomic_packages"), DEFAULT_CONFIG.atomic_packages
        ),
        wallclock_allowlist=_as_tuple(
            allow.get("wallclock"), DEFAULT_CONFIG.wallclock_allowlist
        ),
        severity=severity,
    )
