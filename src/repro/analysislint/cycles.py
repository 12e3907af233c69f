"""CYC001 — every cycle-variable write must integrate skipped time.

PR 3's three fast-forward bugs were all one invariant: *every simulated
MC cycle — executed or jumped — must land in the ``ticks``/``occ_*``
per-cycle integrals exactly once*.  The bugs got in because advancing a
clock variable and accounting for the advance are separate statements
that refactors can split.

The rule: inside the simulated machine, any function that stores to a
cycle variable (a name or attribute spelled ``now``, ``cycle``, or
``_now``, or any ``+=``-style bulk advance whose right-hand side
mentions a skip/jump amount) must, in the same function, either

* write the ``ticks`` counter or an ``occ_*`` counter (through
  ``Stats.bump`` or the raw mapping), or
* call an accounting method (``tick``, ``tick_reference``,
  ``bulk_tick``, ``consume_wait``) — directly, on a
  sub-object, or through a local bound-method alias, or
* carry a ``# lint: no-integral`` waiver on the storing line or on its
  ``def`` line — the explicit claim that the function moves a clock
  without owning its accounting (pure queries that shadow ``now``
  locally, for example).

``__init__`` methods are exempt: zero-initialising a clock is not a
time advance.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set

from repro.analysislint.core import Finding, SourceFile, SourceTree
from repro.analysislint.rules import SIM_PACKAGES, Rule
from repro.analysislint.statsmodel import scan_stats_usage

#: Store targets treated as simulation clocks.
CYCLE_NAMES = {"now", "cycle", "_now"}

#: RHS names that mark an augmented assign as a bulk advance.
BULK_NAMES = {"skip", "skipped", "cycles", "jump", "ticks"}

#: Calling any of these discharges the integration obligation.
ACCOUNTING_METHODS = {
    "tick",
    "tick_reference",
    "bulk_tick",
    "consume_wait",
}

#: Stats keys that count as touching the per-cycle integrals.
INTEGRAL_KEY = "ticks"
INTEGRAL_PREFIX = "occ_"


def _target_cycle_name(target: ast.AST) -> str:
    if isinstance(target, ast.Name) and target.id in CYCLE_NAMES:
        return target.id
    if isinstance(target, ast.Attribute) and target.attr in CYCLE_NAMES:
        return target.attr
    return ""


def _mentions_bulk(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in BULK_NAMES:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in BULK_NAMES:
            return True
    return False


class CycleAccountingRule(Rule):
    """CYC001: a write to a cycle variable must integrate into the
    ``ticks``/``occ_*`` counters, delegate to an accounting method,
    or carry a ``# lint: no-integral`` waiver."""

    id = "CYC001"
    title = "cycle-variable writes must integrate into ticks/occ_*"
    shorthand = "no-integral"

    def check(self, tree: SourceTree) -> List[Finding]:
        findings: List[Finding] = []
        for sf in tree.in_packages(SIM_PACKAGES):
            findings.extend(self._check_file(sf))
        return findings

    def _check_file(self, sf: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        integral_writers = self._integral_writers(sf)
        for func in sf.functions():
            if func.name == "__init__":
                continue
            stores = self._cycle_stores(func)
            if not stores:
                continue
            qual = sf.qualname(func)
            if qual in integral_writers or self._calls_accounting(func):
                continue
            if sf.waived(func.lineno, self.id, self.shorthand):
                continue
            unwaived = [
                (line, name)
                for line, name in stores
                if not sf.waived(line, self.id, self.shorthand)
            ]
            if not unwaived:
                continue
            line, name = unwaived[0]
            findings.append(
                self.finding(
                    sf.relpath,
                    line,
                    f"writes cycle variable '{name}' but never touches the "
                    f"'{INTEGRAL_KEY}'/'{INTEGRAL_PREFIX}*' integrals nor "
                    "calls an accounting method "
                    f"({', '.join(sorted(ACCOUNTING_METHODS))})",
                    qual,
                )
            )
        return findings

    @staticmethod
    def _cycle_stores(func: ast.FunctionDef) -> List:
        """(line, varname) for each cycle-variable store in the body."""
        stores = []
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    name = _target_cycle_name(target)
                    if name:
                        stores.append((node.lineno, name))
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                name = _target_cycle_name(node.target)
                if name:
                    stores.append((node.lineno, name))
                elif isinstance(node, ast.AugAssign) and _mentions_bulk(
                    node.value
                ):
                    # `x += skip`-shaped bulk advance under another name
                    tgt = node.target
                    alt = (
                        tgt.id
                        if isinstance(tgt, ast.Name)
                        else tgt.attr
                        if isinstance(tgt, ast.Attribute)
                        else ""
                    )
                    if alt in ("t", "clock", "when"):
                        stores.append((node.lineno, alt))
        return stores

    @staticmethod
    def _integral_writers(sf: SourceFile) -> Set[str]:
        """Qualnames of functions that write ticks/occ_* keys."""
        writers: Set[str] = set()
        for use in scan_stats_usage(sf).writes():
            if use.kind == "literal" and any(
                k == INTEGRAL_KEY or k.startswith(INTEGRAL_PREFIX)
                for k in use.keys
            ):
                writers.add(use.symbol)
        return writers

    @staticmethod
    def _calls_accounting(func: ast.FunctionDef) -> bool:
        """Does the body call tick/bulk_tick/... (alias-aware)?"""
        aliases: Dict[str, str] = {}
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr in ACCOUNTING_METHODS
            ):
                aliases[node.targets[0].id] = node.value.attr
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            func_expr = node.func
            if (
                isinstance(func_expr, ast.Attribute)
                and func_expr.attr in ACCOUNTING_METHODS
            ):
                return True
            if isinstance(func_expr, ast.Name) and func_expr.id in aliases:
                return True
        return False
