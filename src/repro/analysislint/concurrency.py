"""CONC003: no blocking call while a lock is held.

The fleet layer (``repro.fabric``, ``repro.obs``) is the only part of
the tree that holds locks, and a blocking call (``sleep``, ``join``,
an HTTP request, ``serve_forever``, ``wait``, ...) made inside a
``with <lock>:`` body starves every other user of that lock.  It is a
timing hazard that no test triggers reliably, so it stays a static
check, with the PAR-style one-level ``self.X()`` helper expansion.

Thread lifecycles and resource release are checked at runtime instead:
the test suite fails on a ``ResourceWarning`` and on a non-daemon
thread a test leaves running (``pyproject.toml``, ``tests/conftest.py``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from repro.analysislint.core import (
    Finding,
    SourceFile,
    SourceTree,
    call_name,
    dotted_name,
)
from repro.analysislint.rules import FLEET_PACKAGES, Rule

#: call-name last segments that block the calling thread
BLOCKING_CALLS = frozenset(
    {
        "accept",
        "getresponse",
        "http_json",
        "join",
        "recv",
        "serve_forever",
        "sleep",
        "urlopen",
        "wait",
    }
)


def walk_own(root: ast.AST) -> Iterable[ast.AST]:
    """``ast.walk`` minus nested function/class bodies (each is checked
    as a function of its own)."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


class LockBlockingRule(Rule):
    """CONC003: no blocking call (sleep/join/HTTP/serve/wait) may run
    inside a ``with <lock>:`` body, looking one ``self._helper()``
    level deep — a blocked holder starves every other lock user."""

    id = "CONC003"
    title = "no blocking call (sleep/join/HTTP/serve/wait) while a lock is held"
    shorthand = "blocking-ok"

    def check(self, tree: SourceTree) -> List[Finding]:
        findings: List[Finding] = []
        for sf in tree.in_packages(FLEET_PACKAGES):
            for stmt in ast.walk(sf.tree):
                if not isinstance(stmt, (ast.With, ast.AsyncWith)):
                    continue
                lock_expr = self._lock_expr(stmt)
                if lock_expr is None:
                    continue
                if sf.waived(stmt.lineno, self.id, self.shorthand):
                    continue
                findings.extend(self._scan_body(sf, stmt, lock_expr))
        return findings

    @staticmethod
    def _lock_expr(stmt: ast.With) -> Optional[str]:
        for item in stmt.items:
            name = dotted_name(item.context_expr)
            last = name.rsplit(".", 1)[-1].lower()
            if "lock" in last:
                return name
        return None

    def _scan_body(
        self, sf: SourceFile, with_stmt: ast.With, lock_expr: str
    ) -> List[Finding]:
        findings: List[Finding] = []
        helper_bodies = self._helper_bodies(sf, with_stmt)
        seen_msgs: Set[str] = set()
        for body_stmt in with_stmt.body:
            for node in ast.walk(body_stmt):
                if not isinstance(node, ast.Call):
                    continue
                full = call_name(node)
                last = full.rsplit(".", 1)[-1]
                where: Optional[ast.AST] = None
                blocking = ""
                if last in BLOCKING_CALLS:
                    where, blocking = node, full
                elif (
                    isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "self"
                    and node.func.attr in helper_bodies
                ):
                    # one-level self-helper expansion (PAR idiom)
                    inner = self._first_blocking(helper_bodies[node.func.attr])
                    if inner is not None:
                        where, blocking = node, f"self.{node.func.attr}() -> {inner}"
                if where is None:
                    continue
                if sf.waived(where, self.id, self.shorthand):
                    continue
                message = (
                    f"blocking call '{blocking}' while holding "
                    f"'{lock_expr}'"
                )
                if message in seen_msgs:
                    continue
                seen_msgs.add(message)
                findings.append(
                    self.finding(
                        sf.relpath,
                        where.lineno,
                        message,
                        sf.qualname(where),
                    )
                )
        return findings

    @staticmethod
    def _helper_bodies(
        sf: SourceFile, with_stmt: ast.With
    ) -> Dict[str, ast.FunctionDef]:
        """Same-class methods callable as ``self.X()`` from this
        ``with`` body."""
        current = sf.parent(with_stmt)
        while current is not None and not isinstance(current, ast.ClassDef):
            current = sf.parent(current)
        if current is None:
            return {}
        return {
            item.name: item
            for item in current.body
            if isinstance(item, ast.FunctionDef)
        }

    @staticmethod
    def _first_blocking(func: ast.FunctionDef) -> Optional[str]:
        for node in walk_own(func):
            if isinstance(node, ast.Call):
                full = call_name(node)
                if full.rsplit(".", 1)[-1] in BLOCKING_CALLS:
                    return full
        return None
