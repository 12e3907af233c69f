"""AST walker core: source loading, waiver comments, findings.

Everything downstream of this module works on :class:`SourceFile`
objects — a parsed AST plus the waiver/pragma comments extracted from
the token stream — grouped into a :class:`SourceTree`.  Rules never
re-read files or re-tokenize; they receive the shared parsed form.

Waiver syntax (one comment, applies to its own line; for function-level
waivers, to the ``def`` line)::

    x = compute()  # lint: no-integral
    y = table[k]   # lint: stats-dynamic
    z = set(...)   # lint: waive=DET004

Pragmas declare facts the AST cannot express::

    # lint: stat-prefixes(lat_sum_, lat_cnt_)

declares the dynamic stat-key prefixes a file writes, for the REG rules.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.analysislint.statsmodel import StatsUsage

#: ``# lint: token`` — token may be a bare word, ``waive=RULE``, or a
#: ``name(arg, arg)`` pragma.  Anchored to the *start* of the comment
#: so prose that merely mentions the syntax is never parsed as a
#: waiver (which would then be reported as stale).
_LINT_COMMENT = re.compile(r"^#\s*lint:\s*(.+?)\s*$")
_PRAGMA = re.compile(r"^(?P<name>[\w-]+)\s*\(\s*(?P<args>[^)]*)\)\s*$")


@dataclass(frozen=True)
class Waiver:
    """One ``# lint:`` comment."""

    line: int
    token: str  # e.g. "no-integral", "waive=CYC001"

    def waives(self, rule_id: str, shorthand: Optional[str] = None) -> bool:
        """Does this waiver suppress ``rule_id`` findings on its line?"""
        if self.token == f"waive={rule_id}":
            return True
        return shorthand is not None and self.token == shorthand


@dataclass(frozen=True)
class Pragma:
    """One ``# lint: name(args)`` declaration."""

    line: int
    name: str
    args: Tuple[str, ...]


@dataclass
class Finding:
    """One rule violation, structured for both reporters.

    ``symbol`` is the enclosing class/function qualname (or the module
    itself) — it anchors the fingerprint, so a finding keeps its
    identity through unrelated line drift in the file.
    """

    rule: str
    path: str  # repo-relative, forward slashes
    line: int
    message: str
    symbol: str = ""
    waiver_hint: str = ""

    def fingerprint(self) -> str:
        """Line- and path-free identity, carried in the JSON report.

        Excludes ``path`` as well as ``line``, so two reports compare
        across unrelated edits and file moves.  ``symbol``
        (class/function qualname) plus the message text is unique
        enough in practice.
        """
        return f"{self.rule}::{self.symbol}::{self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
            "waiver": self.waiver_hint,
            "fingerprint": self.fingerprint(),
        }

    def render(self) -> str:
        loc = f"{self.path}:{self.line}"
        text = f"{loc}: {self.rule} [{self.symbol}] {self.message}"
        if self.waiver_hint:
            text += f"  (waive: # lint: {self.waiver_hint})"
        return text


class SourceFile:
    """One parsed module: AST, waivers, pragmas, and the parent map."""

    def __init__(self, path: str, relpath: str, text: str) -> None:
        self.path = path
        self.relpath = relpath.replace(os.sep, "/")
        self.text = text
        self.tree = ast.parse(text, filename=path)
        self.waivers: Dict[int, List[Waiver]] = {}
        self.pragmas: List[Pragma] = []
        #: ``(line, token)`` of every waiver that suppressed something
        #: this run — the complement feeds stale-waiver reporting.
        self.used_waivers: Set[Tuple[int, str]] = set()
        #: the file's Stats key uses, scanned once per file by
        #: :func:`~repro.analysislint.statsmodel.scan_stats_usage`
        self.stats_usage: Optional["StatsUsage"] = None
        self._collect_comments(text)
        #: child AST node -> parent, for symbol/qualname resolution
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    # -- comments -----------------------------------------------------
    def _collect_comments(self, text: str) -> None:
        try:
            tokens = tokenize.generate_tokens(io.StringIO(text).readline)
            comments = [
                (tok.start[0], tok.string)
                for tok in tokens
                if tok.type == tokenize.COMMENT
            ]
        except tokenize.TokenError:  # pragma: no cover - parse succeeded
            comments = []
        for line, comment in comments:
            match = _LINT_COMMENT.search(comment)
            if not match:
                continue
            token = match.group(1)
            pragma = _PRAGMA.match(token)
            if pragma:
                args = tuple(
                    a.strip() for a in pragma.group("args").split(",") if a.strip()
                )
                self.pragmas.append(Pragma(line, pragma.group("name"), args))
            else:
                self.waivers.setdefault(line, []).append(Waiver(line, token))

    def waived(
        self, node_or_line, rule_id: str, shorthand: Optional[str] = None
    ) -> bool:
        """Is there a waiver for ``rule_id`` on this node's line?

        Accepts an AST node (its ``lineno`` is used; for multi-line
        statements every line the node spans is checked) or an int.
        """
        if isinstance(node_or_line, int):
            lines: Iterable[int] = (node_or_line,)
        else:
            end = getattr(node_or_line, "end_lineno", None) or node_or_line.lineno
            lines = range(node_or_line.lineno, end + 1)
        for line in lines:
            for waiver in self.waivers.get(line, ()):
                if waiver.waives(rule_id, shorthand):
                    self.used_waivers.add((waiver.line, waiver.token))
                    return True
        return False

    def unused_waivers(self) -> List[Waiver]:
        """Waivers that suppressed nothing in the rules run so far.

        Only meaningful after the *full* catalogue ran (a narrowed rule
        set would mark everything else's waivers stale)."""
        out = []
        for line in sorted(self.waivers):
            for waiver in self.waivers[line]:
                if (waiver.line, waiver.token) not in self.used_waivers:
                    out.append(waiver)
        return out

    # -- structure ----------------------------------------------------
    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def qualname(self, node: ast.AST) -> str:
        """Dotted class/function path enclosing ``node`` (module = '')."""
        parts: List[str] = []
        current: Optional[ast.AST] = node
        while current is not None:
            if isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                parts.append(current.name)
            current = self._parents.get(current)
        return ".".join(reversed(parts))

    def functions(self) -> List[ast.FunctionDef]:
        """Every (sync) function/method definition in the module."""
        return [
            node
            for node in ast.walk(self.tree)
            if isinstance(node, ast.FunctionDef)
        ]

    def classes(self) -> List[ast.ClassDef]:
        return [
            node for node in ast.walk(self.tree) if isinstance(node, ast.ClassDef)
        ]


@dataclass
class SourceTree:
    """Every scanned :class:`SourceFile`, addressable by relpath."""

    root: str
    files: List[SourceFile] = field(default_factory=list)

    def __iter__(self):
        return iter(self.files)

    def get(self, relpath: str) -> Optional[SourceFile]:
        relpath = relpath.replace(os.sep, "/")
        for f in self.files:
            if f.relpath == relpath:
                return f
        return None

    def in_packages(self, packages: Set[str]) -> List[SourceFile]:
        """Files under ``src/repro/<pkg>/`` (or ``src/repro/<pkg>.py``)
        for any named package/module."""
        out = []
        for f in self.files:
            parts = f.relpath.split("/")
            try:
                idx = parts.index("repro")
            except ValueError:
                continue
            if len(parts) <= idx + 1:
                continue
            head = parts[idx + 1]
            if head.endswith(".py"):
                head = head[:-3]
            if head in packages:
                out.append(f)
        return out


def load_tree(
    root: str,
    paths: Optional[Iterable[str]] = None,
    skip: Iterable[str] = (),
) -> SourceTree:
    """Parse every ``.py`` file under ``paths`` (default ``src/repro``)
    except the absolute paths in ``skip``.

    Files are visited in sorted order so every report is deterministic.
    """
    if paths is None:
        paths = [os.path.join(root, "src", "repro")]
    tree = SourceTree(root=root)
    seen: Set[str] = set(skip)
    for path in paths:
        path = os.path.abspath(path)
        if os.path.isfile(path):
            candidates = [path]
        else:
            candidates = []
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d != "__pycache__"
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        candidates.append(os.path.join(dirpath, name))
        for filepath in candidates:
            if filepath in seen:
                continue
            seen.add(filepath)
            relpath = os.path.relpath(filepath, root)
            with open(filepath, "r", encoding="utf-8") as handle:
                text = handle.read()
            tree.files.append(SourceFile(filepath, relpath, text))
    return tree


# ---------------------------------------------------------------------
# small AST helpers shared by the rules
# ---------------------------------------------------------------------
def call_name(node: ast.Call) -> str:
    """Dotted name of a call target ('time.perf_counter', 'bump', ...)."""
    return dotted_name(node.func)


def dotted_name(node: ast.AST) -> str:
    """Best-effort dotted rendering of a Name/Attribute chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif isinstance(node, ast.Call):
        inner = dotted_name(node.func)
        parts.append(f"{inner}()" if inner else "()")
    elif parts:
        parts.append("?")
    return ".".join(reversed(parts))
