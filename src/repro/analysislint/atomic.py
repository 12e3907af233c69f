"""ATO001: result-store writes must be atomic (write-tmp-then-rename).

Every durable artifact in the fleet pipeline — store result files,
metric snapshots, flight-recorder post-mortems, converted traces — is
read back by *other* processes (workers, the coordinator, CI), so a
torn write is not a local bug, it poisons the whole fleet.  The repo
writes them all through one helper, ``repro.common.files.durable_write``::

    with durable_write(final_path) as fh:
        fh.write(payload)

which holds the idiom this rule recognises: ``tempfile.mkstemp`` beside
the target, a write-mode open of the temp file, ``os.replace`` onto
the target (the lighter ``tmp = path + ".tmp"`` variant passes too).
ATO001 flags any
write-mode ``open``/``os.fdopen``/``open_text``/``gzip.open`` in the
``ATOMIC_PACKAGES`` whose target does not flow into an
``os.replace``/``os.rename`` in the same function.  Append-mode opens
are exempt — append streams (JSONL logs) are their own idiom, not
store writes.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.analysislint.concurrency import walk_own
from repro.analysislint.core import Finding, SourceFile, SourceTree, call_name
from repro.analysislint.rules import ATOMIC_PACKAGES, Rule

#: openers whose result is a writable handle when the mode says so
_OPENERS = frozenset({"open", "fdopen", "open_text"})
_RENAMES = frozenset({"replace", "rename"})


def _write_mode(call: ast.Call) -> bool:
    """True when the call opens for (over)writing: mode contains
    ``w``/``x``/``+``.  Missing mode = read.  ``a`` (append) is exempt
    by design — see the module docstring."""
    mode: Optional[ast.expr] = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if not isinstance(mode, ast.Constant) or not isinstance(mode.value, str):
        return False
    return any(ch in mode.value for ch in "wx+")


class AtomicWriteRule(Rule):
    """ATO001: flag write-mode opens in atomic-scope packages whose
    written path never flows through ``os.replace``/``os.rename`` —
    readers of those artifacts must never observe a torn file."""

    id = "ATO001"
    title = "durable writes must go through write-tmp-then-os.replace"
    shorthand = "non-atomic-ok"

    def check(self, tree: SourceTree) -> List[Finding]:
        findings: List[Finding] = []
        for sf in tree.in_packages(ATOMIC_PACKAGES):
            for func in sf.functions():
                findings.extend(self._check_function(sf, func))
        return findings

    def _check_function(
        self, sf: SourceFile, func: ast.FunctionDef
    ) -> List[Finding]:
        writes: List[ast.Call] = []
        rename_src_names: Set[str] = set()
        rename_src_dumps: Set[str] = set()
        has_mkstemp = False
        for node in walk_own(func):
            if not isinstance(node, ast.Call):
                continue
            last = call_name(node).rsplit(".", 1)[-1]
            if last in _OPENERS and _write_mode(node):
                writes.append(node)
            elif last == "mkstemp":
                has_mkstemp = True
            elif last in _RENAMES and node.args:
                src = node.args[0]
                rename_src_dumps.add(ast.dump(src))
                if isinstance(src, ast.Name):
                    rename_src_names.add(src.id)
        if not writes:
            return []
        findings: List[Finding] = []
        has_rename = bool(rename_src_dumps)
        for call in writes:
            if sf.waived(call, self.id, self.shorthand):
                continue
            target = call.args[0] if call.args else None
            atomic = False
            if has_mkstemp and has_rename:
                # the fd/tmp pair from mkstemp feeds fdopen + replace
                atomic = True
            elif target is not None and has_rename:
                if isinstance(target, ast.Name) and target.id in rename_src_names:
                    atomic = True
                elif ast.dump(target) in rename_src_dumps:
                    atomic = True
            if atomic:
                continue
            where = ast.unparse(target) if target is not None else "<no path>"
            findings.append(
                self.finding(
                    sf.relpath,
                    call.lineno,
                    f"write-mode open of {where!r} is not followed by "
                    "os.replace of the written path — readers can observe "
                    "a torn file; use the mkstemp+os.replace idiom",
                    sf.qualname(call) or func.name,
                )
            )
        return findings
