"""REG rules — stat-key extraction and counter-typo detection.

``Stats`` is a stringly-typed counter bag: ``bump("pb_hits_caq")`` and
``bump("pb_hit_caq")`` both run fine, and the typo surfaces — if ever —
as a silently-zero column in some figure.  The key vocabulary is
whatever the writers produce, scanned fresh on every run: every
statically-knowable counter key (including Provenance-expanded
f-strings and ``# lint: stat-prefixes(...)`` pragma prefixes).  A new
counter is one reviewable ``bump(...)`` line in its diff.

* ``REG002`` — a write whose key expression is statically opaque must
  carry a ``# lint: stats-dynamic`` waiver (pair it with a
  ``stat-prefixes`` pragma declaring what the site produces).
* ``REG003`` — a *read* of a literal key that no writer produces is
  flagged as a probable typo.  Reads are checked after stripping the
  ``Stats.merge`` namespace prefixes (``mc.``, ``dram.``, ...) the
  system applies when folding per-block stats into a RunResult.  The
  writers are every module under ``<root>/src/repro`` plus the scanned
  files, so a narrowed run reports the reads in its own files only,
  against the same vocabulary as a full run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Set

from repro.analysislint.core import Finding, SourceFile, SourceTree, load_tree
from repro.analysislint.rules import Rule
from repro.analysislint.statsmodel import KeyUse, scan_stats_usage

#: Pragma that declares dynamic-key prefixes.
PREFIX_PRAGMA = "stat-prefixes"


@dataclass
class RegistryModel:
    """The key vocabulary the writers of some files produce."""

    keys: Set[str] = field(default_factory=set)
    prefixes: Set[str] = field(default_factory=set)
    merge_prefixes: Set[str] = field(default_factory=set)
    dynamic_writes: List[KeyUse] = field(default_factory=list)

    def produces(self, key: str) -> bool:
        """Does some writer produce ``key`` (after merge-prefix stripping)?"""

        def known(k: str) -> bool:
            return k in self.keys or any(k.startswith(p) for p in self.prefixes)

        return known(key) or any(
            key.startswith(merge) and known(key[len(merge):])
            for merge in self.merge_prefixes
        )


def build_registry(files: Iterable[SourceFile]) -> RegistryModel:
    """The vocabulary of every writer in ``files`` (a tree or a list)."""
    model = RegistryModel()
    for sf in files:
        usage = scan_stats_usage(sf)
        model.merge_prefixes.update(usage.merge_prefixes)
        for pragma in sf.pragmas:
            if pragma.name == PREFIX_PRAGMA:
                model.prefixes.update(pragma.args)
        for use in usage.writes():
            if use.kind == "literal":
                model.keys.update(use.keys)
            elif use.kind == "prefix" and use.prefix:
                model.prefixes.add(use.prefix)
            elif use.kind == "dynamic":
                model.dynamic_writes.append(use)
    return model


class DynamicKeyRule(Rule):
    """REG002: runtime-computed stat keys need a ``stats-dynamic`` waiver."""

    id = "REG002"
    title = "statically-opaque stat keys need an explicit waiver"
    shorthand = "stats-dynamic"

    def check(self, tree: SourceTree) -> List[Finding]:
        findings: List[Finding] = []
        for use in build_registry(tree).dynamic_writes:
            sf = tree.get(use.relpath)
            if sf is not None and sf.waived(use.line, self.id, self.shorthand):
                continue
            findings.append(
                self.finding(
                    use.relpath,
                    use.line,
                    "stat key is not statically extractable — waive with "
                    "'# lint: stats-dynamic' and declare its family via "
                    f"'# lint: {PREFIX_PRAGMA}(...)'",
                    use.symbol,
                )
            )
        return findings


class UnwrittenReadRule(Rule):
    """REG003: a read of a counter key no writer produces is a typo."""

    id = "REG003"
    title = "reads of counter keys no writer produces are typos"
    shorthand = "stats-read-ok"

    def check(self, tree: SourceTree) -> List[Finding]:
        rest = load_tree(tree.root, skip=[sf.path for sf in tree])
        writers = build_registry([*tree, *rest])
        findings: List[Finding] = []
        for sf in tree:
            for use in scan_stats_usage(sf).reads():
                if use.kind != "literal":
                    continue
                bad = sorted(key for key in use.keys if not writers.produces(key))
                if not bad or sf.waived(use.line, self.id, self.shorthand):
                    continue
                findings.append(
                    self.finding(
                        use.relpath,
                        use.line,
                        f"reads counter key(s) no writer produces: "
                        f"{', '.join(bad)} — probable typo",
                        use.symbol,
                    )
                )
        return findings
