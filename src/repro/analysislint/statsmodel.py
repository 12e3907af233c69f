"""Static extraction of ``Stats`` counter-key usage.

The simulator bumps counters three ways, and all three must be visible
to the REG, PAR and CYC rules:

* through the API — ``self.stats.bump("key")`` / ``stats.set("key", v)``
  (including locally aliased bound methods, ``bump = self.stats.bump``);
* through the hot-path raw mapping — ``values["key"] += 1`` where
  ``values`` aliases ``self._stat_values = self.stats.raw()``;
* with dynamic keys — f-strings (``f"pb_hits_{cmd.provenance.value}"``)
  and precomputed tables (``values[k_sum] += latency``).

This module resolves those shapes per file into :class:`KeyUse`
records.  F-string keys whose every placeholder ranges over the
:class:`~repro.common.types.Provenance` enum are expanded into the full
literal key set; other f-strings contribute their literal head as a
*prefix*.  Keys the AST cannot bound at all are ``dynamic`` and must be
waived with ``# lint: stats-dynamic``, usually next to a
``# lint: stat-prefixes(...)`` pragma declaring what they produce.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysislint.core import SourceFile, dotted_name

#: Stats method names that write / read a counter key (first argument).
_WRITE_METHODS = {"bump", "set"}
_READ_METHODS = {"ratio"}  # both arguments are keys


def provenance_values() -> Tuple[str, ...]:
    """The Provenance enum's value strings, for f-string expansion."""
    from repro.common.types import Provenance

    return tuple(p.value for p in Provenance)


@dataclass
class KeyUse:
    """One syntactic site that writes or reads counter keys.

    ``kind``:
      * ``literal`` — ``keys`` holds every key this site can produce;
      * ``prefix`` — an f-string with unbounded placeholders; ``prefix``
        is its literal head;
      * ``dynamic`` — the key expression is statically opaque.
    """

    kind: str
    access: str  # "write" | "read"
    keys: Tuple[str, ...]
    prefix: Optional[str]
    line: int
    symbol: str
    relpath: str


@dataclass
class StatsUsage:
    """Everything one file does with Stats counters."""

    uses: List[KeyUse] = field(default_factory=list)
    merge_prefixes: Set[str] = field(default_factory=set)

    def writes(self) -> List[KeyUse]:
        return [u for u in self.uses if u.access == "write"]

    def reads(self) -> List[KeyUse]:
        return [u for u in self.uses if u.access == "read"]


class _FileScan(ast.NodeVisitor):
    """Single pass over one module, function-scope alias tracking."""

    def __init__(self, sf: SourceFile) -> None:
        self.sf = sf
        self.usage = StatsUsage()
        # attribute names (self.X) known to hold a Stats instance /
        # the raw() mapping, discovered in a module-wide pre-pass
        self.stats_attrs: Set[str] = {"stats"}
        self.raw_attrs: Set[str] = set()
        self._prov_values = provenance_values()
        # per-function alias environments (reset on function entry)
        self._local_stats: Set[str] = set()
        self._local_raw: Set[str] = set()
        self._local_methods: Dict[str, str] = {}  # name -> bump|set

    # -- pre-pass -----------------------------------------------------
    def prescan(self) -> None:
        for node in ast.walk(self.sf.tree):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Attribute):
                continue
            if self._is_stats_ctor(node.value):
                self.stats_attrs.add(target.attr)
            elif self._is_raw_call(node.value):
                self.raw_attrs.add(target.attr)

    @staticmethod
    def _is_stats_ctor(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "Stats"
        )

    def _is_raw_call(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "raw"
            and self._is_stats_expr(node.func.value)
        )

    # -- expression classification ------------------------------------
    def _is_stats_expr(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self._local_stats
        if isinstance(node, ast.Attribute):
            return node.attr in self.stats_attrs
        return self._is_stats_ctor(node)

    def _is_raw_expr(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self._local_raw
        if isinstance(node, ast.Attribute):
            return node.attr in self.raw_attrs
        return False

    # -- traversal ----------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        saved = (self._local_stats, self._local_raw, self._local_methods)
        self._local_stats = set()
        self._local_raw = set()
        self._local_methods = {}
        self.generic_visit(node)
        self._local_stats, self._local_raw, self._local_methods = saved

    visit_AsyncFunctionDef = visit_FunctionDef  # pragma: no cover

    def visit_Assign(self, node: ast.Assign) -> None:
        # alias tracking: locals bound to Stats objects, raw mappings,
        # or bound bump/set methods
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            value = node.value
            if self._is_stats_ctor(value) or self._is_stats_expr(value):
                self._local_stats.add(name)
            elif self._is_raw_call(value) or self._is_raw_expr(value):
                self._local_raw.add(name)
            elif (
                isinstance(value, ast.Attribute)
                and value.attr in _WRITE_METHODS
                and self._is_stats_expr(value.value)
            ):
                self._local_methods[name] = value.attr
        for target in node.targets:
            self._subscript_use(target, "write")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._subscript_use(node.target, "write")
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # plain loads: stats["key"] (Stats.__getitem__) or raw reads
        if isinstance(node.ctx, ast.Load) and (
            self._is_stats_expr(node.value) or self._is_raw_expr(node.value)
        ):
            self._record(node.slice, "read", node)
        self.generic_visit(node)

    def _subscript_use(self, target: ast.AST, access: str) -> None:
        if isinstance(target, ast.Subscript) and (
            self._is_raw_expr(target.value) or self._is_stats_expr(target.value)
        ):
            self._record(target.slice, access, target)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        method: Optional[str] = None
        if isinstance(func, ast.Attribute) and self._is_stats_expr(func.value):
            method = func.attr
        elif isinstance(func, ast.Name) and func.id in self._local_methods:
            method = self._local_methods[func.id]
        if method in _WRITE_METHODS and node.args:
            self._record(node.args[0], "write", node)
        elif method in _READ_METHODS and len(node.args) >= 2:
            self._record(node.args[0], "read", node)
            self._record(node.args[1], "read", node)
        elif method == "merge" and len(node.args) >= 2:
            prefix = node.args[1]
            if isinstance(prefix, ast.Constant) and isinstance(prefix.value, str):
                self.usage.merge_prefixes.add(prefix.value)
        elif method == "get" and node.args:
            # plain-dict .get on a stats mapping (RunResult.stats
            # snapshots, raw aliases): a read of the literal key
            if isinstance(node.args[0], ast.Constant):
                self._record(node.args[0], "read", node)
        self.generic_visit(node)

    # -- key recording -------------------------------------------------
    def _record(self, key_node: ast.AST, access: str, site: ast.AST) -> None:
        kind, keys, prefix = self._classify_key(key_node)
        if kind == "dynamic" and access == "read":
            # opaque reads cannot corrupt the key vocabulary; only opaque
            # writes demand a waiver + pragma
            return
        self.usage.uses.append(
            KeyUse(
                kind=kind,
                access=access,
                keys=keys,
                prefix=prefix,
                line=site.lineno,
                symbol=self.sf.qualname(site),
                relpath=self.sf.relpath,
            )
        )

    def _classify_key(
        self, node: ast.AST
    ) -> Tuple[str, Tuple[str, ...], Optional[str]]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return "literal", (node.value,), None
        if isinstance(node, ast.IfExp):
            # literal when every arm is (arms may nest further IfExps)
            body = self._classify_key(node.body)
            orelse = self._classify_key(node.orelse)
            if body[0] == orelse[0] == "literal":
                return "literal", body[1] + orelse[1], None
        if isinstance(node, ast.JoinedStr):
            return self._classify_fstring(node)
        return "dynamic", (), None

    def _classify_fstring(
        self, node: ast.JoinedStr
    ) -> Tuple[str, Tuple[str, ...], Optional[str]]:
        """Expand provenance-valued f-strings; head-prefix otherwise."""
        keys: List[str] = [""]
        head = ""
        head_open = True
        for part in node.values:
            if isinstance(part, ast.Constant):
                keys = [k + str(part.value) for k in keys]
                if head_open:
                    head += str(part.value)
                continue
            if not isinstance(part, ast.FormattedValue):  # pragma: no cover
                return "dynamic", (), None
            domain = self._field_domain(part.value)
            if domain is None:
                return ("prefix", (), head) if head else ("dynamic", (), None)
            keys = [k + v for k in keys for v in domain]
            head_open = False
        return "literal", tuple(keys), None

    def _field_domain(self, node: ast.AST) -> Optional[Tuple[str, ...]]:
        """Value domain of one f-string placeholder, if statically known.

        ``X.provenance.value`` (and ``prov.value`` over a Provenance
        iteration) ranges over the Provenance enum — the only enum the
        counter keys embed today.
        """
        dotted = dotted_name(node)
        if dotted.endswith(".value"):
            stem = dotted[: -len(".value")]
            if "provenance" in stem or stem.split(".")[-1] in ("prov", "provenance"):
                return self._prov_values
        return None


def scan_stats_usage(sf: SourceFile) -> StatsUsage:
    """Every Stats counter-key use site in one file, scanned once and
    shared by every rule that reads it."""
    if sf.stats_usage is None:
        scan = _FileScan(sf)
        scan.prescan()
        scan.visit(sf.tree)
        sf.stats_usage = scan.usage
    return sf.stats_usage
