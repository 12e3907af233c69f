"""PAR rules — the event-driven and reference tick paths must agree.

The main loop has two paths: ``tick`` is the guarded/hot path,
``tick_reference`` the literal per-cycle oracle.  The golden equality
tests prove *behavioural* equality on the suites they run; these rules
prove *structural* equality on every class that defines both paths, so
a refactor that adds a counter to one body and not the other is caught
at lint time, before any golden test runs:

* ``PAR001`` — both paths must write the same statically-extractable
  set of stats keys;
* ``PAR003`` — ``bulk_tick`` (a fast-forward window) must write the
  same per-cycle integrals as ``tick``.

The event path of a class that defines ``settle_integrals`` is ``tick``
plus that method: ``tick`` leaves the ``ticks``/``occ_*`` integrals to
the queue mutations and ``settle_integrals`` writes them from the
clock, while ``tick_reference`` bumps them every cycle.  So a settle
method that forgets one integral the reference path keeps is caught.

Both checks look one call level deep within the class: a key bumped by
``self._reorder_to_caq`` counts for whichever body calls it, so shared
helpers do not create false divergence, and moving a write into a
helper used by only one path is still caught.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set, Tuple

from repro.analysislint.core import Finding, SourceFile, SourceTree
from repro.analysislint.rules import Rule
from repro.analysislint.statsmodel import scan_stats_usage

#: The dual-path method pair this rule keys on.
PAIR = ("tick", "tick_reference")

#: The fast-forward pair PAR003 keys on.
BULK_PAIR = ("tick", "bulk_tick")

#: The method that settles the integrals ``tick`` no longer writes;
#: PAR001 counts it on ``tick``'s side of :data:`PAIR`.
SETTLE = "settle_integrals"


def _class_pairs(
    sf: SourceFile, pair: Tuple[str, str] = PAIR
) -> List[Tuple[ast.ClassDef, Dict[str, ast.FunctionDef]]]:
    """Classes defining both paths of ``pair``, with full method tables."""
    out = []
    for cls in sf.classes():
        methods = {
            node.name: node
            for node in cls.body
            if isinstance(node, ast.FunctionDef)
        }
        if all(name in methods for name in pair):
            out.append((cls, methods))
    return out


def called_self_methods(func: ast.FunctionDef) -> Set[str]:
    """Names of ``self.X(...)`` calls plus locally aliased bound methods
    (``f = self.X`` followed by ``f(...)``)."""
    aliases: Dict[str, str] = {}
    called: Set[str] = set()
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "self"
        ):
            aliases[node.targets[0].id] = node.value.attr
        if isinstance(node, ast.Call):
            func_expr = node.func
            if (
                isinstance(func_expr, ast.Attribute)
                and isinstance(func_expr.value, ast.Name)
                and func_expr.value.id == "self"
            ):
                called.add(func_expr.attr)
            elif isinstance(func_expr, ast.Name) and func_expr.id in aliases:
                called.add(aliases[func_expr.id])
    return called


class _PairAnalysis:
    """Per-class stats-key sets for both paths, shared by PAR001/3."""

    def __init__(
        self,
        sf: SourceFile,
        cls: ast.ClassDef,
        methods: Dict[str, ast.FunctionDef],
        pair: Tuple[str, str] = PAIR,
    ) -> None:
        self.sf = sf
        self.cls = cls
        usage = scan_stats_usage(sf)
        # literal keys written per method qualname
        key_writes: Dict[str, Set[str]] = {}
        for use in usage.writes():
            if use.kind != "literal":
                continue
            key_writes.setdefault(use.symbol, set()).update(use.keys)
        self.keys: Dict[str, Set[str]] = {}
        for name in pair:
            bodies = [name]
            if pair == PAIR and name == PAIR[0] and SETTLE in methods:
                bodies.append(SETTLE)
            keys: Set[str] = set()
            for body in bodies:
                func = methods[body]
                keys.update(key_writes.get(sf.qualname(func), ()))
                for callee_name in called_self_methods(func):
                    callee = methods.get(callee_name)
                    if callee is None:
                        continue
                    keys.update(key_writes.get(sf.qualname(callee), ()))
            self.keys[name] = keys


def _analyses(
    tree: SourceTree, pair: Tuple[str, str] = PAIR
) -> List[_PairAnalysis]:
    out = []
    for sf in tree:
        for cls, methods in _class_pairs(sf, pair):
            out.append(_PairAnalysis(sf, cls, methods, pair))
    return out


def _describe_divergence(
    a: Set[str], b: Set[str], pair: Tuple[str, str] = PAIR
) -> str:
    only_a = sorted(a - b)
    only_b = sorted(b - a)
    parts = []
    if only_a:
        parts.append(f"only in {pair[0]}: {', '.join(only_a)}")
    if only_b:
        parts.append(f"only in {pair[1]}: {', '.join(only_b)}")
    return "; ".join(parts)


class StatsParityRule(Rule):
    """PAR001: ``tick`` (plus ``settle_integrals``, where defined) and
    ``tick_reference`` write the same stat keys."""

    id = "PAR001"
    title = "tick and tick_reference must write the same stats keys"

    def check(self, tree: SourceTree) -> List[Finding]:
        findings: List[Finding] = []
        for pa in _analyses(tree):
            tick_keys = pa.keys[PAIR[0]]
            ref_keys = pa.keys[PAIR[1]]
            if tick_keys == ref_keys:
                continue
            line = pa.cls.lineno
            if pa.sf.waived(line, self.id):
                continue
            findings.append(
                self.finding(
                    pa.sf.relpath,
                    line,
                    f"{pa.cls.name}: dual-path stats divergence — "
                    + _describe_divergence(tick_keys, ref_keys),
                    pa.cls.name,
                )
            )
        return findings


def _integral_keys(keys: Set[str]) -> Set[str]:
    """The per-cycle accounting keys a fast-forward must keep exact.

    ``bulk_tick`` only covers cycles where no command issues, so work
    counters (issued reads/writes, prefetch traffic) legitimately exist
    only on the ``tick`` side; what must match is the integral
    bookkeeping every covered cycle contributes: the tick count and the
    ``occ_*`` queue-occupancy integrals the utilization figures are
    computed from.  Where a ``settle_integrals`` method owns them, both
    sets are empty: an integral added per executed tick but not per
    skipped cycle (or the reverse) would double count or drop cycles.
    """
    return {k for k in keys if k == "ticks" or k.startswith("occ_")}


class BulkTickParityRule(Rule):
    """PAR003: ``bulk_tick`` fast-forward matches ``tick``'s integrals."""

    id = "PAR003"
    title = "bulk_tick must match tick's integral stats"

    def check(self, tree: SourceTree) -> List[Finding]:
        findings: List[Finding] = []
        for pa in _analyses(tree, BULK_PAIR):
            line = pa.cls.lineno
            tick_keys = _integral_keys(pa.keys[BULK_PAIR[0]])
            bulk_keys = _integral_keys(pa.keys[BULK_PAIR[1]])
            if tick_keys != bulk_keys and not pa.sf.waived(line, self.id):
                findings.append(
                    self.finding(
                        pa.sf.relpath,
                        line,
                        f"{pa.cls.name}: fast-forward integral-stats "
                        "divergence — "
                        + _describe_divergence(tick_keys, bulk_keys, BULK_PAIR),
                        pa.cls.name,
                    )
                )
        return findings
