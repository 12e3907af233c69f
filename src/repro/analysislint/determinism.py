"""DET rules — the simulated machine must be a pure function of its
inputs.

Two runs with the same config and traces must produce bit-identical
``RunResult``\\ s (the store keys results by config fingerprint, the
golden loop-equivalence tests diff whole stats dicts, and CI reruns
everything on three interpreters).  Wall-clock reads, unseeded
randomness, and set-iteration order are the three ways Python code
silently breaks that, so inside the simulated machine
(``rules.SIM_PACKAGES``) they are banned outright:

* ``DET001`` — wall-clock/monotonic reads (``time.time``,
  ``time.perf_counter``, ``time.monotonic``, ``time.time_ns``, ...)
  and ``datetime.now()``-style calls.  The paths in
  ``rules.WALLCLOCK_ALLOWLIST`` are exempt: tracer self-measurement is
  *about* wall-clock time.
* ``DET002`` — module-level ``random.*`` calls and bare seeded-nowhere
  helpers (``random()``, ``randint``...).  Seeded ``random.Random(seed)``
  instances are fine — the workloads package builds its traces from
  them, outside the simulated machine.
* ``DET003`` — ``os.urandom`` / ``uuid.uuid4`` / ``secrets.*``.
* ``DET004`` — ``for`` iteration over a set expression (literal,
  ``set()`` constructor, set comprehension, or a name/attribute the
  module itself binds to one).  Iteration order of a set depends on
  insertion/hash history; sorted(...) it or keep a list.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from repro.analysislint.core import Finding, SourceFile, SourceTree, call_name
from repro.analysislint.rules import SIM_PACKAGES, WALLCLOCK_ALLOWLIST, Rule

_WALLCLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "date.today",
    "datetime.date.today",
}

_RANDOM_FUNCS = {
    "random",
    "randint",
    "randrange",
    "uniform",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "gauss",
    "normalvariate",
    "expovariate",
    "betavariate",
    "triangular",
    "getrandbits",
    "randbytes",
}

_ENTROPY_CALLS = {"os.urandom", "uuid.uuid4", "uuid.uuid1"}


def _sim_files(tree: SourceTree) -> Iterable[SourceFile]:
    for sf in tree.in_packages(SIM_PACKAGES):
        if not any(marker in sf.relpath for marker in WALLCLOCK_ALLOWLIST):
            yield sf


class WallClockRule(Rule):
    """DET001: no wall-clock reads inside the simulated machine."""

    id = "DET001"
    title = "no wall-clock reads inside the simulated machine"

    def check(self, tree: SourceTree) -> List[Finding]:
        findings: List[Finding] = []
        for sf in _sim_files(tree):
            for node in ast.walk(sf.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node)
                if name in _WALLCLOCK_CALLS or name.endswith(".perf_counter"):
                    if sf.waived(node, self.id):
                        continue
                    findings.append(
                        self.finding(
                            sf.relpath,
                            node.lineno,
                            f"wall-clock call {name}() — simulator state must "
                            "be a pure function of config+trace",
                            sf.qualname(node),
                        )
                    )
        return findings


class UnseededRandomRule(Rule):
    """DET002: only explicitly seeded ``random.Random`` instances."""

    id = "DET002"
    title = "no unseeded randomness inside the simulated machine"

    def check(self, tree: SourceTree) -> List[Finding]:
        findings: List[Finding] = []
        for sf in _sim_files(tree):
            # names imported from the random module in this file
            imported: Set[str] = set()
            for node in ast.walk(sf.tree):
                if isinstance(node, ast.ImportFrom) and node.module == "random":
                    imported.update(
                        a.asname or a.name
                        for a in node.names
                        if a.name != "Random"
                    )
            for node in ast.walk(sf.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node)
                hit = (
                    name.startswith("random.")
                    and name.split(".")[-1] in _RANDOM_FUNCS
                ) or name in imported
                if hit and not sf.waived(node, self.id):
                    findings.append(
                        self.finding(
                            sf.relpath,
                            node.lineno,
                            f"module-level random call {name}() — only "
                            "explicitly seeded random.Random instances are "
                            "reproducible",
                            sf.qualname(node),
                        )
                    )
        return findings


class UrandomRule(Rule):
    """DET003: no OS entropy (``os.urandom``, ``secrets``)."""

    id = "DET003"
    title = "no OS entropy inside the simulated machine"

    def check(self, tree: SourceTree) -> List[Finding]:
        findings: List[Finding] = []
        for sf in _sim_files(tree):
            for node in ast.walk(sf.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node)
                if (
                    name in _ENTROPY_CALLS or name.startswith("secrets.")
                ) and not sf.waived(node, self.id):
                    findings.append(
                        self.finding(
                            sf.relpath,
                            node.lineno,
                            f"OS entropy call {name}() in simulator code",
                            sf.qualname(node),
                        )
                    )
        return findings


class SetIterationRule(Rule):
    """DET004: no iteration over sets (order depends on hash seeding)."""

    id = "DET004"
    title = "no iteration over sets inside the simulated machine"
    shorthand = "set-iter-ok"

    def check(self, tree: SourceTree) -> List[Finding]:
        findings: List[Finding] = []
        for sf in _sim_files(tree):
            set_names = self._set_bindings(sf)
            for node in ast.walk(sf.tree):
                if not isinstance(node, (ast.For, ast.comprehension)):
                    continue
                iter_expr = node.iter
                line = getattr(node, "lineno", iter_expr.lineno)
                if self._is_set_expr(iter_expr, set_names) and not sf.waived(
                    line, self.id, self.shorthand
                ):
                    findings.append(
                        self.finding(
                            sf.relpath,
                            line,
                            "iterating a set — order depends on hash/"
                            "insertion history; use sorted(...) or a list",
                            sf.qualname(iter_expr),
                        )
                    )
        return findings

    @staticmethod
    def _set_bindings(sf: SourceFile) -> Set[str]:
        """Names/attrs this module binds to set values or annotates Set."""
        names: Set[str] = set()
        for node in ast.walk(sf.tree):
            target = None
            value = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
                ann = ast.unparse(node.annotation)
                if ann.split("[")[0] in ("Set", "set", "typing.Set"):
                    names.add(SetIterationRule._bind_name(target) or "")
            if target is None or value is None:
                continue
            if isinstance(value, (ast.Set, ast.SetComp)) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in ("set", "frozenset")
            ):
                bound = SetIterationRule._bind_name(target)
                if bound:
                    names.add(bound)
        names.discard("")
        return names

    @staticmethod
    def _bind_name(target: ast.AST) -> str:
        if isinstance(target, ast.Name):
            return target.id
        if isinstance(target, ast.Attribute):
            return target.attr
        return ""

    @staticmethod
    def _is_set_expr(node: ast.AST, set_names: Set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.Attribute):
            return node.attr in set_names
        return False
