"""Rule framework: the base class, the package scopes, the catalogue.

A rule is a stateless object with a stable ``id``, a one-line
``title``, an optional waiver ``shorthand`` (the bare token accepted in
a ``# lint:`` comment in place of ``waive=<id>``), and a ``check``
method that maps a :class:`~repro.analysislint.core.SourceTree` to
findings.  Rules receive the whole tree — cross-file rules (the stat
keys) and single-file rules (everything else) use the same shape.

The package scopes below are the analyzer's only settings; a package
is the first path segment under ``src/repro/``
(:meth:`~repro.analysislint.core.SourceTree.in_packages`).

:func:`all_rules` builds the ordered catalogue the runner executes;
order is cosmetic (findings are re-sorted by location) but kept stable
for predictable reports.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.analysislint.core import Finding, SourceTree

#: the simulated machine, and the probes that sample it mid-run: the
#: DET rules and CYC001
SIM_PACKAGES = frozenset(
    {"cache", "controller", "cpu", "dram", "fastsim", "prefetch",
     "scenarios", "system", "telemetry"}
)
#: the code that holds locks: CONC003
FLEET_PACKAGES = frozenset({"fabric", "obs"})
#: the writers of durable artifacts other processes read back: ATO001
ATOMIC_PACKAGES = frozenset(
    {"common", "experiments", "fabric", "obs", "scenarios"}
)


class Rule:
    """Base class for one invariant check."""

    id: str = ""
    title: str = ""
    shorthand: str = ""  # bare waiver token ('' = waive=<id> only)

    def check(self, tree: SourceTree) -> List[Finding]:
        raise NotImplementedError

    def waiver_hint(self) -> str:
        return self.shorthand or f"waive={self.id}"

    def finding(self, path: str, line: int, message: str, symbol: str) -> Finding:
        return Finding(
            rule=self.id,
            path=path,
            line=line,
            message=message,
            symbol=symbol,
            waiver_hint=self.waiver_hint(),
        )


def all_rules() -> Sequence[Rule]:
    """Fresh instances of the full catalogue (import-cycle free)."""
    from repro.analysislint.atomic import AtomicWriteRule
    from repro.analysislint.concurrency import LockBlockingRule
    from repro.analysislint.cycles import CycleAccountingRule
    from repro.analysislint.determinism import (
        SetIterationRule,
        UnseededRandomRule,
        UrandomRule,
        WallClockRule,
    )
    from repro.analysislint.parity import BulkTickParityRule, StatsParityRule
    from repro.analysislint.registry import DynamicKeyRule, UnwrittenReadRule

    return (
        WallClockRule(),
        UnseededRandomRule(),
        UrandomRule(),
        SetIterationRule(),
        StatsParityRule(),
        BulkTickParityRule(),
        CycleAccountingRule(),
        DynamicKeyRule(),
        UnwrittenReadRule(),
        LockBlockingRule(),
        AtomicWriteRule(),
    )


def rule_titles() -> dict:
    """rule id -> title, for reporters and docs checks."""
    return {rule.id: rule.title for rule in all_rules()}
