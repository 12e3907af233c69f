"""Rule framework: the base class and the rule catalogue.

A rule is a stateless object with a stable ``id``, a one-line
``title``, an optional waiver ``shorthand`` (the bare token accepted in
a ``# lint:`` comment in place of ``waive=<id>``), and a ``check``
method that maps a :class:`~repro.analysislint.core.SourceTree` to
findings.  Rules receive the whole tree — cross-file rules (the
registry) and single-file rules (everything else) use the same shape.

:func:`all_rules` builds the ordered catalogue the runner executes;
order is cosmetic (findings are re-sorted by location) but kept stable
for predictable reports.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.analysislint.config import DEFAULT_CONFIG, LintConfig
from repro.analysislint.core import Finding, SourceTree

#: Kept as module-level aliases of the config defaults for callers that
#: predate ``[tool.repro.lint]``; rules themselves read ``self.config``
#: so pyproject overrides take effect.  See config.py for rationale on
#: each scope (sim determinism, wall-clock sanctum).
SIM_PACKAGES: Set[str] = set(DEFAULT_CONFIG.sim_packages)
WALLCLOCK_ALLOWLIST = DEFAULT_CONFIG.wallclock_allowlist


class Rule:
    """Base class for one invariant check."""

    id: str = ""
    title: str = ""
    shorthand: str = ""  # bare waiver token ('' = waive=<id> only)
    #: effective options; ``all_rules(config=...)`` overrides per
    #: instance, the class default keeps directly-constructed rules
    #: (tests, narrowed runs) on the committed behavior
    config: LintConfig = DEFAULT_CONFIG

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


def all_rules(config: Optional[LintConfig] = None) -> Sequence[Rule]:
    """Fresh instances of the full catalogue (import-cycle free).

    ``config`` (usually :func:`~repro.analysislint.config.load_config`
    of the repo root) is attached to every instance; ``None`` keeps the
    committed defaults.
    """
    from repro.analysislint.atomic import AtomicWriteRule
    from repro.analysislint.concurrency import LockBlockingRule
    from repro.analysislint.cycles import CycleAccountingRule
    from repro.analysislint.determinism import (
        SetIterationRule,
        UnseededRandomRule,
        UrandomRule,
        WallClockRule,
    )
    from repro.analysislint.parity import (
        BulkTickParityRule,
        EventParityRule,
        StatsParityRule,
    )
    from repro.analysislint.registry import (
        DynamicKeyRule,
        RegistryRule,
        UnwrittenReadRule,
    )

    rules = (
        WallClockRule(),
        UnseededRandomRule(),
        UrandomRule(),
        SetIterationRule(),
        StatsParityRule(),
        EventParityRule(),
        BulkTickParityRule(),
        CycleAccountingRule(),
        RegistryRule(),
        DynamicKeyRule(),
        UnwrittenReadRule(),
        LockBlockingRule(),
        AtomicWriteRule(),
    )
    if config is not None:
        for rule in rules:
            rule.config = config
    return rules


def rule_titles() -> dict:
    """rule id -> title, for reporters and docs checks."""
    return {rule.id: rule.title for rule in all_rules()}
