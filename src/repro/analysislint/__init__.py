"""repro.analysislint — simulator-invariant static analysis.

Off-the-shelf linters check Python; this package checks the
*simulator*.  Every rule here encodes an invariant that a past bug (or
a near-miss) showed the hot-path refactors can silently violate:

* ``DET*`` — **determinism**: no wall-clock (``time.*`` or
  ``datetime.now()``-style), no unseeded randomness, no OS entropy, no
  set-iteration-order dependence inside the simulated machine
  (``repro.{cache,controller,cpu,dram,fastsim,prefetch,scenarios,
  system}``).  Telemetry and perf modules are allowlisted — tracer
  self-measurement legitimately reads ``time.perf_counter``.
* ``PAR*`` — **dual-path parity**: a class that defines both ``tick``
  and ``tick_reference`` must bump the same statically-extractable
  stats keys and emit the same tracer event kinds from both bodies.
* ``CYC*`` — **cycle accounting**: a function that writes a
  cycle/fast-forward variable must also integrate the skipped time
  into the ``ticks``/``occ_*`` counters (directly or by delegating to
  an accounting method) or carry an explicit ``# lint: no-integral``
  waiver.
* ``REG*`` — **stats-key registry**: every statically-extractable key
  passed to ``Stats.bump``/``set`` or indexed through ``Stats.raw()``
  must appear in the generated ``repro/common/stat_keys.py`` registry;
  reads of keys no writer produces are flagged as typos.
* ``CONC003`` — no blocking call while a fleet lock is held.
* ``ATO001`` — durable writes go through write-tmp-then-``os.replace``.

The fleet contracts that a test can check at runtime are tests, not
rules: the wire schema (``tests/unit/test_fabric_protocol.py``), the
metric naming contract (``MetricsRegistry`` refuses bad names), and
leaked files, sockets and threads (the pytest warning filter and the
thread check in ``tests/conftest.py``).

See ``docs/linting.md`` for the rule catalogue, the waiver comment
syntax, the baseline workflow, and registry regeneration.
"""

from repro.analysislint.core import Finding, SourceFile, SourceTree
from repro.analysislint.rules import Rule, all_rules, rule_titles
from repro.analysislint.runner import LintResult, run_lint

__all__ = [
    "Finding",
    "LintResult",
    "Rule",
    "SourceFile",
    "SourceTree",
    "all_rules",
    "rule_titles",
    "run_lint",
]
