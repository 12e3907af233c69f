"""Benchmark-suite configuration.

``test_claims.py`` regenerates every table and figure of the paper and
checks its claims.  Trace length defaults to 12000 accesses per
benchmark here (enough for the qualitative shapes).  Export
``REPRO_TRACE_ACCESSES`` to override — e.g. 20000 reproduces the
numbers recorded in EXPERIMENTS.md.

Simulation runs are resolved through the content-addressed result
store (see repro.experiments.store) under ``.repro-results/``, so
benchmarks that share runs — e.g. Figure 5 and Figure 8 — only pay for
them once, and a *re-run* of any suite pays for nothing at all.
``REPRO_STORE=0`` keeps results in process memory instead, shared
within one session only.  Export ``REPRO_JOBS=N`` to shard every
figure's cells across N worker processes.
"""

import os

os.environ.setdefault("REPRO_TRACE_ACCESSES", "12000")


def pytest_sessionstart(session):
    """Reap temp files that writers killed mid-put left in the store."""
    from repro.experiments import store

    if store.store_enabled():
        store.get_store().sweep_orphans()


def pytest_sessionfinish(session, exitstatus):
    """Report where this session's runs came from.

    On a re-run of any suite the summary must read ``0 simulated`` —
    every run served from the store (the acceptance check for the
    result store).
    """
    from repro.experiments import runner, store

    line = f"repro result store: {runner.cache_info()['simulated']} simulated"
    if store.store_enabled():
        stats = store.get_store().stats
        line += f", store hits/puts {stats.hits}/{stats.puts}"
    print(f"\n{line}")
