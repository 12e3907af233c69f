"""Experiment harness: one module per paper table/figure.

Every module exposes a pure function that computes the experiment's
data (used by the benchmark suite and tests) plus a ``main()`` that
prints the paper-style rows.  Every figure builds its cells as
:class:`~repro.experiments.sweep.Job` lists (a config variant is a job
with ``overrides``) and resolves them with one
:func:`~repro.experiments.sweep.run_jobs` call, through the
content-addressed :mod:`repro.experiments.store`: experiments that need
the same (benchmark, config) pair — e.g. Figure 5 and Figure 8 — pay
for it once *ever* per machine, not once per process, and ``REPRO_JOBS``
shards every figure across worker processes.  See docs/experiments.md.

Experiment ids (see DESIGN.md Section 4):

========================  =====================================
``fig2_slh_example``      Figure 2 — SLH of one GemsFDTD epoch
``fig3_slh_phases``       Figure 3 — SLH variation across epochs
``fig5_spec``             Figure 5 — SPEC2006fp performance
``fig6_nas``              Figure 6 — NAS performance
``fig7_commercial``       Figure 7 — commercial performance
``fig8_power_spec``       Figure 8 — SPEC DRAM power/energy
``fig9_power_nas``        Figure 9 — NAS DRAM power/energy
``fig10_power_commercial``  Figure 10 — commercial power/energy
``fig11_ablation``        Figure 11 — ASD/scheduling ablation
``fig12_stream_lengths``  Figure 12 — short streams dominate
``fig13_efficiency``      Figure 13 — useful/coverage/delayed
``fig14_buffer_size``     Figure 14 — Prefetch Buffer sweep
``fig15_filter_size``     Figure 15 — Stream Filter sweep
``fig16_slh_accuracy``    Figure 16 — SLH approximation accuracy
``tab_hardware_cost``     Section 5.1 — hardware cost table
``tab_smt``               Section 5.2 — SMT results
``tab_scheduler_interaction``  Section 5.3 — scheduler interaction
========================  =====================================
"""

from repro.experiments.runner import run, run_suite
from repro.experiments.store import ResultStore, get_store
from repro.experiments.sweep import Job, SweepOutcome, SweepStats, run_jobs

__all__ = [
    "Job",
    "ResultStore",
    "SweepOutcome",
    "SweepStats",
    "get_store",
    "run",
    "run_jobs",
    "run_suite",
]
