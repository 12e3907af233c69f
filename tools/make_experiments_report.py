"""Regenerate EXPERIMENTS.md: paper-vs-measured for every artifact.

Runs every experiment at the reference trace length (20 000 accesses
per benchmark unless REPRO_TRACE_ACCESSES overrides) and rewrites
EXPERIMENTS.md.  Every figure resolves its cells through ``run_jobs``,
so ``--jobs N`` shards all of them across N worker processes: a cold
full refresh with ``--jobs 2`` took 218 s of wall time on a shared
2-vCPU host (352 s when only the grid-shaped figures were sharded).
Re-runs are served from the on-disk result store under
``.repro-results/`` (disable with ``REPRO_STORE=0``).
"""

import argparse
import os
import sys
import time

os.environ.setdefault("REPRO_TRACE_ACCESSES", "20000")

from repro.experiments.ablation import fig11_ablation, render as render11
from repro.experiments.efficiency import fig13_efficiency, render as render13
from repro.experiments.extensions import (
    asd_only,
    degree_sweep,
    render_asd_only,
    render_degree,
)
from repro.experiments.hardware_cost import (
    render as render_hw,
    tab_hardware_cost,
)
from repro.experiments.performance import (
    fig5_spec,
    fig6_nas,
    fig7_commercial,
    render as render_perf,
)
from repro.experiments.power import (
    fig10_power_commercial,
    fig8_power_spec,
    fig9_power_nas,
    render as render_power,
)
from repro.experiments.scheduler_interaction import (
    render as render_sched,
    tab_scheduler_interaction,
)
from repro.experiments.sensitivity import (
    epoch_sweep,
    fig14_buffer_size,
    fig15_filter_size,
    render as render_sweep,
)
from repro.experiments.slh_figures import fig16_slh_accuracy, fig3_slh_phases
from repro.experiments.smt import render as render_smt, tab_smt
from repro.experiments.stream_lengths import (
    fig12_stream_lengths,
    render as render12,
)

HEADER = """# EXPERIMENTS — paper vs. measured

Generated by `python tools/make_experiments_report.py` with
`REPRO_TRACE_ACCESSES={accesses}` (seed {seed}).  Every section below
corresponds to one artifact of the paper's evaluation; the benchmark
suite (`pytest benchmarks/ --benchmark-only`) regenerates and asserts
each one.

**Reading guide.**  Absolute numbers cannot match a proprietary
cycle-accurate Power5+ simulator driven by captured hardware traces;
what must match — and is asserted by the benchmarks — is the *shape*:
who wins, by roughly what factor, and where the crossovers sit.  Four
known deviations are flagged inline and summarised at the end.
"""


def block(title: str, paper: str, body: str, note: str = "") -> str:
    out = [f"\n## {title}\n"]
    out.append(f"*Paper:* {paper}\n")
    if note:
        out.append(f"*Deviation:* {note}\n")
    out.append("```\n" + body.rstrip() + "\n```\n")
    return "\n".join(out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "-j", "--jobs", type=int, default=None,
        help="worker processes for every experiment "
        "(default: REPRO_JOBS or serial)",
    )
    args = parser.parse_args()
    if args.jobs is not None:
        # every figure module reads REPRO_JOBS at call time, so each
        # inherits this without plumbing.
        os.environ["REPRO_JOBS"] = str(max(1, args.jobs))

    t0 = time.time()
    sections = []

    fig3 = fig3_slh_phases(epoch_reads=2000)
    shown = list(range(min(4, len(fig3.epoch_bars))))
    sections.append(
        block(
            "Figures 2 and 3 — Stream Length Histograms of GemsFDTD",
            "one epoch's SLH is short-stream dominated (21.8% length-1, "
            "43.7% length-2); SLHs vary widely across epochs.",
            fig3.table(epochs=shown),
        )
    )

    for figure, render, title, paper in (
        (fig5_spec, render_perf, "Figure 5 — SPEC2006fp performance",
         "PMS vs NP +32.7% avg (0–68.6% range), MS vs NP +14.6%, "
         "PMS vs PS +10.2%; gamess/namd/povray/calculix ~0."),
        (fig6_nas, render_perf, "Figure 6 — NAS performance",
         "PMS vs NP +24.2% avg, MS vs NP +11.7%, PMS vs PS +8.1%."),
        (fig7_commercial, render_perf, "Figure 7 — commercial performance",
         "PMS vs NP +15.1% avg, MS vs NP +9.3% (beating the PS "
         "prefetcher's implied +6.2%), PMS vs PS +8.4%."),
    ):
        sections.append(block(title, paper, render(figure())))
        print(f"{title} done ({time.time() - t0:.0f}s)", file=sys.stderr)

    for figure, title, paper in (
        (fig8_power_spec, "Figure 8 — SPEC DRAM power/energy (PMS vs PS)",
         "power +2.7% avg, energy −9.8%; negligible power impact on the "
         "non-memory-intensive four."),
        (fig9_power_nas, "Figure 9 — NAS DRAM power/energy",
         "power +1.6% avg, energy −7.9%."),
        (fig10_power_commercial, "Figure 10 — commercial DRAM power/energy",
         "power +2.8% avg, energy −8.2%."),
    ):
        sections.append(
            block(
                title,
                paper,
                render_power(figure()),
                note="power increases match; the measured energy reduction "
                "is smaller than the paper's because our useful-prefetch "
                "fraction (and hence extra DRAM traffic) is worse — the "
                "sign and the power/energy asymmetry reproduce.",
            )
        )
    print(f"power figures done ({time.time() - t0:.0f}s)", file=sys.stderr)

    fig11 = fig11_ablation()
    sections.append(
        block(
            "Figure 11 — ASD and Adaptive Scheduling ablation",
            "adaptive scheduling beats each fixed policy by 2.3–3.6%; ASD "
            "beats next-line by 8.4%; the P5-style engine in the MC is "
            "worse than plain next-line.",
            render11(fig11),
            note="conservative policies are never starved in our "
            "latency-bound machine, so adaptive *ties* the best fixed "
            "policy instead of beating it; ASD ties next-line on "
            "execution time while issuing far fewer prefetches (the "
            "efficiency claim survives; the throughput margin does not). "
            "P5-style < next-line reproduces.",
        )
    )
    print(f"fig11 done ({time.time() - t0:.0f}s)", file=sys.stderr)

    sections.append(
        block(
            "Figure 12 — stream lengths at the controller",
            "lengths 1–5 are 78–96% of streams; lengths 2–5 ≈ 37% (tpcc), "
            "49% (trade2), 40% (sap), 62% (notesbench).",
            render12(fig12_stream_lengths()),
        )
    )

    sections.append(
        block(
            "Figure 13 — prefetch effectiveness (PMS)",
            "useful 82–91%, coverage 19–34%, delayed regular commands 1–3%.",
            render13(fig13_efficiency()),
            note="usefulness lands lower (synthetic phase transitions "
            "waste more prefetches than the authors' traces); coverage "
            "spans a wider range; delayed commands match.",
        )
    )

    sections.append(
        block(
            "Figure 14 — Prefetch Buffer size sweep",
            "8/16/32/1024 blocks: growing helps with diminishing returns; "
            "16 blocks is the knee.",
            render_sweep(fig14_buffer_size()),
        )
    )
    sections.append(
        block(
            "Figure 15 — Stream Filter size sweep",
            "4/8/16/64 slots: growing helps with diminishing returns past "
            "8 entries.",
            render_sweep(fig15_filter_size()),
        )
    )
    print(f"sweeps done ({time.time() - t0:.0f}s)", file=sys.stderr)

    acc = fig16_slh_accuracy()
    sections.append(
        block(
            "Figure 16 — SLH approximation accuracy",
            "the finite 8-slot filter's histogram closely matches the "
            "actual SLH for a GemsFDTD epoch.",
            acc.table(),
        )
    )

    sections.append(
        block(
            "Section 5.1 — hardware cost",
            "MC area +6.08%, chip area +0.098%, chip power +0.06%; "
            "per-thread state is small.",
            render_hw(tab_hardware_cost()),
        )
    )

    smt = tab_smt()
    sections.append(
        block(
            "Section 5.2 — SMT results (2 threads, focus benchmarks)",
            "SMT improvements about the same as single-threaded (PMS vs "
            "NP +28.5/20.4/11.1% per suite; PMS vs PS +10.7/9.2/7.5%).",
            render_smt(smt),
        )
    )
    print(f"smt done ({time.time() - t0:.0f}s)", file=sys.stderr)

    sections.append(
        block(
            "Section 5.3 — memory-scheduler interaction",
            "prefetch gain drops ~5 points with an in-order scheduler, "
            "~1 point with the memoryless scheduler.",
            render_sched(tab_scheduler_interaction()),
        )
    )

    sections.append(
        block(
            "Extension — multi-line prefetching (inequality 6)",
            "described in Section 3.1, not evaluated in the paper.",
            render_degree(degree_sweep()),
        )
    )
    sections.append(
        block(
            "Extension — ASD as the only prefetcher (paper future work)",
            "the paper suggests applying ASD beyond the memory side.",
            render_asd_only(asd_only()),
        )
    )
    sections.append(
        block(
            "Extension — epoch-length sweep",
            "the SLH epoch is a free parameter (Figure 3 uses 2000 reads).",
            render_sweep(epoch_sweep(benchmarks=("GemsFDTD", "tpcc", "bwaves"))),
        )
    )

    footer = """
## Summary of known deviations

1. **Stream Filter lifetimes** count observed Read commands by default
   instead of processor cycles (paper Section 3.3 decrements per
   cycle).  Cycle-based lifetimes cannot serve both the fastest and
   slowest suites with 8 slots once the sampled traces stretch arrival
   times; the read-event clock preserves the mechanism (quiet streams
   age out; active streams are extended) while normalising turnover.
   A `lifetime_unit="cpu"` mode implements the paper's letter.
2. **Adaptive Scheduling ties rather than beats the best fixed
   policy.**  In our latency-bound machine the conservative policies
   are never starved, so there is nothing for aggressiveness to win;
   the adaptive mechanism correctly converges onto the best policy.
3. **ASD vs next-line:** equal execution time instead of the paper's
   8.4% margin, because wasteful prefetches are nearly free at our
   bandwidth slack.  ASD's advantage survives as efficiency: it issues
   ~30-50% fewer prefetches and burns correspondingly less DRAM energy
   for the same performance, and the paper's second finding — the
   P5-style engine losing to plain next-line in the controller — is
   reproduced.
4. **Memory-scheduler interaction is flatter than the paper's.**  The
   paper loses ~5 points of prefetch gain under an in-order scheduler;
   our serialized core rarely queues enough commands for scheduling
   order to matter, so the three schedulers land within a point of one
   another (the ordering — AHB/memoryless above in-order — still
   holds).  Raising `CoreConfig.mlp` restores scheduler sensitivity at
   the cost of prefetcher headroom.
"""

    accesses = os.environ["REPRO_TRACE_ACCESSES"]
    seed = os.environ.get("REPRO_SEED", "1")
    text = HEADER.format(accesses=accesses, seed=seed) + "".join(sections) + footer
    with open(os.path.join(os.path.dirname(__file__), "..", "EXPERIMENTS.md"), "w") as f:
        f.write(text)
    from repro.experiments import runner, store

    info = runner.cache_info()
    line = (f"EXPERIMENTS.md written ({time.time() - t0:.0f}s total; "
            f"{info['simulated']} runs simulated")
    if store.store_enabled():
        st = store.get_store()
        line += (f", {st.stats.hits} served from the result store; "
                 f"{len(st)} entries at {st.root}")
    print(line + ")", file=sys.stderr)


if __name__ == "__main__":
    main()
