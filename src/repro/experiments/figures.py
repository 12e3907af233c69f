"""The paper's evaluation as one table: one record per EXPERIMENTS.md section.

Each :class:`Figure` names the ``repro figure`` ids it answers to, the
section's title, the paper's sentence and the deviation note, how to
compute the artifact at default sizes and render it, and its claims:
``(text, holds)`` pairs, each text stating the bound it checks.  Three
things read :data:`FIGURES`: ``repro figure``,
``tools/make_experiments_report.py`` (one section per record) and
``benchmarks/test_claims.py`` (one test per record).  An artifact is
added here and nowhere else.

:mod:`repro.experiments` does not import this module: pool workers and
the perf harness import that package, and this one loads every figure
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Tuple

from repro.analysis.slh_accuracy import slh_rms_error
from repro.common.config import StreamFilterConfig
from repro.experiments import (
    ablation,
    efficiency,
    extensions,
    hardware_cost,
    performance,
    power,
    scheduler_interaction,
    sensitivity,
    slh_figures,
    smt,
    stream_lengths,
)
from repro.experiments.runner import run
from repro.workloads.profiles import FOCUS_BENCHMARKS, get_profile

Claims = Iterator[Tuple[str, bool]]


@dataclass(frozen=True)
class Figure:
    """One paper artifact: its EXPERIMENTS.md section and its claims."""

    #: the ``repro figure`` ids that print this record
    ids: Tuple[str, ...]
    title: str
    #: what the paper reports
    paper: str
    #: the artifact's data at default sizes
    compute: Callable[[], object]
    #: data -> the section body (what ``repro figure`` prints)
    render: Callable[[object], str]
    #: data -> ``(text, holds)`` per checked bound
    claims: Callable[[object], Claims]
    #: how and why the measurement departs from the paper
    note: str = ""


def _slh_claims(fig) -> Claims:
    # Figure 2: the most length-2 dominated epoch (the paper's example
    # epoch is from a field-sweep phase)
    bars = max(fig.epoch_bars, key=lambda b: b[2])
    yield "Figure 2 epoch: bars sum to 1", abs(sum(bars[1:]) - 1.0) < 1e-9
    yield "Figure 2 epoch: length 2 is the largest bar", bars[2] == max(bars[1:])
    yield "Figure 2 epoch: length-2 bar > 30%", bars[2] > 0.30
    yield "Figure 2 epoch: length-1 bar > 5%", bars[1] > 0.05
    yield "Figure 2 epoch: lengths 3+ carry > 10%", sum(bars[3:]) > 0.10
    # Figure 3: SLHs vary widely across epochs
    yield "Figure 3: at least 3 epochs", len(fig.epoch_bars) >= 3
    for index, epoch in enumerate(fig.epoch_bars):
        yield (f"Figure 3: epoch {index}'s bars sum to 1",
               abs(sum(epoch[1:]) - 1.0) < 1e-9)
    spread = max(slh_rms_error(a, b)
                 for a in fig.epoch_bars for b in fig.epoch_bars)
    yield "Figure 3: max epoch-to-epoch rms difference > 0.10", spread > 0.10
    worst_vs_all = max(slh_rms_error(epoch, fig.all_epoch_bars)
                       for epoch in fig.epoch_bars)
    yield ("Figure 3: some epoch differs from the all-epoch SLH by "
           "rms > 0.05", worst_vs_all > 0.05)


def _fig5_claims(suite) -> Claims:
    rows = {r.benchmark: r for r in suite.rows}
    yield "15 < average PMS vs NP < 50", 15 < suite.avg_pms_vs_np < 50
    yield "5 < average MS vs NP < 30", 5 < suite.avg_ms_vs_np < 30
    yield "1 < average PMS vs PS < 15", 1 < suite.avg_pms_vs_ps < 15
    for row in suite.rows:
        yield f"{row.benchmark}: -2 < PMS vs NP < 90", -2 < row.pms_vs_np < 90
    for name in ("gamess", "namd", "povray", "calculix"):
        yield (f"{name} is not memory intensive",
               not get_profile(name).memory_intensive)
        yield f"{name}: PMS vs NP < 4", rows[name].pms_vs_np < 4
    for name in ("bwaves", "lbm", "leslie3d"):
        yield f"{name}: PMS vs NP > 30", rows[name].pms_vs_np > 30
    for name in ("bwaves", "milc", "GemsFDTD", "lbm"):
        yield f"{name}: MS vs NP > 5", rows[name].ms_vs_np > 5
    yield ("average PMS vs NP > average MS vs NP",
           suite.avg_pms_vs_np > suite.avg_ms_vs_np)


def _fig6_claims(suite) -> Claims:
    rows = {r.benchmark: r for r in suite.rows}
    yield "12 < average PMS vs NP < 45", 12 < suite.avg_pms_vs_np < 45
    yield "4 < average MS vs NP < 28", 4 < suite.avg_ms_vs_np < 28
    yield "1 < average PMS vs PS < 12", 1 < suite.avg_pms_vs_ps < 12
    yield "ep (compute bound): PMS vs NP < 3", rows["ep"].pms_vs_np < 3
    for name in ("ft", "mg", "sp"):
        yield f"{name}: PMS vs NP > 18", rows[name].pms_vs_np > 18
    memory_bound = sorted(r.pms_vs_np for n, r in rows.items() if n != "ep")
    yield ("is: PMS vs NP among the 3 lowest of the memory-bound set",
           rows["is"].pms_vs_np <= memory_bound[2])


def _fig7_claims(suite) -> Claims:
    yield "4 < average PMS vs NP < 25", 4 < suite.avg_pms_vs_np < 25
    yield "2 < average MS vs NP < 18", 2 < suite.avg_ms_vs_np < 18
    yield "1.5 < average PMS vs PS < 14", 1.5 < suite.avg_pms_vs_ps < 14
    for row in suite.rows:
        yield f"{row.benchmark}: PMS vs NP > 3", row.pms_vs_np > 3
        yield f"{row.benchmark}: MS vs NP > 1", row.ms_vs_np > 1
    # PS's gain over NP, approximated from the two PMS comparisons
    avg_ps_vs_np = suite.avg_pms_vs_np - suite.avg_pms_vs_ps
    yield ("average MS vs NP > 0.8 x (PMS vs NP - PMS vs PS)",
           suite.avg_ms_vs_np > avg_ps_vs_np * 0.8)


def _power_claims(fig) -> Claims:
    yield ("0 <= average power increase < 10%",
           0 <= fig.avg_power_increase < 10)
    yield "average energy reduction > 0", fig.avg_energy_reduction > 0


def _fig8_claims(fig) -> Claims:
    yield from _power_claims(fig)
    light = fig.non_memory_intensive_avg_power()
    yield "the suite has compute-bound members", light is not None
    if light is not None:
        yield ("|compute-bound average power increase| < 1.5%",
               abs(light) < 1.5)
        yield ("compute-bound average power increase < suite average",
               light < fig.avg_power_increase)


def _per_row_power_claims(fig) -> Claims:
    yield from _power_claims(fig)
    for row in fig.rows:
        yield (f"{row['benchmark']}: energy reduction > -2%",
               row["energy_reduction_pct"] > -2)


def _fig11_claims(fig) -> Claims:
    best_fixed = min(fig.average(f"PMS_POLICY{k}") for k in range(1, 6))
    yield ("adaptive ties the best fixed policy: best fixed > 1 - 0.015",
           best_fixed > 1.0 - 0.015)
    yield ("policy 5 is slower than the best fixed policy",
           fig.average("PMS_POLICY5") > best_fixed)
    yield ("policy 5 >= policy 1 - 0.005",
           fig.average("PMS_POLICY5") >= fig.average("PMS_POLICY1") - 0.005)
    yield ("P5-style in the MC > next-line + 0.005",
           fig.average("PMS_P5MC") > fig.average("PMS_NEXTLINE") + 0.005)
    yield ("|next-line - 1| < 0.03 (ASD on par with next-line)",
           abs(fig.average("PMS_NEXTLINE") - 1.0) < 0.03)
    asd = sum(run(b, "PMS").stats.get("ms.issued", 0)
              for b in FOCUS_BENCHMARKS)
    nextline = sum(run(b, "PMS_NEXTLINE").stats.get("ms.issued", 0)
                   for b in FOCUS_BENCHMARKS)
    yield ("ASD issues < 0.85 x next-line's prefetches",
           asd < 0.85 * nextline)


def _fig12_claims(fig) -> Claims:
    for bench in fig.benchmarks:
        yield (f"{bench}: 70 <= % of streams of length 1-5 <= 100",
               70 <= fig.short_fraction(bench) <= 100)
    for bench in ("tpcc", "trade2", "sap", "notesbench"):
        yield (f"{bench}: % of streams of length 2-5 > 20",
               fig.len2_5_fraction(bench) > 20)
    yield ("notesbench's length 2-5 share >= tpcc's",
           fig.len2_5_fraction("notesbench") >= fig.len2_5_fraction("tpcc"))


def _fig13_claims(fig) -> Claims:
    avg = fig.averages()
    yield "35 < average useful % < 100", 35 < avg.useful_pct < 100
    yield "8 < average coverage % < 50", 8 < avg.coverage_pct < 50
    yield "average delayed % < 5", avg.delayed_pct < 5
    for row in fig.rows.values():
        yield f"{row.benchmark}: delayed % < 8", row.delayed_pct < 8
        yield f"{row.benchmark}: coverage % > 2", row.coverage_pct > 2


def _sweep_claims(fig) -> Claims:
    for value in fig.values:
        yield (f"{fig.parameter} {value}: average speedup over NP > 1",
               fig.average(value) > 1.0)


def _fig14_claims(fig) -> Claims:
    yield from _sweep_claims(fig)
    avg = {value: fig.average(value) for value in fig.values}
    yield "16-line buffer >= 8-line - 0.01", avg[16] >= avg[8] - 0.01
    yield "32-line buffer >= 16-line - 0.01", avg[32] >= avg[16] - 0.01
    yield "1024-line buffer >= 32-line - 0.01", avg[1024] >= avg[32] - 0.01
    yield ("16 is the knee: (1024 - 16) <= max(16 - 8, 0.02) + 0.02",
           avg[1024] - avg[16] <= max(avg[16] - avg[8], 0.02) + 0.02)


def _fig15_claims(fig) -> Claims:
    yield from _sweep_claims(fig)
    avg = {value: fig.average(value) for value in fig.values}
    yield "8-slot filter >= 4-slot - 0.005", avg[8] >= avg[4] - 0.005
    yield "16-slot filter >= 8-slot - 0.01", avg[16] >= avg[8] - 0.01
    yield "64-slot filter >= 16-slot - 0.01", avg[64] >= avg[16] - 0.01
    yield ("diminishing returns: (64 - 16) <= (8 - 4) + 0.03",
           avg[64] - avg[16] <= avg[8] - avg[4] + 0.03)


def _fig16_claims(acc) -> Claims:
    yield ("approximation sums to 1",
           abs(sum(acc.approximation[1:]) - 1.0) < 1e-6)
    yield "rms error < 0.08", acc.rms_error < 0.08
    yield ("every bar within 0.18 of the actual SLH",
           max(abs(a - b) for a, b in
               zip(acc.actual[1:], acc.approximation[1:])) < 0.18)
    # the bars the inequality-(5) comparisons at k=1..3 consume
    for k in (2, 3):
        yield (f"length-{k} bar within 0.08 of the actual SLH",
               abs(acc.actual[k] - acc.approximation[k]) < 0.08)
    big = slh_figures.fig16_slh_accuracy(
        sf_config=StreamFilterConfig(slots=256, lifetime_init=64,
                                     lifetime_increment=64, lifetime_cap=512)
    )
    yield ("a 256-slot filter's rms error <= the 8-slot one's + 0.01",
           big.rms_error <= acc.rms_error + 0.01)


def _hardware_claims(table) -> Claims:
    anchor = table.anchor_bits
    one, four = table.costs[1], table.costs[4]
    yield ("MC area +6.08% (within 1e-9)",
           abs(one.mc_area_increase(anchor) - 0.0608) < 1e-9)
    yield ("chip area +0.098% (within 0.002 points)",
           abs(one.chip_area_increase(anchor) * 100 - 0.098) < 0.002)
    yield "chip power < +0.1%", one.chip_power_increase(anchor) < 0.001
    yield "total state < 4096 bytes", one.total_state_bytes < 4096
    yield ("the Prefetch Buffer is > half the state bits",
           one.prefetch_buffer_bits / one.total_state_bits > 0.5)
    yield ("4 threads hold < 2.5 x one thread's state bits",
           four.total_state_bits < 2.5 * one.total_state_bits)


def _smt_claims(result) -> Claims:
    yield "average PMS vs NP > 5", result.average("pms_vs_np") > 5
    yield "average MS vs NP > 2", result.average("ms_vs_np") > 2
    yield "average PMS vs PS > 0", result.average("pms_vs_ps") > 0
    for bench, row in result.rows.items():
        yield f"{bench}: PMS vs NP > 0", row["pms_vs_np"] > 0


def _scheduler_claims(result) -> Claims:
    for scheduler in scheduler_interaction.SCHEDULER_ORDER:
        yield (f"{scheduler}: average PMS gain > 0",
               result.average(scheduler) > 0)
    yield ("ahb gain >= memoryless gain - 1",
           result.average("ahb") >= result.average("memoryless") - 1.0)
    yield ("memoryless gain > in_order gain",
           result.average("memoryless") > result.average("in_order"))
    yield ("in_order loses more of the gain than memoryless",
           result.reduction_vs_ahb("in_order")
           > result.reduction_vs_ahb("memoryless"))


def _degree_claims(sweep) -> Claims:
    base = sweep.average(1)
    yield "degree 1: average speedup over NP > 1", base > 1.0
    for degree in (2, 3, 4):
        yield (f"degree {degree}: 0.9 x degree 1 < average < 1.25 x degree 1",
               0.9 * base < sweep.average(degree) < 1.25 * base)


def _asd_only_claims(result) -> Claims:
    yield "MS-ASD alone: average gain > 5", result.average("asd") > 5
    commercial = ("tpcc", "trade2", "sap", "notesbench")
    asd = sum(result.gains[b]["asd"] for b in commercial) / 4
    ps = sum(result.gains[b]["ps"] for b in commercial) / 4
    yield "commercial: MS-ASD alone beats the Power5 PS unit", asd > ps
    yield ("PS-side ASD's average gain > 0.5 x Power5 PS's",
           result.average("ps_asd") > 0.5 * result.average("ps"))


def _epoch_claims(sweep) -> Claims:
    yield from _sweep_claims(sweep)
    best = max(sweep.average(value) for value in sweep.values)
    yield ("the default 1000-read epoch is within 0.03 of the best",
           sweep.average(1000) > best - 0.03)


_POWER_NOTE = (
    "power increases match; the measured energy reduction is smaller "
    "than the paper's because our useful-prefetch fraction (and hence "
    "extra DRAM traffic) is worse — the sign and the power/energy "
    "asymmetry reproduce."
)

#: every artifact, in EXPERIMENTS.md order
FIGURES: Tuple[Figure, ...] = (
    Figure(
        ("fig2", "fig3"),
        "Figures 2 and 3 — Stream Length Histograms of GemsFDTD",
        "one epoch's SLH is short-stream dominated (21.8% length-1, "
        "43.7% length-2); SLHs vary widely across epochs.",
        slh_figures.fig3_slh_phases,
        lambda fig: fig.table(epochs=list(range(min(4, len(fig.epoch_bars))))),
        _slh_claims,
    ),
    Figure(
        ("fig5",), "Figure 5 — SPEC2006fp performance",
        "PMS vs NP +32.7% avg (0–68.6% range), MS vs NP +14.6%, "
        "PMS vs PS +10.2%; gamess/namd/povray/calculix ~0.",
        performance.fig5_spec, performance.render, _fig5_claims,
    ),
    Figure(
        ("fig6",), "Figure 6 — NAS performance",
        "PMS vs NP +24.2% avg, MS vs NP +11.7%, PMS vs PS +8.1%.",
        performance.fig6_nas, performance.render, _fig6_claims,
    ),
    Figure(
        ("fig7",), "Figure 7 — commercial performance",
        "PMS vs NP +15.1% avg, MS vs NP +9.3% (beating the PS "
        "prefetcher's implied +6.2%), PMS vs PS +8.4%.",
        performance.fig7_commercial, performance.render, _fig7_claims,
    ),
    Figure(
        ("fig8",), "Figure 8 — SPEC DRAM power/energy (PMS vs PS)",
        "power +2.7% avg, energy −9.8%; negligible power impact on the "
        "non-memory-intensive four.",
        power.fig8_power_spec, power.render, _fig8_claims, note=_POWER_NOTE,
    ),
    Figure(
        ("fig9",), "Figure 9 — NAS DRAM power/energy",
        "power +1.6% avg, energy −7.9%.",
        power.fig9_power_nas, power.render, _per_row_power_claims,
        note=_POWER_NOTE,
    ),
    Figure(
        ("fig10",), "Figure 10 — commercial DRAM power/energy",
        "power +2.8% avg, energy −8.2%.",
        power.fig10_power_commercial, power.render, _per_row_power_claims,
        note=_POWER_NOTE,
    ),
    Figure(
        ("fig11",), "Figure 11 — ASD and Adaptive Scheduling ablation",
        "adaptive scheduling beats each fixed policy by 2.3–3.6%; ASD "
        "beats next-line by 8.4%; the P5-style engine in the MC is "
        "worse than plain next-line.",
        ablation.fig11_ablation, ablation.render, _fig11_claims,
        note="conservative policies are never starved in our latency-bound "
        "machine, so adaptive *ties* the best fixed policy instead of "
        "beating it; ASD ties next-line on execution time while issuing "
        "far fewer prefetches (the efficiency claim survives; the "
        "throughput margin does not). P5-style < next-line reproduces.",
    ),
    Figure(
        ("fig12",), "Figure 12 — stream lengths at the controller",
        "lengths 1–5 are 78–96% of streams; lengths 2–5 ≈ 37% (tpcc), "
        "49% (trade2), 40% (sap), 62% (notesbench).",
        stream_lengths.fig12_stream_lengths, stream_lengths.render,
        _fig12_claims,
    ),
    Figure(
        ("fig13",), "Figure 13 — prefetch effectiveness (PMS)",
        "useful 82–91%, coverage 19–34%, delayed regular commands 1–3%.",
        efficiency.fig13_efficiency, efficiency.render, _fig13_claims,
        note="usefulness lands lower (synthetic phase transitions waste more "
        "prefetches than the authors' traces); coverage spans a wider "
        "range; delayed commands match.",
    ),
    Figure(
        ("fig14",), "Figure 14 — Prefetch Buffer size sweep",
        "8/16/32/1024 blocks: growing helps with diminishing returns; "
        "16 blocks is the knee.",
        sensitivity.fig14_buffer_size, sensitivity.render, _fig14_claims,
    ),
    Figure(
        ("fig15",), "Figure 15 — Stream Filter size sweep",
        "4/8/16/64 slots: growing helps with diminishing returns past "
        "8 entries.",
        sensitivity.fig15_filter_size, sensitivity.render, _fig15_claims,
    ),
    Figure(
        ("fig16",), "Figure 16 — SLH approximation accuracy",
        "the finite 8-slot filter's histogram closely matches the "
        "actual SLH for a GemsFDTD epoch.",
        slh_figures.fig16_slh_accuracy, lambda acc: acc.table(),
        _fig16_claims,
    ),
    Figure(
        ("hardware",), "Section 5.1 — hardware cost",
        "MC area +6.08%, chip area +0.098%, chip power +0.06%; "
        "per-thread state is small.",
        hardware_cost.tab_hardware_cost, hardware_cost.render,
        _hardware_claims,
    ),
    Figure(
        ("smt",), "Section 5.2 — SMT results (2 threads, focus benchmarks)",
        "SMT improvements about the same as single-threaded (PMS vs "
        "NP +28.5/20.4/11.1% per suite; PMS vs PS +10.7/9.2/7.5%).",
        smt.tab_smt, smt.render, _smt_claims,
    ),
    Figure(
        ("scheduler",), "Section 5.3 — memory-scheduler interaction",
        "prefetch gain drops ~5 points with an in-order scheduler, "
        "~1 point with the memoryless scheduler.",
        scheduler_interaction.tab_scheduler_interaction,
        scheduler_interaction.render, _scheduler_claims,
    ),
    Figure(
        ("degree",), "Extension — multi-line prefetching (inequality 6)",
        "described in Section 3.1, not evaluated in the paper.",
        extensions.degree_sweep, extensions.render_degree, _degree_claims,
    ),
    Figure(
        ("asd-only",),
        "Extension — ASD as the only prefetcher (paper future work)",
        "the paper suggests applying ASD beyond the memory side.",
        extensions.asd_only, extensions.render_asd_only, _asd_only_claims,
    ),
    Figure(
        ("epoch",), "Extension — epoch-length sweep",
        "the SLH epoch is a free parameter (Figure 3 uses 2000 reads).",
        lambda: sensitivity.epoch_sweep(benchmarks=("GemsFDTD", "tpcc", "bwaves")),
        sensitivity.render, _epoch_claims,
    ),
)
