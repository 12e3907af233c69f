"""The cycle-stepped full-system simulator.

One :class:`System` binds together the core(s), the cache hierarchy,
the processor-side prefetcher, the memory controller with its embedded
memory-side prefetcher, the DRAM device, and the DRAM power model, and
steps them in the MC (DDR bus) clock domain until every trace has been
consumed and the memory system has drained.

Two main-loop modes produce field-for-field identical
:class:`~repro.system.results.RunResult`\\ s:

* ``"event"`` (default) — event-driven: whenever the machine is in a
  *deterministic wait* (reorder queues empty, every thread blocked on
  memory or burning pure stall/instruction-gap cycles, and the
  CAQ/LPQ heads — if any — refused by DRAM bank/bus timing), the loop
  computes the next "interesting" cycle from ``min(next completion,
  DRAM issue-ready, next core event)`` and jumps there, applying the
  skipped cycles' accounting in bulk.  Waits and compute stretches
  cost O(1) instead of O(cycles).
* ``"reference"`` — the literal per-cycle tick, kept as the executable
  specification; the golden equality test and ``REPRO_LOOP=reference``
  pin optimized runs against it.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence, Union

from repro.cache.hierarchy import CacheHierarchy
from repro.common.config import SystemConfig
from repro.common.stats import Stats
from repro.controller.controller import MemoryController
from repro.cpu.core import Core
from repro.dram.device import DRAMDevice
from repro.dram.power import DRAMPowerModel
from repro.prefetch.asd_processor_side import build_processor_side
from repro.prefetch.memory_side import MemorySidePrefetcher
from repro.system.results import RunResult
from repro.telemetry.probes import EpochProbes
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.workloads.trace import Trace

#: Hard cap so a mis-configured run fails loudly instead of spinning.
DEFAULT_MAX_CYCLES = 200_000_000

#: Recognised main-loop modes (see the module docstring).
LOOP_MODES = ("event", "reference")


def default_loop_mode() -> str:
    """The main-loop mode used when none is passed (env-overridable).

    ``REPRO_LOOP=reference`` forces every run onto the literal
    per-cycle loop — useful for CI golden checks and for bisecting a
    suspected fast-forward bug.
    """
    return os.environ.get("REPRO_LOOP", "event")


def resolve_loop_mode(loop: Optional[str]) -> str:
    """Apply the default for ``None`` and validate the mode name."""
    mode = default_loop_mode() if loop is None else loop
    if mode not in LOOP_MODES:
        raise ValueError(
            f"unknown loop mode {mode!r}; expected one of {LOOP_MODES}"
        )
    return mode


class System:
    """A fully wired simulated machine, runnable once.

    ``tracer`` (default: the disabled :data:`NULL_TRACER`) is threaded
    through every instrumented block; ``probes`` — an unbound
    :class:`EpochProbes` — is bound to this system at construction and
    samples per-epoch series while the run executes.
    """

    def __init__(
        self,
        config: SystemConfig,
        traces: Union[Trace, Sequence[Trace]],
        tracer: Optional[Tracer] = None,
        probes: Optional[EpochProbes] = None,
    ):
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if probes is not None and not self.tracer.enabled:
            # probes sample on epoch_boundary events: with no enabled
            # tracer they would record nothing, and binding them to the
            # shared NULL_TRACER would keep this System alive
            raise ValueError("probes need an enabled tracer to sample on")
        if isinstance(traces, Trace):
            traces = [traces]
        traces = list(traces)
        config = config.derive(threads=len(traces)).validate()
        self.config = config
        self.probes = probes
        self.power_model = DRAMPowerModel(config.dram, config.dram_power)
        self.dram = DRAMDevice(
            config.dram, power=self.power_model, tracer=self.tracer
        )
        self.ms = MemorySidePrefetcher(
            config.ms_prefetcher, threads=len(traces), tracer=self.tracer
        )
        self.controller = MemoryController(
            config.controller,
            self.dram,
            self.ms,
            cpu_ratio=config.core.cpu_ratio,
            tracer=self.tracer,
        )
        self.hierarchy = CacheHierarchy(config.hierarchy)
        self.ps = build_processor_side(config.ps_prefetcher)
        self.core = Core(
            config.core,
            self.hierarchy,
            self.ps,
            self.controller,
            traces,
            tracer=self.tracer,
        )
        self.traces = traces
        self.now = 0
        self._ran = False
        #: main-loop instrumentation (kept out of RunResult.stats so
        #: that loop modes stay field-for-field comparable): executed
        #: ticks, fast-forward jumps, and cycles covered by jumps.
        self.loop_stats: Dict[str, int] = {
            "mode": "",
            "ticks_executed": 0,
            "jumps": 0,
            "cycles_skipped": 0,
        }
        if probes is not None:
            probes.bind(self)

    # ------------------------------------------------------------------
    def run(
        self,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        loop: Optional[str] = None,
    ) -> RunResult:
        """Simulate to completion and return the measured result.

        ``loop`` selects the main-loop mode (default:
        :func:`default_loop_mode`).  Both modes return identical
        results; ``"event"`` fast-forwards deterministic waits.
        """
        if self._ran:
            raise RuntimeError("a System instance runs exactly once")
        self._ran = True
        mode = resolve_loop_mode(loop)
        self.loop_stats["mode"] = mode
        if mode == "event":
            return self._run_event(max_cycles)
        return self._run_reference(max_cycles)

    def _cap_exceeded(self, ticks: int, max_cycles: int) -> RuntimeError:
        self.loop_stats["ticks_executed"] = ticks
        return RuntimeError(
            f"simulation exceeded {max_cycles} cycles; "
            "likely a deadlock or runaway configuration"
        )

    def _run_reference(self, max_cycles: int) -> RunResult:
        """The literal per-cycle loop: tick every MC cycle, no jumps."""
        controller = self.controller
        core = self.core
        controller_tick = controller.tick_reference
        core_tick = core.tick
        ticks = 0
        while not (core.done and controller.idle()):
            now = self.now
            controller_tick(now)
            core_tick(now)
            ticks += 1
            self.now = now + 1
            if now >= max_cycles:
                raise self._cap_exceeded(ticks, max_cycles)
        self.loop_stats["ticks_executed"] = ticks
        return self._collect()

    def _run_event(self, max_cycles: int) -> RunResult:
        """The event-driven loop: tick, then jump deterministic waits.

        After each executed cycle the loop asks whether the upcoming
        cycles are provably inert: ticking through them would only
        advance time.  That holds when the reorder->CAQ stage is frozen
        (reorder queues empty, or the FIFO CAQ full so nothing may
        move), no completion is due, every thread is blocked on memory
        or linearly burning stall/gap budget, and any pending CAQ/LPQ
        head is refused by DRAM bank/bus timing.  The tests run
        cheapest first, and the loop then jumps to the next event --
        the earliest of the next completion, the head's DRAM issue
        cycle and the core's linear horizon -- applying the skipped
        cycles' accounting in bulk.

        The CAQ-full case is safe for the Adaptive Scheduling
        predicates: the reorder-dependent policies (1-3) all require an
        empty CAQ, so with the CAQ occupied the LPQ/CAQ choice depends
        only on queue lengths and arrival stamps -- all frozen across
        the window.
        """
        controller = self.controller
        core = self.core
        dram = self.dram
        loop_stats = self.loop_stats
        controller_tick = controller.tick
        core_tick = core.tick
        linear_horizon = core.linear_horizon
        next_scheduler_event = controller.next_scheduler_event
        bulk_tick = controller.bulk_tick
        note_wait_refusal = controller.note_wait_refusal
        consume_wait = core.consume_wait
        rq_items = controller._rq_items
        wq_items = controller._wq_items
        caq_items = controller._caq_items
        lpq_items = controller._lpq_items
        completions = controller._completions
        caq_depth = controller.caq.depth
        limit = max_cycles + 1  # the first cycle a wait may not reach
        now = self.now
        ticks = 0
        # idle test: the queues and the completion heap before core.done
        while (
            rq_items or wq_items or caq_items or lpq_items or completions
            or not core.done
        ):
            controller_tick(now)
            core_tick(now)
            ticks += 1
            if now >= max_cycles:
                self.now = now + 1
                raise self._cap_exceeded(ticks, max_cycles)
            now += 1
            # dense phase: commands flow reorder->CAQ every cycle
            if (rq_items or wq_items) and len(caq_items) < caq_depth:
                continue
            if completions:
                bound = completions[0][0]  # absolute cycle of the next event
                if bound <= now:
                    continue  # the next tick delivers it
            else:
                bound = None
            horizon = linear_horizon()
            if horizon == 0:
                continue  # the next tick executes an access
            sched_at, refused = next_scheduler_event(now)
            if sched_at is not None:
                if sched_at <= now:
                    continue  # the next tick may issue or hit the buffer
                if bound is None or sched_at < bound:
                    bound = sched_at
            if horizon is not None:
                core_at = now + horizon
                if bound is None or core_at < bound:
                    bound = core_at
            if bound is None:
                # nothing queued, in flight or running: a deadlocked or
                # mis-wired machine walks into the cycle guard loudly
                continue
            if bound > limit:
                bound = limit  # never sail past the cycle guard
            skip = bound - now
            bulk_tick(now, skip)
            if refused is not None:
                # a per-cycle loop would have probed DRAM each wait
                # cycle: lazily applying refresh deadlines along the
                # way, and counting the head as MS-delayed on the first
                # refusal
                note_wait_refusal(refused, now)
                end = now + skip - 1
                # catch_up_refreshes' early-out, hoisted: most windows
                # end before the next refresh deadline
                refresh_at = dram._refresh_horizon
                if refresh_at is not None and end >= refresh_at:
                    dram.catch_up_refreshes(end)
            consume_wait(skip)
            now = bound
            loop_stats["jumps"] += 1
            loop_stats["cycles_skipped"] += skip
            if now > max_cycles:
                # a wait extended past the cap: fail exactly as the
                # per-cycle loop would after ticking there
                self.now = now
                raise self._cap_exceeded(ticks, max_cycles)
        self.now = now
        loop_stats["ticks_executed"] = ticks
        controller.settle_integrals(now)
        return self._collect()

    # ------------------------------------------------------------------
    def _collect(self) -> RunResult:
        stats = Stats()
        stats.merge(self.controller.stats, "mc.")
        stats.merge(self.dram.stats, "dram.")
        stats.merge(self.ms.stats, "ms.")
        engine_stats = getattr(self.ms.engine, "stats", None)
        if engine_stats is not None:
            stats.merge(engine_stats, "engine.")
        stats.merge(self.ms.buffer.stats, "pb.")
        stats.merge(self.ms.lpq.stats, "lpq.")
        stats.merge(self.ms.scheduler.stats, "sched.")
        stats.merge(self.hierarchy.stats, "mem.")
        stats.merge(self.hierarchy.l1.stats, "l1.")
        stats.merge(self.hierarchy.l2.stats, "l2.")
        stats.merge(self.hierarchy.l3.stats, "l3.")
        stats.merge(self.core.stats, "core.")
        stats.merge(self.ps.stats, "ps.")
        stats.set("sched.final_policy", self.ms.scheduler.policy)
        telemetry = None
        if self.tracer.enabled:
            telemetry = {"tracer": self.tracer.summary()}
            if self.probes is not None:
                telemetry["probes"] = self.probes.summary()
        return RunResult(
            config_name=self.config.name,
            benchmark=self.traces[0].name,
            cycles=self.now,
            instructions=self.core.retired_instructions,
            cpu_ratio=self.config.core.cpu_ratio,
            stats=stats.as_dict(),
            power=self.power_model.finalize(self.now),
            telemetry=telemetry,
        )


def simulate(
    config: SystemConfig,
    traces: Union[Trace, Sequence[Trace]],
    max_cycles: int = DEFAULT_MAX_CYCLES,
    tracer: Optional[Tracer] = None,
    probes: Optional[EpochProbes] = None,
    loop: Optional[str] = None,
) -> RunResult:
    """Build a :class:`System` from ``config`` and run it on ``traces``.

    ``tracer`` / ``probes`` switch on the telemetry subsystem for this
    run (see :mod:`repro.telemetry`); both default to off.  ``loop``
    selects the main-loop mode (``"event"`` / ``"reference"``, default
    :func:`default_loop_mode`); results are identical either way.
    """
    return System(config, traces, tracer=tracer, probes=probes).run(
        max_cycles=max_cycles, loop=loop
    )
