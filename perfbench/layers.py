"""Per-layer accounting taken from outside the program.

Two instruments, both attached by the benchmark around public entry
points; nothing under ``src/`` knows about them.

* :class:`SimProfiler` wraps the bound methods of one
  :class:`~repro.system.simulator.System`'s blocks on the instance
  attributes the blocks call each other through, and charges self time
  and call counts to a per-layer stack.  An exact job at 20000
  accesses makes ~10^6 cross-block calls, so one span per call would
  cost more than the work; a stack push, a pop and two clock reads do
  not.
* :class:`LayerCollector` is a live :class:`~repro.obs.spans.
  SpanCollector` whose parentless spans nest under the calling
  thread's innermost open span.  Installed as the process default it
  also collects the program's own ``sweep.*`` and ``fabric.*`` spans;
  :func:`orchestration_patches` adds ``perf.<layer>.<call>`` spans
  around the orchestration entry points, and self time comes from
  :func:`repro.obs.critpath.self_times`.
"""

from __future__ import annotations

import inspect
import os
import threading
from contextlib import ExitStack
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple
from unittest import mock

from repro.experiments import runner, store, sweep
from repro.fabric.client import FabricClient
from repro.fabric.coordinator import Coordinator
from repro.fastsim import model as fast_model
from repro.fastsim.gate import FidelityGate
from repro.obs import critpath
from repro.obs.spans import Span, SpanCollector, check_context, new_trace_id
from repro.system.simulator import DEFAULT_MAX_CYCLES, System

#: Simulator layers, named after the repo modules they live in.
SIM_LAYERS = ("system", "controller", "prefetch_ms", "prefetch_ps", "dram",
              "cache", "cpu")

#: Orchestration layers that get a ``<layer>.self_share`` of a traced
#: pass (the rest of the pass is the benchmark's own code).
ORCH_LAYERS = ("workloads", "fastsim", "sweep", "store", "fabric")


def _public_methods(obj: object) -> Iterable[Tuple[str, Callable]]:
    """``(name, bound method)`` for every public plain method of ``obj``."""
    for name in dir(type(obj)):
        if name.startswith("_"):
            continue
        if inspect.isfunction(inspect.getattr_static(obj, name)):
            yield name, getattr(obj, name)


class SimProfiler:
    """Self time and cross-layer call counts of one or more exact runs.

    Time is charged to the layer on top of the stack; entering a
    wrapped method of another layer pushes it.  A call into the layer
    already on top runs unwrapped, so ``calls`` counts layer entries,
    not method calls.  ``system`` is the bottom of the stack: the main
    loop, fast-forward arithmetic and result collection.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(SIM_LAYERS, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(SIM_LAYERS, 0)
        self.ticks_executed = 0
        self.cycles_skipped = 0
        self.cycles = 0
        self._stack: List[str] = ["system"]
        self._mark = [0.0]

    def _wrap(self, fn: Callable, layer: str) -> Callable:
        stack = self._stack
        mark = self._mark
        self_s = self.self_s
        calls = self.calls
        clock = perf_counter

        def wrapper(*args, **kwargs):
            top = stack[-1]
            if top == layer:
                return fn(*args, **kwargs)
            now = clock()
            self_s[top] += now - mark[0]
            mark[0] = now
            stack.append(layer)
            calls[layer] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                self_s[layer] += now - mark[0]
                mark[0] = now
                stack.pop()

        return wrapper

    def instrument(self, system: System) -> None:
        """Wrap every cross-block entry point of ``system`` (before run)."""
        blocks = (
            (system.controller, "controller"),
            (system.ms, "prefetch_ms"),
            (system.ms.lpq, "prefetch_ms"),
            (system.ms.scheduler, "prefetch_ms"),
            (system.ps, "prefetch_ps"),
            (system.dram, "dram"),
            (system.power_model, "dram"),
            (system.hierarchy, "cache"),
            (system.core, "cpu"),
        )
        for obj, layer in blocks:
            for name, method in list(_public_methods(obj)):
                setattr(obj, name, self._wrap(method, layer))
        # callbacks one block holds as a plain attribute of another
        controller = system.controller
        controller.on_read_complete = self._wrap(controller.on_read_complete, "cpu")
        controller.core_depth_probe = self._wrap(controller.core_depth_probe, "cpu")
        system.ms.on_merge_ready = self._wrap(system.ms.on_merge_ready, "controller")

    def run(self, system: System, loop: str = "event",
            max_cycles: int = DEFAULT_MAX_CYCLES):
        """Instrument ``system``, run it, and return its result."""
        self.instrument(system)
        self.calls["system"] += 1
        self._mark[0] = perf_counter()
        try:
            result = system.run(max_cycles=max_cycles, loop=loop)
        finally:
            self.self_s[self._stack[-1]] += perf_counter() - self._mark[0]
        self.ticks_executed += system.loop_stats["ticks_executed"]
        self.cycles_skipped += system.loop_stats["cycles_skipped"]
        self.cycles += result.cycles
        return result

    def simulate(self, config, traces, max_cycles=DEFAULT_MAX_CYCLES,
                 tracer=None, probes=None, loop=None):
        """Drop-in for :func:`repro.system.simulator.simulate`."""
        system = System(config, traces, tracer=tracer, probes=probes)
        return self.run(system, loop=loop or "event", max_cycles=max_cycles)

    def metrics(self, untraced_wall_s: float) -> Dict[str, float]:
        """Per-layer figures; ``untraced_wall_s`` times the same runs untraced."""
        total = sum(self.self_s.values())
        out: Dict[str, float] = {}
        for layer in SIM_LAYERS:
            out[f"{layer}.self_share"] = self.self_s[layer] / total if total else 0.0
            out[f"{layer}.calls"] = self.calls[layer]
        out["system.ticks_executed"] = self.ticks_executed
        out["system.cycles_skipped_frac"] = (
            self.cycles_skipped / self.cycles if self.cycles else 0.0
        )
        out["system.host_us_per_tick"] = (
            untraced_wall_s * 1e6 / self.ticks_executed
            if self.ticks_executed else 0.0
        )
        return out


class _NestedSpan(Span):
    """A live span that leaves its thread's nesting stack when finished."""

    __slots__ = ("owner",)

    def finish(self, status: Optional[str] = None) -> Optional[Dict[str, Any]]:
        document = super().finish(status)
        try:
            self.owner.remove(self)
        except ValueError:
            pass
        return document


class LayerCollector(SpanCollector):
    """Live collector; a span opened without a parent nests under the
    calling thread's innermost open span."""

    def __init__(self, capacity: int = 1 << 17) -> None:
        super().__init__(enabled=True, capacity=capacity)
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, parent=None, trace_id: Optional[str] = None,
             **attributes: Any):
        stack = self._stack()
        if parent is None and trace_id is None and stack:
            parent = stack[-1]
        if isinstance(parent, Span):
            trace, parent_id = parent.trace_id, parent.span_id
        elif parent is not None:
            context = check_context(parent)
            trace, parent_id = context["trace"], context["span"]
        else:
            trace, parent_id = trace_id or new_trace_id(), None
        span = _NestedSpan(self, name, trace, parent_id, dict(attributes))
        span.owner = stack
        stack.append(span)
        return span


def spanned(collector: LayerCollector, name: str, fn: Callable,
             attrs: Optional[Callable[..., Mapping[str, Any]]] = None) -> Callable:
    """``fn`` inside a span ``name`` (attributes from ``attrs(*args)``)."""

    def wrapper(*args, **kwargs):
        extra = attrs(*args, **kwargs) if attrs is not None else {}
        with collector.span(name, **extra):
            return fn(*args, **kwargs)

    return wrapper


def orchestration_patches(collector: LayerCollector, stack: ExitStack) -> None:
    """Span every orchestration entry point for the life of ``stack``."""

    def patch(target, attr: str, name: str, attrs=None) -> None:
        stack.enter_context(mock.patch.object(
            target, attr, spanned(collector, name, getattr(target, attr), attrs)
        ))

    patch(runner, "generate_trace", "perf.workloads.generate_trace")
    patch(fast_model, "predict", "perf.fastsim.predict")
    patch(FidelityGate, "calibrate", "perf.fastsim.calibrate")
    patch(sweep, "prepare", "perf.sweep.prepare")
    patch(sweep, "compute_job", "perf.sweep.compute_job",
          lambda *a, **k: {"fidelity": a[5] if len(a) > 5 else k["fidelity"]})
    patch(store.ResultStore, "get", "perf.store.get")

    original_put = store.ResultStore.put

    def put(self, spec, result):
        with collector.span("perf.store.put") as span:
            path = original_put(self, spec, result)
            span.set_attr(bytes=os.path.getsize(path))
        return path

    stack.enter_context(mock.patch.object(store.ResultStore, "put", put))
    patch(FabricClient, "submit", "perf.fabric.submit")
    patch(FabricClient, "lease", "perf.fabric.lease")
    patch(FabricClient, "complete", "perf.fabric.complete")
    patch(FabricClient, "heartbeat", "perf.fabric.heartbeat")
    patch(FabricClient, "fetch_calibrated_suite", "perf.fabric.fetch")
    for method in ("submit", "lease", "complete", "heartbeat", "sweep_status"):
        patch(Coordinator, method, f"perf.fabric.coordinator.{method}")


#: Spans the program synthesizes after the fact or on other threads;
#: they duplicate time already covered by a ``perf.*`` span of the
#: driving thread, so the pass partition leaves their subtrees out.
_DUPLICATES = frozenset({
    "sweep.job", "sweep.exec", "sweep.queue_wait",
    "fabric.sweep", "fabric.lease", "fabric.report", "fabric.execute",
})


def _layer_of(name: str) -> str:
    parts = name.split(".")
    if parts[0] == "perf" and len(parts) > 2:
        return parts[1]
    if parts[0] in ("sweep", "fabric"):
        return parts[0]
    return "bench"


def pass_partition(spans: List[Mapping[str, Any]], root: Mapping[str, Any]) -> List[Mapping[str, Any]]:
    """The spans of ``root``'s trace that tile its wall clock once."""
    trace = [doc for doc in spans if doc["trace"] == root["trace"]]
    by_id = {doc["span"]: doc for doc in trace}
    keep: Dict[str, bool] = {}

    def kept(doc) -> bool:
        span_id = doc["span"]
        if span_id not in keep:
            parent = by_id.get(doc.get("parent"))
            keep[span_id] = doc["name"] not in _DUPLICATES and (
                parent is None or kept(parent)
            )
        return keep[span_id]

    return [doc for doc in trace if kept(doc)]


def orchestration_metrics(spans: List[Mapping[str, Any]], root: Mapping[str, Any],
                          wall_s: float) -> Dict[str, float]:
    """Per-layer figures of one traced pass whose root span is ``root``.

    Shares are of the root span; ``wall_s`` is the pass's own timed
    region, which ``fabric.overhead_frac`` compares execution against.
    """
    def named(prefix: str) -> List[Mapping[str, Any]]:
        return [doc for doc in spans if doc["name"].startswith(prefix)]

    def total(prefix: str) -> float:
        return sum(doc["duration_s"] for doc in named(prefix))

    root_s = root["duration_s"]
    shares = dict.fromkeys(ORCH_LAYERS, 0.0)
    for name, seconds in critpath.self_times(pass_partition(spans, root)).items():
        layer = _layer_of(name)
        if layer in shares:
            shares[layer] += seconds
    out: Dict[str, float] = {
        f"{layer}.self_share": (seconds / root_s if root_s else 0.0)
        for layer, seconds in shares.items()
    }
    puts = named("perf.store.put")
    executes = named("perf.sweep.compute_job")
    exec_fast = sum(doc["duration_s"] for doc in executes
                    if doc["attrs"].get("fidelity") == "fast")
    exec_exact = sum(doc["duration_s"] for doc in executes
                     if doc["attrs"].get("fidelity") != "fast")
    out.update({
        "workloads.trace_gen_s": total("perf.workloads.generate_trace"),
        "workloads.traces": len(named("perf.workloads.generate_trace")),
        "fastsim.predict_s": total("perf.fastsim.predict"),
        "fastsim.calls": len(named("perf.fastsim.predict")),
        "fastsim.calibrate_s": total("perf.fastsim.calibrate"),
        "sweep.prepare_s": total("perf.sweep.prepare"),
        "store.put_s": total("perf.store.put"),
        "store.puts": len(puts),
        "store.bytes_written": sum(doc["attrs"].get("bytes", 0) for doc in puts),
        "fabric.submit_s": total("perf.fabric.submit"),
        "fabric.lease_s": total("perf.fabric.lease"),
        "fabric.leases": len(named("perf.fabric.lease")),
        "fabric.complete_s": total("perf.fabric.complete"),
        "fabric.completes": len(named("perf.fabric.complete")),
        "fabric.heartbeats": len(named("perf.fabric.heartbeat")),
        "fabric.coordinator_s": total("perf.fabric.coordinator."),
        "fabric.exec_fast_s": exec_fast,
        "fabric.exec_exact_s": exec_exact,
        "fabric.fetch_s": total("perf.fabric.fetch"),
        "fabric.overhead_frac": (
            1.0 - (exec_fast + exec_exact) / wall_s
            if wall_s and named("perf.fabric.submit") else 0.0
        ),
    })
    return out
