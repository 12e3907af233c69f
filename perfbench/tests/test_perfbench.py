"""The benchmark's own tests: metric names, a tiny smoke of each workload,
and a seeded-slowdown self-test of the per-layer accounting.

From the repository root::

    python -m pytest perfbench/tests -q
"""

import json
import os
import re
import time

import pytest

from perfbench import bench
from perfbench.workloads import ExactStream, FabricFast, SweepFast
from repro.dram.device import DRAMDevice
from repro.fabric.coordinator import Coordinator
from repro.fastsim import model as fast_model

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TINY = {
    "exact-stream": lambda seed, workdir: ExactStream(
        seed, workdir, benchmarks=("milc",), accesses=1500),
    "sweep-fast": lambda seed, workdir: SweepFast(
        seed, workdir, benchmarks=("milc", "gamess"), accesses=1500),
    "fabric-fast": lambda seed, workdir: FabricFast(
        seed, workdir, benchmarks=("milc", "gamess"), accesses=1500),
}

#: workload -> (patch target, method, layer share that must rise,
#: throughput that must fall) for the seeded-slowdown self-test
SLOWDOWNS = {
    "exact-stream": (DRAMDevice, "try_issue", 50e-6, "dram.self_share", "mc_cycles_per_s"),
    "sweep-fast": (fast_model, "predict", 0.03, "fastsim.self_share", "jobs_per_s"),
    "fabric-fast": (Coordinator, "lease", 0.03, "fabric.self_share", "jobs_per_s"),
}


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_metric_names_are_well_formed():
    spec = declared()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert set(TINY) == {w["name"] for w in spec["workloads"]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_smoke(name, tmp_path):
    spec = declared()
    report = bench.measure(TINY[name](3, str(tmp_path)), seconds=0)
    assert report.correct, report.messages
    for metric in spec["end_to_end"]:
        assert report.metrics[metric["name"]] > 0, metric["name"]
    traced = bench.trace(TINY[name](3, str(tmp_path)))
    assert traced.correct, traced.messages
    assert {m["name"] for m in spec["per_layer"]} <= set(traced.metrics)


def _delayed(fn, seconds):
    def slow(*args, **kwargs):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return fn(*args, **kwargs)

    return slow


@pytest.mark.parametrize("name", sorted(SLOWDOWNS))
def test_seeded_slowdown_moves_its_layer(name, tmp_path, monkeypatch):
    target, method, delay, share, throughput = SLOWDOWNS[name]
    base = bench.measure(TINY[name](4, str(tmp_path)), seconds=0)
    base_trace = bench.trace(TINY[name](4, str(tmp_path)))
    monkeypatch.setattr(target, method, _delayed(getattr(target, method), delay))
    slow = bench.measure(TINY[name](4, str(tmp_path)), seconds=0)
    slow_trace = bench.trace(TINY[name](4, str(tmp_path)))
    assert slow.correct and slow_trace.correct
    assert slow_trace.metrics[share] > base_trace.metrics[share]
    assert slow.metrics[throughput] < base.metrics[throughput]
