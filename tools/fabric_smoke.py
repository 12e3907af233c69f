"""CI smoke test for the sweep fabric (docs/fabric.md).

Stands up a real two-worker localhost fleet as *subprocesses* — one
``repro fabric serve`` coordinator and two ``repro fabric work`` agents
with separate local stores — submits a small real grid through the
``repro fabric submit`` CLI, polls the coordinator's ``/progress.json``
until the sweep finishes, and then asserts the acceptance criteria
end to end:

1. the sweep completes with every job executed by a worker (fresh
   stores, so nothing dedupes);
2. the coordinator's store holds results **byte-identical** to a serial
   ``run_suite`` of the same grid into a fresh store — same SHA-256
   job-key filenames, equal JSON payloads (the store writes
   canonically, so file bytes compare);
3. the fleet ``/metrics`` endpoint reports per-worker job counts that
   sum to the grid size;
4. ``/healthz`` answers with coordinator role + worker liveness;
5. resubmitting the finished grid queues nothing, and
   ``/progress.json`` (the sweeps accepted since the fleet was last
   idle) then reads ``done == total == GRID``, not the two sweeps;
6. ``repro fabric watch`` without ``--sweep`` exits 0 on the idle
   fleet within 30 s.

Exits non-zero with a message on the first failed assertion.

Usage::

    PYTHONPATH=src python tools/fabric_smoke.py [--keep DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import time
import urllib.request

BENCHMARKS = ["milc", "tonto"]
CONFIGS = ["NP", "PS"]
ACCESSES = 2000
SEED = 1
GRID = len(BENCHMARKS) * len(CONFIGS)

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
SRC = os.path.join(REPO_ROOT, "src")


def fetch(url: str) -> str:
    with urllib.request.urlopen(url, timeout=10) as response:
        if response.status != 200:
            raise SystemExit(f"fabric_smoke: GET {url} -> {response.status}")
        return response.read().decode("utf-8")


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def spawn(args, store_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_STORE_DIR"] = store_dir
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        env=env, cwd=REPO_ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def wait_for(predicate, timeout, message):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.2)
    raise SystemExit(f"fabric_smoke: timed out waiting for {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", metavar="DIR", default=None,
                        help="artifact root to use (kept afterwards); "
                             "default: a fresh temp dir")
    args = parser.parse_args(argv)

    root = args.keep or tempfile.mkdtemp(prefix="repro-fabric-smoke-")
    os.makedirs(root, exist_ok=True)
    coord_store = os.path.join(root, "coordinator-store")
    serial_store = os.path.join(root, "serial-store")
    port = free_port()
    url = f"http://127.0.0.1:{port}"

    coordinator = spawn(
        ["fabric", "serve", "--port", str(port), "--lease-seconds", "30"],
        coord_store,
    )
    workers = []
    processes = [coordinator]
    try:
        def coordinator_up():
            if coordinator.poll() is not None:
                raise SystemExit(
                    "fabric_smoke: coordinator exited early:\n"
                    + coordinator.stdout.read()
                )
            try:
                return json.loads(fetch(url + "/healthz"))["status"] == "ok"
            except OSError:
                return False

        wait_for(coordinator_up, 30, "the coordinator to come up")

        workers = [
            spawn(
                ["fabric", "work", "--coordinator", url, "--id", f"w{n}",
                 "--capacity", "1", "--poll", "0.2", "--drain-idle", "3"],
                os.path.join(root, f"worker{n}-store"),
            )
            for n in (1, 2)
        ]
        processes += workers

        def submit_grid():
            submit = spawn(
                ["fabric", "submit", "--coordinator", url,
                 "-b", *BENCHMARKS, "-c", *CONFIGS,
                 "-n", str(ACCESSES), "--seed", str(SEED)],
                os.path.join(root, "client-store"),
            )
            out, _ = submit.communicate(timeout=60)
            if submit.returncode != 0:
                raise SystemExit(f"fabric_smoke: submit failed:\n{out}")
            print(out.strip())
            return out

        out = submit_grid()
        if f"{GRID} jobs" not in out or f"{GRID} queued" not in out:
            raise SystemExit(
                f"fabric_smoke: expected a fresh {GRID}-job submission, "
                f"got:\n{out}"
            )

        def sweep_done():
            progress = json.loads(fetch(url + "/progress.json"))
            return progress["done"] == GRID and progress["finished"]

        wait_for(sweep_done, 180, "the fleet to finish the grid")

        # -- per-worker /metrics accounting ----------------------------
        exposition = fetch(url + "/metrics")
        per_worker = {}
        for line in exposition.splitlines():
            if line.startswith("repro_fabric_jobs_total{"):
                labels, value = line.rsplit(" ", 1)
                if 'outcome="executed"' in labels or 'outcome="store"' in labels:
                    worker = labels.split('worker="', 1)[1].split('"', 1)[0]
                    per_worker[worker] = per_worker.get(worker, 0) + int(
                        float(value)
                    )
        if sum(per_worker.values()) != GRID:
            raise SystemExit(
                f"fabric_smoke: per-worker job counts {per_worker} do not "
                f"sum to the grid size {GRID}"
            )
        print(f"per-worker jobs: {per_worker} (sum = {GRID})")

        health = json.loads(fetch(url + "/healthz"))
        if health.get("role") != "fabric-coordinator" or not health.get("workers"):
            raise SystemExit(f"fabric_smoke: bad /healthz: {health}")

        # -- a finished grid resubmitted: a new progress window ---------
        out = submit_grid()
        if "0 queued" not in out:
            raise SystemExit(
                f"fabric_smoke: resubmission queued jobs:\n{out}"
            )
        progress = json.loads(fetch(url + "/progress.json"))
        if not progress["done"] == progress["total"] == GRID:
            raise SystemExit(
                f"fabric_smoke: /progress.json after the resubmission reads "
                f"done {progress['done']} / total {progress['total']}, "
                f"expected {GRID} / {GRID}"
            )
        print(f"resubmitted: /progress.json reads {GRID}/{GRID}")

        watch = spawn(["fabric", "watch", "--coordinator", url],
                      os.path.join(root, "client-store"))
        processes.append(watch)
        try:
            out, _ = watch.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            raise SystemExit(
                "fabric_smoke: fabric watch did not exit on the idle fleet "
                "within 30 s"
            ) from None
        if watch.returncode != 0:
            raise SystemExit(f"fabric_smoke: fabric watch failed:\n{out}")
        print(f"fabric watch exited 0: {out.strip().splitlines()[-1]}")
    finally:
        for process in processes:
            if process.poll() is None:
                process.terminate()
        for process in processes:
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()

    # -- byte-identical store vs. the serial path ----------------------
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_STORE_DIR"] = serial_store
    serial = subprocess.run(
        [sys.executable, "-c",
         "from repro.experiments.runner import run_suite; "
         f"run_suite({BENCHMARKS!r}, {CONFIGS!r}, accesses={ACCESSES}, "
         f"seed={SEED})"],
        env=env, cwd=REPO_ROOT, capture_output=True, text=True,
    )
    if serial.returncode != 0:
        raise SystemExit(f"fabric_smoke: serial run failed:\n{serial.stderr}")

    fabric_entries = sorted(
        name for name in os.listdir(coord_store)
        if name.endswith(".json") and not name.startswith(".")
    )
    serial_entries = sorted(
        name for name in os.listdir(serial_store)
        if name.endswith(".json") and not name.startswith(".")
    )
    if fabric_entries != serial_entries:
        raise SystemExit(
            "fabric_smoke: store keys differ\n"
            f"  fabric: {fabric_entries}\n  serial: {serial_entries}"
        )
    if len(fabric_entries) != GRID:
        raise SystemExit(
            f"fabric_smoke: expected {GRID} store entries, "
            f"got {len(fabric_entries)}"
        )
    for name in fabric_entries:
        with open(os.path.join(coord_store, name), "rb") as handle:
            fabric_bytes = handle.read()
        with open(os.path.join(serial_store, name), "rb") as handle:
            serial_bytes = handle.read()
        if fabric_bytes != serial_bytes:
            raise SystemExit(f"fabric_smoke: payload mismatch in {name}")

    print(f"fabric_smoke: OK ({GRID} jobs over 2 workers; "
          f"{len(fabric_entries)} store entries byte-identical to serial)")
    if not args.keep:
        shutil.rmtree(root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
