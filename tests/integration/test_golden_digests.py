"""Exact results pinned across commits.

``test_loop_equivalence`` checks the event loop against the reference
loop, but both share the per-tick code: a change that alters both the
same way passes it.  This test pins the store encoding of a small set
of exact ``simulate()`` results (2000 accesses, seed 1) to SHA-256
digests recorded in this file, so any change to what the simulator
computes fails here.

Re-pin only when a change is meant to alter results::

    PYTHONPATH=src python tests/integration/test_golden_digests.py
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.experiments import runner, store
from repro.system.presets import make_config

ACCESSES = 2000
SEED = 1


def _tree_plru(config):
    hier = config.hierarchy
    return config.derive(hierarchy=replace(
        hier,
        l1=replace(hier.l1, replacement="tree_plru"),
        l2=replace(hier.l2, replacement="tree_plru"),
        l3=replace(hier.l3, replacement="tree_plru"),
    ))


#: label -> (benchmark, config name, threads, config transform)
JOBS = {
    f"{bench}/{name}": (bench, name, 1, None)
    for bench in ("milc", "GemsFDTD", "bwaves")
    for name in ("NP", "PS", "MS", "PMS")
}
JOBS["milc/PMS/smt2"] = ("milc", "PMS", 2, None)
JOBS["GemsFDTD/PMS/tree_plru"] = ("GemsFDTD", "PMS", 1, _tree_plru)

GOLDEN = {
    "milc/NP": "32aa845b850f49f4e8a615f168fa783bbce6d7eff9a0262ee91afd8ce36e3667",
    "milc/PS": "a2940ebbbc9784cd48d8c6796ea931ffba1b0a2bcbd8ba27244f0f6dcd1111c3",
    "milc/MS": "5fe5acb06f5d2f7a1d568223debab0f38775adf563c1f4d73307be7eddf14845",
    "milc/PMS": "9b717351be74ddf9750e986dbad5c9cf255c651d9f74663d2615eb37d41c8d37",
    "GemsFDTD/NP": "bcd0d58a72c3424802e54847ee69ee653d03a782f3b86ac5c2eee4c6d9096deb",
    "GemsFDTD/PS": "ede1bdad5923d234f5f31f0e94d6dd6cf299ca58dcae2bc78207b72d74fa26d8",
    "GemsFDTD/MS": "15306036ec2d3f6df2ef5acdb633b348bd02e18c790d0a951735622baf491b92",
    "GemsFDTD/PMS": "6bb1e880b9cfc85b746b3ffd2463d6f7a36d8f2d414075aed34311a46f54bbaf",
    "bwaves/NP": "a0374da3008cd470979d872e33ae806c090f347aa0b59943552f5a0f36920e1e",
    "bwaves/PS": "bbf6da1ac5a276e92429cebea96e8e716ec3fc0948521277723095cb452f49a7",
    "bwaves/MS": "62004d00c7afece7424f323f2d2946441b807265b00bb675d16951e721467519",
    "bwaves/PMS": "7600f2ea1446af08ace8fa2e58aeae3b64e69269dbec7ef95b66aa837d85f483",
    "milc/PMS/smt2": "a55ca05e7704fcda199d41c89aa72c38057adb7676a22d272b4528cd28bfdf39",
    "GemsFDTD/PMS/tree_plru": "a3eff43bd41ec84d38fa04c5ec7878316315589c8eb88c665e5e5c60174382f3",
}


def _digest(label):
    bench, name, threads, transform = JOBS[label]
    config = make_config(name, threads=threads)
    if transform is not None:
        config = transform(config)
    result = runner.simulate_job(config, bench, ACCESSES, SEED, threads=threads)
    text = json.dumps(store.encode_result(result), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_job_is_pinned():
    assert set(GOLDEN) == set(JOBS)


@pytest.mark.parametrize("label", sorted(JOBS))
def test_exact_result_matches_golden_digest(label):
    assert _digest(label) == GOLDEN[label]


if __name__ == "__main__":
    for job in JOBS:
        print(f'    "{job}": "{_digest(job)}",')
