"""Exact and fast results pinned across commits.

``test_loop_equivalence`` checks the event loop against the reference
loop, but both share the per-tick code: a change that alters both the
same way passes it.  This test pins the store encoding of a small set
of exact ``simulate()`` results (2000 accesses, seed 1) to SHA-256
digests recorded in this file, so any change to what the simulator
computes fails here.  The fast tier has no second implementation to
check against, so its results (``simulate_job_fast``, same grid), one
fast-model probe series and the generated trace records it reads are
pinned the same way.

Re-pin only when a change is meant to alter results::

    PYTHONPATH=src python tests/integration/test_golden_digests.py
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro import generate_trace, get_profile
from repro.experiments import runner, store
from repro.fastsim import FastModelProbes, simulate_job_fast
from repro.system.presets import make_config

ACCESSES = 2000
SEED = 1
#: long enough for several fast-model epochs and every GemsFDTD phase
PROBE_ACCESSES = 8000
TRACE_ACCESSES = 20000


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


def _closed_page(config):
    return config.derive(dram=replace(config.dram, page_policy="closed"))


#: label -> (benchmark, config name, threads, config transform)
FAST_JOBS = {
    f"{bench}/{name}": (bench, name, 1, None)
    for bench in ("milc", "GemsFDTD", "bwaves")
    for name in ("NP", "PS", "MS", "PMS",
                 "PMS_NEXTLINE", "PMS_P5MC", "PMS_DEGREE3")
}
for _bench in ("milc", "GemsFDTD", "bwaves"):
    FAST_JOBS[f"{_bench}/PMS/closed_page"] = (_bench, "PMS", 1, _closed_page)
    FAST_JOBS[f"{_bench}/PMS/smt2"] = (_bench, "PMS", 2, None)

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

FAST_GOLDEN = {
    "milc/NP": "669ff0399adb4f1f4dacf9609095889bdbdcd6cda796e5e8db1bb38f3ba1958b",
    "milc/PS": "6bafea44678d90be7678bede456dc0cd40a5eeffc94d7db5bbe82b6fa2239d8a",
    "milc/MS": "f69f4037eccbc23dd30deaafb3b919b8ef2a142af6a2f8a01ac077f686e249b6",
    "milc/PMS": "826e14965a9263efab28fd737925c4ffafa4263eb6ab4649fdf9842f7279091a",
    "milc/PMS_NEXTLINE": "f08ee1d47b7f9770fbc8153caee06de55c6fd1b58ba2365ee2174f90bbaa9457",
    "milc/PMS_P5MC": "bbf478248c6f562ddd5116cf2ed7c1cf9bbdbfed1c0566b1bc1a3acb1697ef34",
    "milc/PMS_DEGREE3": "1ec628e6ebc7ca417fe6df5663fa2e66059289d17ffd82f87c03b59e27c4e00b",
    "GemsFDTD/NP": "3097312c3e69c741cc75a8b9158412d51e8360489dadb4910615a573feb2ede2",
    "GemsFDTD/PS": "07cc07aae766c5cb03391996a38c7526a04a5dfeefc8a78d85d84d8dd0adb02d",
    "GemsFDTD/MS": "9087b643a73fddf4cbcbef3758dc1c31527c64841cc2e78858d4799bdadaac66",
    "GemsFDTD/PMS": "d00fbc0cc65ffb7899acf78de098e7dd3688ea748bff6e14e6c822470d90758a",
    "GemsFDTD/PMS_NEXTLINE": "22db7b62a4b98db356326e83e7b4fbc2aec0329a72f1aaf60360a5d612a3578e",
    "GemsFDTD/PMS_P5MC": "4fdb168fce42a18132067439e5efd500931f32b40911224fdb9b41263800ef85",
    "GemsFDTD/PMS_DEGREE3": "d57577edb68169448ef5436b7b315cef09cb2efff60b6d2c79cbe24145b25710",
    "bwaves/NP": "ca771cc89f3f22e7ee6bebb23475760f795e050ec72ba58432cfa4eb6367ece7",
    "bwaves/PS": "1da8a4c5ef321769212e35ed32dc59a9364ce4e6cbd4be55d2c5951627b90adb",
    "bwaves/MS": "e63f13693706cd68802fe0841829d96654d40bdbbed6ebf4cb2a41b116cb0c57",
    "bwaves/PMS": "0573944ceb2cc11021ba533c6ba2ab735943ff51805306e63e3ee641ac7b8153",
    "bwaves/PMS_NEXTLINE": "eff9c013bbc5a3a49e1f25fed77eb882452671feb5268f6aad12dbabf0f7af86",
    "bwaves/PMS_P5MC": "305c5a93cdf452aeaf3a0393b99c909c970385cef2768421d9590f075de5fe82",
    "bwaves/PMS_DEGREE3": "e2826bdc38a7aee9977c200efa0d0e3a70b0d6c0144e27398c33eb72366cad7a",
    "milc/PMS/closed_page": "19ffea3bf6256637a81d9973bf60de0ab57a602489f94a9a44669b7f30a612de",
    "milc/PMS/smt2": "3bc538e7cd8cfa0aeb79d3512ad28c710aeb0b1cfde4dbfc0df4cf14f46983a2",
    "GemsFDTD/PMS/closed_page": "11ff7a9f6cd1402117f7d37e0661b71920f81bb995b794ed7439b91f3aabdfb5",
    "GemsFDTD/PMS/smt2": "a174a39a74c9e3714e03a6025ad1a87187d896be5375bb91b48ade6b2419b927",
    "bwaves/PMS/closed_page": "b11ba6586b805547ef47459f999d65e48fbfc86bf998374163b047840f32288b",
    "bwaves/PMS/smt2": "f1ff553a5397b9682800de8a69a81c368ee39968400a4fd43d26100eeb0ecc92",
}
PROBE_GOLDEN = "fe25c67828bddfefa20e99324aab8d321b2eb1ab2b7bc7c828a59cff1015e469"
TRACE_GOLDEN = {
    "GemsFDTD": "9c3d326aa1a927c85859ea2d82a19e42954c0b091b579359834efbae1e9a5fa5",
    "milc": "753c6da1f773350c867698bd7693c5e354d7e20ee69db165d666d8cd99ece83c",
}


def _sha256(doc):
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _config(name, threads, transform):
    config = make_config(name, threads=threads)
    return config if transform is None else transform(config)


def _digest(label):
    bench, name, threads, transform = JOBS[label]
    result = runner.simulate_job(_config(name, threads, transform), bench,
                                 ACCESSES, SEED, threads=threads)
    return _sha256(store.encode_result(result))


def _fast_digest(label):
    bench, name, threads, transform = FAST_JOBS[label]
    result = simulate_job_fast(_config(name, threads, transform), bench,
                               ACCESSES, SEED, threads=threads)
    return _sha256(store.encode_result(result))


def _probe_digest():
    probes = FastModelProbes()
    simulate_job_fast(make_config("PMS"), "GemsFDTD", PROBE_ACCESSES, SEED,
                      probes=probes)
    return _sha256(probes.as_dict())


def _trace_digest(bench):
    trace = generate_trace(get_profile(bench).workload, TRACE_ACCESSES,
                           seed=SEED)
    return _sha256(trace.records)


def test_every_job_is_pinned():
    assert set(GOLDEN) == set(JOBS)
    assert set(FAST_GOLDEN) == set(FAST_JOBS)


@pytest.mark.parametrize("label", sorted(JOBS))
def test_exact_result_matches_golden_digest(label):
    assert _digest(label) == GOLDEN[label]


@pytest.mark.parametrize("label", sorted(FAST_JOBS))
def test_fast_result_matches_golden_digest(label):
    assert _fast_digest(label) == FAST_GOLDEN[label]


def test_fast_probe_series_matches_golden_digest():
    assert _probe_digest() == PROBE_GOLDEN


@pytest.mark.parametrize("bench", sorted(TRACE_GOLDEN))
def test_trace_records_match_golden_digest(bench):
    assert _trace_digest(bench) == TRACE_GOLDEN[bench]


if __name__ == "__main__":
    print("GOLDEN = {")
    for job in JOBS:
        print(f'    "{job}": "{_digest(job)}",')
    print("}")
    print("FAST_GOLDEN = {")
    for job in FAST_JOBS:
        print(f'    "{job}": "{_fast_digest(job)}",')
    print("}")
    print(f'PROBE_GOLDEN = "{_probe_digest()}"')
    print("TRACE_GOLDEN = {")
    for bench in ("GemsFDTD", "milc"):
        print(f'    "{bench}": "{_trace_digest(bench)}",')
    print("}")
