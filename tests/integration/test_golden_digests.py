"""Exact and fast results pinned across commits.

``test_loop_equivalence`` checks the event loop against the reference
loop, but both share the per-tick code: a change that alters both the
same way passes it.  This test pins the store encoding of a small set
of exact ``simulate()`` results (2000 accesses, seed 1) to SHA-256
digests recorded in this file, so any change to what the simulator
computes fails here.  One exact probe series (``EpochProbes`` reads
the occupancy integrals mid-run) is pinned the same way.  The fast
tier has no second implementation to check against, so its results
(``simulate_job_fast``: the exact grid's variants, plus every profile
under NP/PS/MS/PMS), one fast-tier probe series (the same
``EpochProbes``, pinned the same way) and the generated trace records
it reads (every profile) are pinned as well.

Re-pin only when a change is meant to alter results::

    PYTHONPATH=src python tests/integration/test_golden_digests.py
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro import BENCHMARKS, generate_trace, get_profile
from repro.experiments import runner, store
from repro.fastsim import simulate_job_fast
from repro.system.presets import make_config
from repro.telemetry import EpochProbes

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
# every profile under the Figure-5 configs
for _bench in BENCHMARKS:
    for _name in ("NP", "PS", "MS", "PMS"):
        FAST_JOBS.setdefault(f"{_bench}/{_name}", (_bench, _name, 1, None))

#: label -> (benchmark, accesses) of a generated trace
TRACE_JOBS = {bench: (bench, TRACE_ACCESSES) for bench in ("GemsFDTD", "milc")}
TRACE_JOBS.update(
    {f"{bench}@{ACCESSES}": (bench, ACCESSES) for bench in BENCHMARKS}
)

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
    "gamess/NP": "7cbea035b99ec74e9c768fcda428d03913fd3627dbc3aaac50bf0f8e2a565b99",
    "gamess/PS": "49a37ca02e06feaca40e69110436e7cf84cd13bfe3372acee2a40abc2a0eb885",
    "gamess/MS": "e7943b432e14659b9a04b84b0c687a125e99f20bb6b2f8fd47bdcfc20b4ddfbd",
    "gamess/PMS": "9ef81d1177d1ece6290f1acb15f45d3458d6fa450ac587d38d709825ac9fe292",
    "zeusmp/NP": "4b7aece5de9941bb448b73e425a71f198fc216cb4be0d2bc45e4f2730455a4c5",
    "zeusmp/PS": "14543d2df0c9e1020473ab3c60fee1cf7f35b15b7ad6d296066775e39e567a48",
    "zeusmp/MS": "1948580c7bee563aa81ed1e050595a6ab98ecfa8f47e7c3b70722d9437720c2b",
    "zeusmp/PMS": "55f27dd2ff0adcbecb1e85baad5d8be03d2c14d41c05fec5239d0dc0e63cb714",
    "gromacs/NP": "5f5728c3af68df9cc8d9a6027aef2a70fb3b53b9437d9f769a1afff3bcdbe4e0",
    "gromacs/PS": "a5adc95ca913e3633d06a01661f96b6c00698971656ee05e2d4d844420034b1c",
    "gromacs/MS": "f8e30c21f4d61512caceb306c86ad2c1021c3cbddc8808e9619b92d5eb4be4c6",
    "gromacs/PMS": "c74df325cd38e401fb158c70896ded431d3aad94783528e1090cc71f85684244",
    "cactusADM/NP": "f9570275ed532ac89f654e0a9801a638cb2b1948c10dc47bce71e87b0fb3ca95",
    "cactusADM/PS": "1c73d99d85ddecb156cf0c9c6ddcec641ee12a97fb0c49b6a824d77a7779658a",
    "cactusADM/MS": "3a37457b82a1e5690b76cfe65643f2f8f492b4d3c8fc50fe85de722eb5a64702",
    "cactusADM/PMS": "ba402a40d84c3f3154e18565b26f20d76268ef56c8cf886d345fb7381beb4b96",
    "leslie3d/NP": "684bc3984a15b84a1f6b6edaa1df575953c22796d31df1056edb48fe205570e8",
    "leslie3d/PS": "f0162d6dd16a4166f0c2a6d8a0678bfd9cc0dbe8a8da345bbf51086df997ac61",
    "leslie3d/MS": "f3f9664f4456ecbf74db611aafbfdbb79343712313081796f2ce83c4ef2a5d45",
    "leslie3d/PMS": "5c52d73315729716d3d2d1779daad9f3b0c2909e7db235db809039801714d983",
    "namd/NP": "5b5b546631be45e80b9af380343350843a0fadc75a69e6d8291cb84151a8e7a8",
    "namd/PS": "bd77e160198123efa8047fc1f8dea82e0c48ef3d630c7a2e7410bf555b18b899",
    "namd/MS": "5e745ba30b08412913d80d4dbeeef46436f655d04d40af632cd856be88957a1e",
    "namd/PMS": "a3e5a83bf959376085c72acaaee99bb4410dfb7abaf079b348a9e69be03ee359",
    "dealII/NP": "35056385565e42067ece976d0858757f3626de7d42e0610053e2ffd8d2b59b98",
    "dealII/PS": "71ddcd6701e5ffc1f4881f3ece20994be536cd5b3b1fb2d24112c6b4ed62a079",
    "dealII/MS": "0a1084df07561c1e1f80912d27560116e2de39fdcd8ec1a259623975a3504ba0",
    "dealII/PMS": "99571d436fc250af057cb0a4be6e5d8435428d3e2f90683708ba048f223021d4",
    "soplex/NP": "82a99cf1c188cd76201b312b7cded805fb01e3d43fa7017e5eb6b4b8d37e5366",
    "soplex/PS": "853a9b8006bd4e950b301c3fb5f1eb212b990a38f82baab2a1e19f87bf584079",
    "soplex/MS": "37bd151aa2a310253e914e541621469601ae7fbfc31cafdae23fc456257757eb",
    "soplex/PMS": "5a121b5d041384cc4d5b391b136a172dd51662fcf00fb155fd71e9b1105ceeb7",
    "povray/NP": "078ee1100fa7913232aba455a427ec34c4aa129f495103e9cd5d3f0d69417815",
    "povray/PS": "b7d83cfa0eb7e3e4674222fe497ac50bb95b6d13fcda542509a48a8a9ad0b81e",
    "povray/MS": "a7a51009069b0c5838a256b4abdf90b5f2090a78533b6abfce41718c30be2e0a",
    "povray/PMS": "fa8ae236f92afcd57d75ac90f22b9ee4c5f0c7a266d30442c35081652b22800c",
    "calculix/NP": "32551ab4b82710efa9805f5f98d8234f9dcfe9cf43a4551a4d351f493199cc63",
    "calculix/PS": "9d153ae2d101f8716cc997873ab16b71946445bc6d4b4855e41bec82ea1713f8",
    "calculix/MS": "860bdff989ccad72814304e4f5db8183a6b0d0029f7d2bee743af5f2dbd17bc5",
    "calculix/PMS": "a483c92047c271799c604c46ae6e899e579853c67b538f8ab76cef35cafbe800",
    "tonto/NP": "93b49b687ebbb49f72f62218c7e517308bf3a020927d681cafaab6278f718120",
    "tonto/PS": "63719d83ea2e05a2050e59d6ac9f9912b885bcd4506e7915a952133ac12a81fc",
    "tonto/MS": "0336b64766d19024dec99fd4b36cf974fa13fd981549cf10337175106ec64610",
    "tonto/PMS": "527f3f73d6517c81b9642712b3f1a95bc8147c0f51142e9df00ac9924ba29cfd",
    "lbm/NP": "20c3d16564d4c0088ac889a0182196503e7b424495a12515110f90acd65fff06",
    "lbm/PS": "5cc247281a1ea16662e6a72707901acfb99b2b071b81929b027549d38cf1bb90",
    "lbm/MS": "1e2d16c34a76139b8f1bd953944f37ca03bc0219e51c180d7dd72fbca6bae196",
    "lbm/PMS": "1f8b4f427b81c2d835acbe180dd9fd30101962c573a135d7431cb51c8b9fab23",
    "wrf/NP": "a774bc612597cc053231e5c3eea3c96110eae0d88d13c531e1172e90bbd88137",
    "wrf/PS": "9a7430319d596da53e5acc936d316f330699bcf8d3ad3bd63d6f80988cdc22c4",
    "wrf/MS": "43313b86d449ad618353c368f6ac10ee19d24b70d3eedd2a3eb6eca9ee059756",
    "wrf/PMS": "b22489f192589b813efb9c8177fdd22d05e946e48f6ddcaef71dcf5580d044b6",
    "sphinx3/NP": "394f91f1215f6c1a3c1ed45740e2272abb67f191fbe8ca30a2213310707088b2",
    "sphinx3/PS": "071c152526f6e0cf16a3556aead432e456e0a86d69b68998d4fab41d4c21b2ae",
    "sphinx3/MS": "26b09af69befd7f3eda45d2449d370b79f12ce07d423ff5c74209054ab88afeb",
    "sphinx3/PMS": "c622e91849bb20bebce5c8c2bdfd22f493d8a48fd1f924a02308b02ba7ad94eb",
    "bt/NP": "19dc6c1568503b370071a7997cd709db178d26b6547ef24b547c1c79b7c9b03f",
    "bt/PS": "216ed9ac56ac10f1da20d0db785fc7a3c737129719fa3688b2ee5ed06e9b4964",
    "bt/MS": "3dafebe527638d6683f2c9dcdcb36628ce828dab76a5cc89bdd9a6bf38727a6d",
    "bt/PMS": "b6158532ab6e0bd9ef6d335d364839412b1985085489e3795a07bdc758b9b907",
    "cg/NP": "3a1924e1bde0de9604d78d4469aa06606706f63e7a367071970353f1cd6d26cb",
    "cg/PS": "0dbabd43d97ac6eb08b2d52e97da550e36a801ac5567b703735d0f9ba01261e5",
    "cg/MS": "339372d935e1d35966c262525c6771c842473798a01fd8e1cb32c3ba20b89b87",
    "cg/PMS": "a737a4db8f1493f44826231b3a02f32305110ececf53120359a9abba72de9564",
    "ep/NP": "44853c5106b80b68b93467df4c7b6f2de994c436ad6978b0369fa25ff3a4be9b",
    "ep/PS": "83990abfcc5540943b257f2cb275a5d776a4fa33e2ef4a2047e8b7ed7f2a6b21",
    "ep/MS": "5ac60e163c830b3d94122828ac06d8941537719f0a34864c421e3060764bd2ca",
    "ep/PMS": "a2791ca58327d475b7e1cfc9753ce396fb02132ff3ea83884bce375670774dee",
    "ft/NP": "c524f31b584a23928eadae9f5a7b764deeeda9ea571c8e86347bcd65c516fc09",
    "ft/PS": "3398ebccbc8b25ac99e3a216c5baaae19057991cd32df30a255d358703df49e1",
    "ft/MS": "9231224fb37b0c01949f1042550ccae33852db5d131b95b679a3f1180ed31cca",
    "ft/PMS": "f591faeecf7f297b03adea05ad2b85866862b78c4b80994b0d2f5f4e8d664b6b",
    "is/NP": "f9821d61e81cfb0b187d960d8e57a15801c89a80c8d914c1fd253b0ced8586cf",
    "is/PS": "1381fb39dd05071509587a54221c9b658b7030c6d05c00a3c4645007defac9cc",
    "is/MS": "0f9c8572ef2354e19545193d605d21425b7335ca5325a7d5ff5c2d8825c75406",
    "is/PMS": "37a53bc3479db68a34c4d91f629499162a583cea32c0782c408457959a32ac6a",
    "lu/NP": "7da1f549ed1b5383f28c54c9cb1accc9f90821d3c2447f870fbbce9a38f88c22",
    "lu/PS": "4c0f0fa0525cc60bf5f844c7d12181daa429016bcd56a3d6769186f0bd2fb780",
    "lu/MS": "496cb2dc8de55eaccb06986b47bd04bb3b9596c02b29bf78ef04ab56654fc8d1",
    "lu/PMS": "7ee2fa05ab71a5fa87a7db5767482d71ed46675522fcbe34ee55ba68a6c5a3f7",
    "mg/NP": "10416f004ff159f5033c6cc956371011513cf58a7d6f06ae5493efd5fd1c0b07",
    "mg/PS": "1c3e88b10477ba710355b7dd7ad7f7e6afc86c24ae44e04ebd8fffe53c708d0e",
    "mg/MS": "3b58b4acafec8374ba22a18eb89c97f7683033f36a1b76abe7d7a42226ce3f6f",
    "mg/PMS": "c3be66868238551650b7fd2b843ee9f2cc625e6e349bf3422f10e13989812664",
    "sp/NP": "72f90f229273989ea250348caf8e20cd86ff8439ea5b8c5008ffd9b9ba168f27",
    "sp/PS": "f0dd20ea87825e7b56efa8fbc9f15aa62a30f4bcd11803d3c9515e82486b865c",
    "sp/MS": "57bbf9ec62607e8e53731f87fe7c6ac4717ba7bf89427642cd94af64563a68df",
    "sp/PMS": "fbb1b1289af7fe1b0875195bb4ac519da20d7558f039e1e97ea9d46bdbc9ea72",
    "tpcc/NP": "bcd0767515ff62659f960dc3a8193a4d7edfb1588e129e146fafbded24d12828",
    "tpcc/PS": "358946e6e70a739a01271f2d2c9169fb0a6947eceef364462312ad6a10f0f763",
    "tpcc/MS": "72fabc62a1e4b87ae760021e95babe0fa1153c1076851ad4de04d967d51d5751",
    "tpcc/PMS": "106c8fd817ffe6815b6ea578b97f83bfd7b1a499454679dca960997bda3df5a0",
    "trade2/NP": "9b273ee79ff6e3608dc1790bdb52192e0430fbb5bf570f655cdf8586d4b78c84",
    "trade2/PS": "b90192d488a6ae96aacc94649c8fceb4b1428e0cf979a31a3429fc4e7cb7a821",
    "trade2/MS": "d06899915b8dc73a70b19fe2f655ccb44507819c88f0c14d75d596f184d40e08",
    "trade2/PMS": "73c0f8324c9ecd5f73a555cdc3a2bd12fba897e884b99a6f2e6269c0256ed097",
    "cpw2/NP": "2192ab316c61d3cf3544970a561ee8745cb038cd1867763d7bd3649027b8bff1",
    "cpw2/PS": "b64c9d7e6d43600ea793f22c59feb8b73e2ab50a713d15b2dcb5f8de7b46f8f7",
    "cpw2/MS": "0c1d6a2ad9f5037703d09458e3c5c0c82eb7a6ca72d52d68ba930d9833d66e78",
    "cpw2/PMS": "12acaa67bc5680a7103ff49c395ab24afdf24ff360a6a2eb1b4f4c1aa6bebbc6",
    "sap/NP": "eb6ae16c738245dc295b93ea15426a4f588c6226f6c50a8da079133755f6265c",
    "sap/PS": "83c26d78dae16cf78fe8b8ead66501ee04c7b71fcb489f74120dbadc1de090d3",
    "sap/MS": "a69711176de0ee38e08c2d6506dc32e6847f2572552ff5d6dd37694320e93c83",
    "sap/PMS": "5c4ec7f91e03eaa0046dd6cda7b52e173c58d3933245034da315c8fbe10b159a",
    "notesbench/NP": "1e328143b8bb34f559db2efadeccbded64a7b29744c83638608f3df2b4d04450",
    "notesbench/PS": "aa181e623bb9368ee7e5fda42121b3a5ab5aa1711cb765fdfda3aea8518e79a8",
    "notesbench/MS": "dd9e44115c594b98abb05acd8e17167685d10c2953256bea9c6e714fdccd57bd",
    "notesbench/PMS": "1b27efdfc5b1381978676be51bfa3c7119d4de58b4439db99846ea86d320adec",
}
EXACT_PROBE_GOLDEN = "5337a96c9da89e5e65b3d9384f411bc1420edb2fb37ae659f101bf5d240c8867"
PROBE_GOLDEN = "c8d22d3af8ebf386e65c8bcbe04458b67f30ea399ab272ba3dab6ad153f1b91b"
TRACE_GOLDEN = {
    "GemsFDTD": "9c3d326aa1a927c85859ea2d82a19e42954c0b091b579359834efbae1e9a5fa5",
    "milc": "753c6da1f773350c867698bd7693c5e354d7e20ee69db165d666d8cd99ece83c",
    "bwaves@2000": "e682d56d9c4e3ff9d9dbaff643d63f14e6a5c3cbcf99218c9b650ca04eb2bad6",
    "gamess@2000": "754670b500dc382ad26d110227806605d2cdb47568df69cdc14e3a6d7e9dc813",
    "milc@2000": "754c0f7aaf38085885ed9093daa6f7638bc24cdc6ab1f0cee2a058b8ca755aaa",
    "zeusmp@2000": "13963c8c1204c6c3a3fecf6d3c09cd0c9ee45317b81e0d7c0047f8ab00802986",
    "gromacs@2000": "b7cbea11c5151febd75457359ebca89351badf22de9e4784977f59834d609d0c",
    "cactusADM@2000": "70876dabcb673e546227e4cb95e6174f86a4abb60e3ee839d7d00485c58fb254",
    "leslie3d@2000": "e5bf7b620a22b36746553993a1aa5492b917b6315d0ee262a6670883bc087043",
    "namd@2000": "a72af57f6d17bfffcf2a5884444622eab6e4703b7ade9a6dc6adb3ac5571d4bc",
    "dealII@2000": "0b9e8e454248ffabbb9c6a742fe650c55adf7038e9df8769fc83f455aa85acb4",
    "soplex@2000": "b708165bb7be99a7ebb60cc770ebdaffb8610647801e5d1e65ef6795793c1a3e",
    "povray@2000": "8d9642395ccf6de2800f4f82366d1080660d1baeb6622683fe5ef7bacb3dbb75",
    "calculix@2000": "cfb285860c7b0625bdd26aebe62aa7c9fddd686f0edda541190770c0feec3182",
    "GemsFDTD@2000": "f9b3629dd62e70bb90acdd93bc0cd17dbb210592bddb40c40a409f084cb9aa98",
    "tonto@2000": "3506487a1588fb1978e63d3a0d1d46859a6bb74582cbd8bd7c9689246f186950",
    "lbm@2000": "a51eb0b8fd3d8945e320063a88d7bc15910e1e864a38bcb12924f9eddb715620",
    "wrf@2000": "d1ff55f1a56685a0f07e08b530ea1cba48ce008a8399ae0e913fae1cc1162351",
    "sphinx3@2000": "c3dabab5cc9af73a555d0611c263e57d97e4c3d2e13643d8e97c0ab95c619509",
    "bt@2000": "408236fa1a8deb7460d0476e73af39c23e832c84c8e7ccf7f189b2895e2006ff",
    "cg@2000": "589d3f4c3c2d0e51378c8907bf53bd85613bbc230d2faea837d99364cf176ce4",
    "ep@2000": "7978b358464917d26c75a1dd8568b246f03aa1a9a714fa648297553613e09be8",
    "ft@2000": "7c104557dea05512a457a734ac57c5d3c45ab04ddc5532519b6f586af31e6dd9",
    "is@2000": "efd0e4cc39c382398cbac417ce83a94756a6839c02a21aabc261a00378b49ad4",
    "lu@2000": "821909b50814a700c59180a09761584cea68ea4a7d7a371e06d558e4da8df19e",
    "mg@2000": "70954a4e5d17fb695438b552095ee8afc6d0b7a5488f54e3777e804f515c5f48",
    "sp@2000": "6a3de1f31edf47c9fca2e6bab14fb7eb7310e581e3088e81a41db585afe6bf89",
    "tpcc@2000": "968d4733ef169fd77aba139839e35867fc73f0d7e6b877497293ca6213cbccf9",
    "trade2@2000": "f9abfd8f9856553e0cdca063d49ad7746c83f008c98b5df7fa8a9660efda7a26",
    "cpw2@2000": "188eb35375bfaafade581b315bfcecd7af531f70214e1b94ccfdf59a6821c0ea",
    "sap@2000": "9d4adf59c93fd5c529d4b86e2e3a1a667dbf8636966488f2c78bafc1513b5287",
    "notesbench@2000": "56eeecd90bdd391e9cde70897bd03a32b66654f4bd6473d2cdac6523ebc43fbb",
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


def _exact_probe_digest():
    probes = EpochProbes(interval=1)
    runner.simulate_job(make_config("PMS"), "GemsFDTD", PROBE_ACCESSES, SEED,
                        probes=probes)
    return _sha256({name: s.samples() for name, s in probes.series.items()})


def _probe_digest():
    probes = EpochProbes(interval=1)
    simulate_job_fast(make_config("PMS"), "GemsFDTD", PROBE_ACCESSES, SEED,
                      probes=probes)
    return _sha256({name: s.samples() for name, s in probes.series.items()})


def _trace_digest(label):
    bench, accesses = TRACE_JOBS[label]
    trace = generate_trace(get_profile(bench).workload, accesses, seed=SEED)
    return _sha256(trace.records)


def test_every_job_is_pinned():
    assert set(GOLDEN) == set(JOBS)
    assert set(FAST_GOLDEN) == set(FAST_JOBS)
    assert set(TRACE_GOLDEN) == set(TRACE_JOBS)


@pytest.mark.parametrize("label", sorted(JOBS))
def test_exact_result_matches_golden_digest(label):
    assert _digest(label) == GOLDEN[label]


@pytest.mark.parametrize("label", sorted(FAST_JOBS))
def test_fast_result_matches_golden_digest(label):
    assert _fast_digest(label) == FAST_GOLDEN[label]


def test_exact_probe_series_matches_golden_digest():
    assert _exact_probe_digest() == EXACT_PROBE_GOLDEN


def test_fast_probe_series_matches_golden_digest():
    assert _probe_digest() == PROBE_GOLDEN


@pytest.mark.parametrize("label", sorted(TRACE_JOBS))
def test_trace_records_match_golden_digest(label):
    assert _trace_digest(label) == TRACE_GOLDEN[label]


if __name__ == "__main__":
    print("GOLDEN = {")
    for job in JOBS:
        print(f'    "{job}": "{_digest(job)}",')
    print("}")
    print("FAST_GOLDEN = {")
    for job in FAST_JOBS:
        print(f'    "{job}": "{_fast_digest(job)}",')
    print("}")
    print(f'EXACT_PROBE_GOLDEN = "{_exact_probe_digest()}"')
    print(f'PROBE_GOLDEN = "{_probe_digest()}"')
    print("TRACE_GOLDEN = {")
    for label in TRACE_JOBS:
        print(f'    "{label}": "{_trace_digest(label)}",')
    print("}")
