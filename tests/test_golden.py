"""Golden behaviour lock: exact session logs and oracle output on fixed inputs.

Every registered scheme runs on three fixed traces over a CBR and a VBR
manifest (both with quality values), and the sha256 of each
`SessionLog.to_csv()` must match the recorded value; two sessions also pin
`SessionLog.to_json()`. The offline oracle's sequence and objective on a small
instance are pinned the same way, and so are the files that `abrsim run`,
`compare`, `sweep` and `oracle` write (the PID schemes assembled from
non-default `scheme_params`) and the `RunConfig.to_json()` text of a config
that sets every key, and so are the rate and quality tables of three
manifests parsed from JSON. A change that alters any of these on purpose must
update the values here and say why.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _builders import cbr_manifest, constant_trace, vbr_manifest
from abrsim import (
    SCHEMES,
    OfflineObjective,
    SimConfig,
    build_scheme,
    offline_optimal,
    simulate_session,
)
from abrsim.cli import RunConfig, main, noisy_bandwidth, square_wave
from abrsim.media import VideoManifest, parse_manifest

_RATES = (400, 1000, 2200, 4000)
_N_CHUNKS = 60
_DELTA = 2.0


def _cbr():
    vmafs = (45.0, 66.0, 81.0, 92.0)
    return cbr_manifest(_RATES, duration_s=_DELTA, n_chunks=_N_CHUNKS, vmafs=vmafs, name="gold-cbr")


def _vbr():
    rng = random.Random(11)
    complexity = [rng.uniform(0.5, 1.6) for _ in range(_N_CHUNKS)]
    sizes = [[round(rate * 125 * _DELTA * c) for c in complexity] for rate in _RATES]
    vmafs = [
        [min(100.0, max(0.0, base - 12.0 * (c - 1.0))) for c in complexity]
        for base in (48.0, 67.0, 82.0, 93.0)
    ]
    return vbr_manifest(sizes, duration_s=_DELTA, vmafs_by_level=vmafs, name="gold-vbr")


MANIFESTS = {"cbr": _cbr, "vbr": _vbr}
TRACES = {
    "constant": lambda: constant_trace(1800.0, 120),
    "square7": lambda: square_wave(600.0, 3500.0, 30.0, 180, seed=7),
    "noisy3": lambda: noisy_bandwidth(1500.0, 900.0, 150, seed=3),
}

GOLDEN_LOGS = {
    # (scheme, manifest, trace): sha256 of SessionLog.to_csv()
    ("bba0", "cbr", "constant"):
        "66f5c49599c1d89ed054cca5197d4fe830e605f31eb4630e62b4cb66d5769707",
    ("bba0", "cbr", "square7"):
        "a226c936a8b5092059d5504bad39af93ebd66325383c7d77ba823f8399239df6",
    ("bba0", "cbr", "noisy3"):
        "53c95e95f6a57f7a54ea935b96e5649ec83bedc641d17f521945af0359e0651d",
    ("bba0", "vbr", "constant"):
        "6cf3b1f4a028884f75b0599d30fe7abf5758580884f7151f00bd850aceffff0c",
    ("bba0", "vbr", "square7"):
        "8bdab4774d4523b6e4716e35b29c6536f6c3395b419762e571c203d8e8278f7a",
    ("bba0", "vbr", "noisy3"):
        "5f089fc3322fd98896d0ed2c26ccab0ce039481c1403c0b1983913efbb0cea4b",
    ("cava", "cbr", "constant"):
        "744f9a1ae3fbd18ec429358525427935a049108cc01d1227d04aa746cb7b187c",
    ("cava", "cbr", "square7"):
        "4caf817751016a121d63da0af6311a9243bc9e52816f69cabd0e0159ee82968c",
    ("cava", "cbr", "noisy3"):
        "7253d2ca90e731ef72f11836e078ecf441823cd2c01edfe00915b44af1c8c3a4",
    ("cava", "vbr", "constant"):
        "4ed26675fee8f7b2c233cef47286256d2abf40e3d5a4fa503cb06e58ab4e3f37",
    ("cava", "vbr", "square7"):
        "c0f3098d14f44f13369be2780e59d47abf1b8f3d1b9875ea00607ba7310bc734",
    ("cava", "vbr", "noisy3"):
        "8cafb1a3523ad02f853537fcf3a57199071f78cdfd28700fec72118388f5e17e",
    ("mpc", "cbr", "constant"):
        "f17a65f3ecb2dad46b3816e25968b56c79a80881de50562f71ba5bd33cce5c0a",
    ("mpc", "cbr", "square7"):
        "fef4a2e8581bb01a89495fcdb64388c24793e5ae036bb4614c767df4e894567d",
    ("mpc", "cbr", "noisy3"):
        "d6cd5993f7244fe9a42ff9a7bd5553518b9223790103f1352f820df17656bcd1",
    ("mpc", "vbr", "constant"):
        "1d02f146a8d0a5c03e4585a9fb65eda42a4861d8e02703bf2f44f0a8701e1956",
    ("mpc", "vbr", "square7"):
        "9583cc0880ef6bf31a50b03633679f8c219ec97da433eae329fb0fb4b91b03b0",
    ("mpc", "vbr", "noisy3"):
        "0e9a91845f83eda14d29d5c7f5413bd25bbe652bc2f6b2eb2dd6f1520dc6b6a9",
    ("pia", "cbr", "constant"):
        "ddf6b9137cac65c9d8bbe321d8383b54d40fed9735e59661a9de8885936811b5",
    ("pia", "cbr", "square7"):
        "43b7e8f352384f830d3bb9d4f828a745af875638eee45d0bd3f3343aa32e850f",
    ("pia", "cbr", "noisy3"):
        "56f860cbfe7e343cdc0a25d5ef68103fed30211b7079f0186f55a35364cc486e",
    ("pia", "vbr", "constant"):
        "9032611493a8afd15973d1f9691fa95c6483dea01d31c332b53c8658cf8ff18e",
    ("pia", "vbr", "square7"):
        "f2f6c25bb15e3f2a0efc3d698e82929323354842c2f520467a5e39b30d68676e",
    ("pia", "vbr", "noisy3"):
        "5e8fa0e0adee2ebcad2d4d1a7410a3388073a9598feca8bc5aadbeb3790e9a0a",
    ("piae", "cbr", "constant"):
        "9e8b1a018f61eef29cd6dce86d0e8c5b29c649d023cf5643646ff5afa02e4810",
    ("piae", "cbr", "square7"):
        "b5d91719537b6944265cfa6dc16e0fa95cf1ad40cc805fd16b9fca8cc9cd341c",
    ("piae", "cbr", "noisy3"):
        "e2eab2c38fab737ad4f85c0e9d1e03c60ececa13d6ec3a31b13300e0a2507a90",
    ("piae", "vbr", "constant"):
        "d1e6bbe2959ccfad9d9c6c5e6fc889c682e24de4ea15be217c1fb7b12940a932",
    ("piae", "vbr", "square7"):
        "db2302faeff5a63788e6120b18e5732038774ca100b05ae4616c8279c4279b4d",
    ("piae", "vbr", "noisy3"):
        "ddb8ef3d5f0216e991e079c33526973be9a4e99705a73f3ac330cc125674e7c0",
    ("quad", "cbr", "constant"):
        "c88aa4e2905f5cb3c214e79ff6ff356dbdfc699b2b6784530bc1d4db3197731b",
    ("quad", "cbr", "square7"):
        "d8702df1b3dc52e962999503c97470fbcc61f846171b956ad835eb6720ae814c",
    ("quad", "cbr", "noisy3"):
        "c080aad6ff7298c5028fa530c6448abef62911ee0124ace87d0ca7666796297d",
    ("quad", "vbr", "constant"):
        "52d7495413443e0b5aa4fb623d9b50666057b73219d1095953e6234dcc5d8ef7",
    ("quad", "vbr", "square7"):
        "5eed502a898ad95f616e11b6be83736e6db90c4211d7c821c9ea49cc2283a028",
    ("quad", "vbr", "noisy3"):
        "d3c534023deff54c4109697c70f4c453d0a5d797ade050e90211cc2e5e37615a",
    ("rb", "cbr", "constant"):
        "dee14c1f9b89598b0ac7b7db701984a8c7871de9d725d334fa951e995a29b7f4",
    ("rb", "cbr", "square7"):
        "b576e024f52ea48b032aeeabdb39058386ea2778f6d38a33f830242f529a845c",
    ("rb", "cbr", "noisy3"):
        "de8494fc9bd3f8a645d4fd1dc2db5ced59aa28618da79b4a9ec5e0ef14a4e7b8",
    ("rb", "vbr", "constant"):
        "47d9c47282dbbd23c450d6c37c84d50e5bce33e99603162bf899a85eb1ebb6c4",
    ("rb", "vbr", "square7"):
        "2b19727dc7ca35bc6249299075a85724eaf95dc51a212b5882f8832b14551623",
    ("rb", "vbr", "noisy3"):
        "d9780c021a6731e3d779edc15dcc94d15b98246cde590cb841fed345edb36952",
    ("rba", "cbr", "constant"):
        "cc729aa098353a49eebf90654c9dfced513e551f43956ca60164974ccc43ee09",
    ("rba", "cbr", "square7"):
        "511e923c50e81553b3f4696a404ffcd90af7df6180e5cf11bce2b69d1914543d",
    ("rba", "cbr", "noisy3"):
        "4767ac26fcd3434151f2fae0f3a8486acd0267ce8690b831a6f95204a9d3c870",
    ("rba", "vbr", "constant"):
        "437f15beda208cca31e291cc8cb76d5210dce33e9703b69523cfefc9b00fe0d9",
    ("rba", "vbr", "square7"):
        "44e9c43c50d44f01e6d2da1eb3f769eac54f12e14563cdc5256f11cf6bf0bed3",
    ("rba", "vbr", "noisy3"):
        "88288c5e19d03d7243858ad79a02c694e1fa3291e4c97559730f484b4f0899a2",
    ("robustmpc", "cbr", "constant"):
        "f17a65f3ecb2dad46b3816e25968b56c79a80881de50562f71ba5bd33cce5c0a",
    ("robustmpc", "cbr", "square7"):
        "5a5f3970c2f14ad79999e2a50239eb36389de9f14b8f895c283fc634f6208528",
    ("robustmpc", "cbr", "noisy3"):
        "d98d2300a829d39e591a713664df8591fc0022a1f996c5dd90f0b73e6ab44939",
    ("robustmpc", "vbr", "constant"):
        "1d02f146a8d0a5c03e4585a9fb65eda42a4861d8e02703bf2f44f0a8701e1956",
    ("robustmpc", "vbr", "square7"):
        "fe7e9d6041be8d2a82fc5bd61ad7cca0bef4936d4a17e3d2f2b1135e9d36535d",
    ("robustmpc", "vbr", "noisy3"):
        "4f38a1d61cecb5bb77a7952229a19dbb2a26bdd34bf5ba2bf5898de2574b57c2",
}

GOLDEN_LOG_JSON = {
    # (scheme, manifest, trace): sha256 of SessionLog.to_json(), which serializes
    # every Decision field, stall_s and the stall list included
    ("pia", "vbr", "square7"):
        "31f56be25b4937cb3f9fe2192d89a41fd0ef2a6ca5613c6e094cf31fa55c8543",
    ("quad", "vbr", "noisy3"):
        "39b96f4b6e9b8f968618917c0fb67419d7d1288f4b249625f9948b1c975aedc6",
}

GOLDEN_ORACLE = {
    "sequence": (2, 2, 2, 3, 3, 3, 3, 3, 3, 3),
    "objective": 808.900614709426,
}


def session_log(scheme_name: str, manifest_key: str, trace_key: str):
    manifest = MANIFESTS[manifest_key]()
    trace = TRACES[trace_key]()
    return simulate_session(build_scheme(scheme_name), trace, manifest, SimConfig())


def session_csv(scheme_name: str, manifest_key: str, trace_key: str) -> str:
    return session_log(scheme_name, manifest_key, trace_key).to_csv()


def _oracle_manifest():
    rng = random.Random(5)
    sizes = [
        [round(rate * 125 * _DELTA * rng.uniform(0.7, 1.3)) for _ in range(10)]
        for rate in (500, 1500, 3000, 4500)
    ]
    vmafs = [
        [base + rng.uniform(-4.0, 4.0) for _ in range(10)] for base in (40.0, 70.0, 85.0, 95.0)
    ]
    return vbr_manifest(sizes, duration_s=_DELTA, vmafs_by_level=vmafs, name="gold-oracle")


def _oracle_trace():
    return square_wave(300.0, 4000.0, 8.0, 60, seed=2)


def oracle_result():
    return offline_optimal(
        _oracle_trace(), _oracle_manifest(), OfflineObjective(80.0, 10000.0), SimConfig()
    )


CASES = [
    (scheme, manifest, trace)
    for scheme in sorted(SCHEMES)
    for manifest in MANIFESTS
    for trace in TRACES
]


@pytest.mark.parametrize("scheme,manifest,trace", CASES)
def test_session_log_is_unchanged(scheme, manifest, trace):
    digest = hashlib.sha256(session_csv(scheme, manifest, trace).encode()).hexdigest()
    assert digest == GOLDEN_LOGS[(scheme, manifest, trace)]


@pytest.mark.parametrize("scheme,manifest,trace", sorted(GOLDEN_LOG_JSON))
def test_session_log_json_is_unchanged(scheme, manifest, trace):
    text = session_log(scheme, manifest, trace).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_LOG_JSON[(scheme, manifest, trace)]


def _ladder_json(sizes, vmafs, duration_s, is_vbr, name):
    """Manifest JSON from plain per-level size and vmaf lists; declared rates are
    each level's mean chunk rate."""
    tracks = [
        {
            "level": idx + 1,
            "declared_bitrate_kbps": sum(row) * 8.0 / 1000.0 / (duration_s * len(row)),
            "chunks": [{"size_bytes": size, "vmaf": vmaf} for size, vmaf in zip(row, vrow)],
        }
        for idx, (row, vrow) in enumerate(zip(sizes, vmafs))
    ]
    return json.dumps(
        {"name": name, "chunk_duration_s": duration_s, "is_vbr": is_vbr, "tracks": tracks}
    )


def _seeded_ladder(seed, n_chunks, duration_s):
    rng = random.Random(seed)
    complexity = [rng.uniform(0.4, 1.8) for _ in range(n_chunks)]
    sizes = [[round(rate * 125 * duration_s * c) for c in complexity] for rate in _RATES]
    vmafs = [[round(base + rng.uniform(-9.0, 6.0), 3) for _ in complexity] for base in (44, 65, 80, 91)]
    return sizes, vmafs


def _table_manifests():
    vbr = _seeded_ladder(23, 50, 2.0)
    # 0.1 s x 12 chunks: the repeated duration sum (1.2) differs from 12 * 0.1, and
    # so does every level's average
    short = _seeded_ladder(29, 12, 0.1)
    cbr = [[round(rate * 125 * 4.0)] * 20 for rate in _RATES], [[None] * 20 for _ in _RATES]
    return {
        "vbr-2s": _ladder_json(*vbr, 2.0, True, "tables-vbr"),
        "vbr-0.1s": _ladder_json(*short, 0.1, True, "tables-short"),
        "cbr-4s": _ladder_json(*cbr, 4.0, False, "tables-cbr"),
    }


GOLDEN_TABLES = {
    # sha256 of repr((avg_kbps, rate_rows, quality_rows)) of the parsed manifest
    "vbr-2s": "019cb1fa28f79864766a81129c3bc14c0b32104b4b112e613cafc2224694b50a",
    "vbr-0.1s": "2d0de0a2988648eb017e132bcc54f74540ad23cdf40a7013e2c8a4fb93073525",
    "cbr-4s": "49d7da71738d7278a7b000363fc8d64045a8387d54629372d559b96ff2091727",
}


@pytest.mark.parametrize("key", sorted(GOLDEN_TABLES))
def test_manifest_tables_are_unchanged(key):
    m = parse_manifest(_table_manifests()[key])
    text = repr((m.avg_kbps, m.rate_rows, m.quality_rows))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_TABLES[key]


def test_offline_optimal_is_unchanged():
    levels, value = oracle_result()
    assert levels == GOLDEN_ORACLE["sequence"]
    assert value == GOLDEN_ORACLE["objective"]


# -- CLI path -------------------------------------------------------------------

# scheme -> (scheme_params, extra config fields); every value is off its default
CLI_RUNS = {
    "pia": (
        {"kp": 0.006, "ki": 2e-05, "beta": 0.5, "target_buffer": 40.0, "horizon": 4, "eta": 0.5},
        {},
    ),
    "piae": (
        {"kp": 0.01, "ki": 4e-05, "target_buffer": 50.0, "alpha": 3.0, "tau": 200.0, "eta": 2.0},
        {},
    ),
    "cava": (
        {
            "kp": 0.007, "ki": 3e-05, "beta": 0.8, "horizon": 4, "inner_window": 8,
            "outer_window": 6, "base_target_buffer_s": 25.0,
        },
        {"reference_level": 3},
    ),
    "quad": (
        {"kp": 0.012, "ki": 5e-05, "target_buffer": 45.0, "alpha": 2.0, "fair_level": 3},
        {"target_quality": 75.0},
    ),
}

GOLDEN_CLI_RUNS = {
    # scheme: sha256 of decisions.csv from `abrsim run` on the VBR manifest, square7
    "pia":
        "7896376626f82551a6962c7f9aa8f8381bcc0134c44861c21e77288533cfec73",
    "piae":
        "5f7a93381af13c1bb46a9c8f33956f0062a4ac3f5a04f252e48487dae0785b07",
    "cava":
        "3ee007ba01e8fa9d3257f4b9d86f2cc6bacde5c361d382ff4e4364fc1e116962",
    "quad":
        "0ba91c8f6f7998ac5e83cf3ee86defcaa42f0f901d21d5cad219ebafc0680a3f",
}
# compare.csv for pia/piae/cava/quad on two traces, target_quality 75 in the config
GOLDEN_CLI_COMPARE = "2d1cc5ff96930ca8268e27ea5f7334265932d115fb2887061028efc0ebeddde3"
# heatmap.csv for a 3x3 gain grid on three traces with pia's params from scheme_params
GOLDEN_CLI_SWEEP = "6b1f1ad4c3c30c78d3efa50fef5a44711a6aad0b58f1697212cba6d769e33d3a"
# metrics.json from `abrsim run` of pia with weights and a quality target, square7
GOLDEN_CLI_METRICS = "3342fcca4cb3686672169296b4eba1e18eb21a44232e85c49920d68a63794a39"
# oracle.json from `abrsim oracle` on the oracle instance above, non-default sim
# and gamma, with whole numbers given as JSON ints
GOLDEN_CLI_ORACLE = "a8bdadcc93c853deb030f9196a5b592cacbae778bf95b157bee7f7f27f67faea"
# RunConfig.to_json() of FULL_CONFIG
GOLDEN_CONFIG_JSON = "109243062f9117bc80bb399d696845b955cfa2a89921394b2dccf540476ca272"

# every job-config key off its default; numbers given as JSON ints where the
# field is a float, so the pin also covers their conversion
FULL_CONFIG = {
    "manifest": "media/clip.json",
    "traces": ["links/a.csv", "links/b.csv"],
    "trace_dir": "links/more",
    "scheme": "cava",
    "scheme_params": {"kp": 0.007, "horizon": 4, "q4_low_buffer_relief": True},
    "schemes": ["rb", "mpc", "quad"],
    "filter": "tbf+",
    "target_quality": 75,
    "weights": {"mu": 2, "lam": 3.5},
    "sim": {
        "startup_kind": "chunks_buffered",
        "startup_value": 2,
        "max_buffer_s": 40,
        "resume_margin_s": 6.5,
        "rtt_s": 0.02,
        "estimator_kind": "harmonic_chunks",
        "estimator_window": 7,
        "first_chunk_level": 2,
    },
    "gamma": 500,
    "reference_level": 3,
    "include_oracle": True,
    "grid": {"kp_values": [0.006, 0.0088], "ki_values": [2e-05, 3.6e-05]},
    "out_dir": "results/run1",
    "jobs": 3,
    "deterministic": True,
}


def _manifest_json(manifest) -> str:
    tracks = [
        {
            "level": level,
            "declared_bitrate_kbps": declared,
            "chunks": [{"size_bytes": size, "vmaf": vmaf} for size, vmaf in zip(sizes, vmafs)],
        }
        for level, (declared, sizes, vmafs) in enumerate(
            zip(manifest.declared_kbps, manifest.size_rows, manifest.vmaf_rows), 1
        )
    ]
    return json.dumps(
        {
            "name": manifest.name,
            "chunk_duration_s": manifest.chunk_duration_s,
            "is_vbr": manifest.is_vbr,
            "tracks": tracks,
        }
    )


@st.composite
def _row_manifests(draw):
    """Valid manifests: CBR with exact sizes, or VBR whose rows grow level by level."""
    n_levels, n = draw(st.integers(2, 4)), draw(st.integers(1, 8))
    duration = draw(st.sampled_from((0.1, 2.0, 4.0)) | st.floats(0.01, 10.0))
    vmaf = st.none() | st.floats(0.0, 100.0)
    vmafs = [draw(st.lists(vmaf, min_size=n, max_size=n)) for _ in range(n_levels)]
    name = draw(st.text(max_size=6))
    if draw(st.booleans()):
        rates = sorted(draw(st.lists(st.integers(100, 8000), min_size=n_levels, max_size=n_levels)))
        sizes = [[round(rate * 125 * duration)] * n for rate in rates]
        return VideoManifest(name, duration, False, [float(r) for r in rates], sizes, vmafs)
    sizes = [draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n))]
    for _ in range(n_levels - 1):
        steps = draw(st.lists(st.integers(0, 10**5), min_size=n, max_size=n))
        sizes.append([size + step for size, step in zip(sizes[-1], steps)])
    declared = draw(st.lists(st.floats(1.0, 1e5), min_size=n_levels, max_size=n_levels))
    return VideoManifest(name, duration, True, declared, sizes, vmafs)


@settings(max_examples=60, deadline=None)
@given(manifest=_row_manifests())
def test_manifest_json_round_trips(manifest):
    parsed = parse_manifest(_manifest_json(manifest))
    assert parsed == manifest
    assert (parsed.avg_kbps, parsed.rate_rows) == (manifest.avg_kbps, manifest.rate_rows)
    assert parsed.quality_rows == manifest.quality_rows


def _cli_output(tmp_path, command, filename, video=_vbr, links=TRACES, **fields) -> str:
    """sha256 of one output file of an `abrsim` command, by default on the golden
    VBR inputs; each trace file is named by its key in `links`."""
    manifest = tmp_path / "gold-vbr.json"
    manifest.write_text(_manifest_json(video()))
    traces = []
    for key in fields.pop("trace_keys"):
        path = tmp_path / f"{key}.csv"
        path.write_text(links[key]().to_csv())
        traces.append(str(path))
    out = tmp_path / "out"
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(dict(fields, manifest=str(manifest), traces=traces, out_dir=str(out)))
    )
    assert main([command, "--config", str(config)]) == 0
    return hashlib.sha256((out / filename).read_bytes()).hexdigest()


@pytest.mark.parametrize("scheme", sorted(CLI_RUNS))
def test_cli_run_with_scheme_params_is_unchanged(tmp_path, scheme):
    params, extra = CLI_RUNS[scheme]
    digest = _cli_output(
        tmp_path, "run", "decisions.csv",
        trace_keys=("square7",), scheme=scheme, scheme_params=params, **extra,
    )
    assert digest == GOLDEN_CLI_RUNS[scheme]


def test_cli_compare_is_unchanged(tmp_path):
    digest = _cli_output(
        tmp_path, "compare", "compare.csv",
        trace_keys=("square7", "noisy3"), schemes=sorted(CLI_RUNS), target_quality=75.0,
    )
    assert digest == GOLDEN_CLI_COMPARE


def test_cli_sweep_with_scheme_params_is_unchanged(tmp_path):
    digest = _cli_output(
        tmp_path, "sweep", "heatmap.csv",
        trace_keys=("constant", "square7", "noisy3"),
        scheme_params={"beta": 0.5, "target_buffer": 40.0, "horizon": 3, "eta": 0.5},
        grid={"kp_values": [0.006, 0.0088, 0.012], "ki_values": [2e-05, 3.6e-05, 6e-05]},
    )
    assert digest == GOLDEN_CLI_SWEEP


def test_cli_run_metrics_are_unchanged(tmp_path):
    digest = _cli_output(
        tmp_path, "run", "metrics.json",
        trace_keys=("square7",), scheme="pia", target_quality=75.0,
        weights={"mu": 2.0, "lam": 3.5},
    )
    assert digest == GOLDEN_CLI_METRICS


def test_cli_oracle_is_unchanged(tmp_path):
    digest = _cli_output(
        tmp_path, "oracle", "oracle.json",
        video=_oracle_manifest, links={"oracle": _oracle_trace}, trace_keys=("oracle",),
        target_quality=80, gamma=2000,
        sim={"startup_value": 3, "max_buffer_s": 30, "rtt_s": 0.05},
    )
    assert digest == GOLDEN_CLI_ORACLE


def test_config_json_is_unchanged():
    text = RunConfig.from_json(json.dumps(FULL_CONFIG)).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_CONFIG_JSON
    assert RunConfig.from_json(text).to_json() == text
