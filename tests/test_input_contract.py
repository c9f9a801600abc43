"""Input contract for job configs, scheme parameters and Python-built objects.

Every job-config key and every `scheme_params` key of the parameterised
schemes is fed each of a fixed set of bad JSON values. The outcome of each
case (accepted, or the exception type and message) is pinned twice: one
literal case per distinct message, and the sha256 of the whole sorted table,
so a refactor of the checks must keep every message, word for word. Objects
built in Python are held to the same contract, and every parameter field
(the scheme classes' and the manifest's scalars included) declares its kind and
bound in a `spec`, which the CLI reads its keys and their types from.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest

import abrsim
import abrsim.cli
from abrsim.cli import _KEYS, RunConfig
from abrsim.control import ControlError, PidParams, Record, fields
from abrsim.engine import SimConfig
from abrsim.media import BandwidthTrace, MediaError, VideoManifest
from abrsim.metrics import OfflineObjective, QoeWeights
from abrsim.schemes import (
    SCHEMES,
    ConfigError,
    Mpc,
    Pia,
    PiaStartup,
    allowed_from_filter,
    build_scheme,
)
from abrsim.tuning import GainGrid, HeatMap

BAD_JSON = ("NaN", "Infinity", "1e400", "true", '"3"', "[1]", "{}", "-1", "0", "2.5", "101")
# siblings a group needs besides the key under test
_SIBLINGS = {"weights": {"mu": 1.0, "lam": 1.0}, "grid": {"kp_values": [0.0088], "ki_values": [3.6e-5]}}
PARAM_SCHEMES = ("pia", "piae", "cava", "quad", "bba0", "mpc")


def _config_json(key: str, bad: str) -> str:
    """Config text that sets `key` to the JSON text `bad`, and a group's other needed keys."""
    group, _, name = key.rpartition(".")
    config = {group: {**_SIBLINGS.get(group, {}), name: "@"}} if group else {key: "@"}
    return json.dumps(config).replace('"@"', bad)


def _scheme_keys(name: str) -> list[str]:
    """Every `scheme_params` key the scheme takes: its constructor's fields, with
    the PID gains in place of `pid`."""
    own = [f.name for f in fields(SCHEMES[name])]
    if "pid" not in own:
        return own
    return [key for key in own if key != "pid"] + [f.name for f in fields(PidParams)]


def _outcome(build) -> str:
    try:
        build()
    except Exception as exc:  # the table records whatever is raised
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def outcome_table() -> dict[str, str]:
    table = {}
    for key in _KEYS:
        for bad in BAD_JSON:
            text = _config_json(key, bad)
            table[f"config {key}={bad}"] = _outcome(lambda: RunConfig.from_json(text))
    for name in PARAM_SCHEMES:
        for key in _scheme_keys(name):
            for bad in BAD_JSON:
                raw = {key: json.loads(bad)}
                table[f"{name} {key}={bad}"] = _outcome(lambda: build_scheme(name, raw))
    return table


def _pia(message: str) -> str:
    return f"ConfigError: bad parameters for scheme 'pia': {message}"


# one case of each distinct message (key and value aside), with its exact outcome
PINNED_CASES = {
    "config weights.mu=NaN": "ConfigError: weights.mu must be a finite number, got nan",
    "config sim.rtt_s=1e400": "ConfigError: sim.rtt_s must be a finite number, got inf",
    "config jobs=2.5": "ConfigError: jobs must be a whole number, got 2.5",
    "config filter=-1": "ConfigError: filter must be a string, got -1",
    "config traces={}": "ConfigError: traces must be a list, got {}",
    "config schemes=[1]": "ConfigError: each item of schemes must be a string, got 1",
    "config scheme_params=\"3\"": "ConfigError: scheme_params must be an object, got '3'",
    "config include_oracle=0": "ConfigError: include_oracle must be true or false, got 0",
    "config sim.estimator_window=-1": "ConfigError: estimator window must be >= 1",
    "config sim.estimator_kind=\"3\"": "ConfigError: unknown estimator kind '3'",
    "config sim.startup_kind=\"3\"": "ConfigError: unknown startup rule '3'",
    "config sim.startup_value=-1": "ConfigError: startup delay must be >= 0",
    "config sim.max_buffer_s=-1": "ConfigError: max buffer must be positive",
    "config sim.resume_margin_s=-1": "ConfigError: resume margin must lie in (0, max_buffer)",
    "config sim.rtt_s=-1": "ConfigError: rtt must be >= 0",
    "config weights.lam=-1": "ConfigError: qoe weights must be >= 0",
    "config grid.ki_values=[1]": "ConfigError: grid has no valid gain pair",
    "config jobs=0": "ConfigError: jobs must be >= 1",
    "config filter=\"3\"": "ConfigError: unknown filter kind '3'",
    "config target_quality=101": "ConfigError: target quality must lie in (0, 100]",
    "config scheme=\"3\"": "ConfigError: unknown scheme '3'; choose from "
                           "bba0, cava, mpc, pia, piae, quad, rb, rba, robustmpc",
    "config deterministic=true": "ok",
    "pia kp=true": _pia("kp must be a finite number, got True"),
    "pia horizon=\"3\"": _pia("horizon must be a whole number, got '3'"),
    "pia ki=0": _pia("kp and ki must be positive"),
    "pia beta=101": _pia("beta must lie in (0, 1]"),
    "pia epsilon=-1": _pia("epsilon must lie in (0, 1)"),
    "pia target_buffer=0": _pia("target buffer must be positive"),
    "pia horizon=0": _pia("horizon must be >= 1"),
    "pia eta=-1": _pia("eta must be >= 0"),
    "piae alpha=0": "ConfigError: bad parameters for scheme 'piae': alpha must exceed 1",
    "piae tau=-1": "ConfigError: bad parameters for scheme 'piae': tau must be positive",
    "cava q4_low_buffer_relief=[1]":
        "ConfigError: bad parameters for scheme 'cava': q4_low_buffer_relief must be true or "
        "false, got [1]",
    "cava horizon=101": "ConfigError: bad parameters for scheme 'cava': inner window must cover "
                        "the horizon",
    "cava outer_window=0": "ConfigError: bad parameters for scheme 'cava': outer window must be >= 1",
    "cava alpha_q123=2.5": "ConfigError: bad parameters for scheme 'cava': need alpha_q4 > 1 > "
                           "alpha_q123 > 0",
    "cava low_level_cutoff=0": "ConfigError: bad parameters for scheme 'cava': low level cutoff "
                               "must be >= 1",
    "cava safe_buffer_s=0": "ConfigError: bad parameters for scheme 'cava': buffer thresholds must "
                            "be positive",
    "cava reference_level=0": "ConfigError: bad parameters for scheme 'cava': reference_level must "
                              "be >= 1",
    "quad target_quality=101": "ConfigError: bad parameters for scheme 'quad': target quality must "
                               "lie in (0, 100]",
    "quad alpha=-1": "ConfigError: bad parameters for scheme 'quad': alpha and eta must be >= 0",
    "quad fair_level=0": "ConfigError: bad parameters for scheme 'quad': fair level must be >= 1",
    "quad low_buffer_chunks=0": "ConfigError: bad parameters for scheme 'quad': low buffer threshold "
                                "must be positive",
    "bba0 theta_high_s=0": "ConfigError: bad parameters for scheme 'bba0': theta_high must exceed "
                           "theta_low",
    "mpc horizon=0": "ConfigError: bad parameters for scheme 'mpc': mpc horizon must be >= 1",
    "mpc error_window=-1": "ConfigError: bad parameters for scheme 'mpc': error window must be >= 1",
    "mpc mu=-1": "ConfigError: bad parameters for scheme 'mpc': mu must be >= 0",
    "mpc lam=-1": "ConfigError: bad parameters for scheme 'mpc': lam must be >= 0",
}
# sha256 of the sorted "case\toutcome" lines of the whole table
TABLE_SHA256 = "6b640e59ba963751de3012d33ab5010db89b1c86e5d9f2f42c3e12789bded7ad"


@pytest.fixture(scope="module")
def table():
    return outcome_table()


def test_each_distinct_message_is_pinned_literally(table):
    assert {case: table[case] for case in PINNED_CASES} == PINNED_CASES


def test_every_bad_value_is_a_config_error_or_accepted(table):
    outcomes = set(table.values())
    assert all(o == "ok" or o.startswith("ConfigError: ") for o in outcomes)


def test_whole_message_table_is_pinned(table):
    assert len(table) == 803
    text = "\n".join(f"{case}\t{outcome}" for case, outcome in sorted(table.items()))
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_SHA256


# unknown `scheme_params` keys are refused with the keys the scheme takes
UNKNOWN_SCHEME_KEYS = [
    ("rb", {"foo": 1}, "bad parameters for scheme 'rb': unknown keys foo (expected any of: none)"),
    ("rba", {"zeta": 1, "alpha": 2},
     "bad parameters for scheme 'rba': unknown keys alpha, zeta (expected any of: none)"),
    ("pia", {"foo": 1}, "bad parameters for scheme 'pia': unknown keys foo (expected any of: "
                        "horizon, eta, kp, ki, beta, epsilon, target_buffer)"),
    ("mpc", {"foo": 1}, "bad parameters for scheme 'mpc': unknown keys foo (expected any of: "
                        "horizon, mu, lam, error_window)"),
    ("pia", {"pid": {"kp": 0.01}, "kp": 0.01}, "bad parameters for scheme 'pia': unknown keys pid "
     "(expected any of: horizon, eta, kp, ki, beta, epsilon, target_buffer)"),
    ("mpc", {"eval_count": 1}, "bad parameters for scheme 'mpc': unknown keys eval_count "
                               "(expected any of: horizon, mu, lam, error_window)"),
]


@pytest.mark.parametrize("name,raw,message", UNKNOWN_SCHEME_KEYS,
                         ids=[f"{name}-{'-'.join(raw)}" for name, raw, _ in UNKNOWN_SCHEME_KEYS])
def test_unknown_scheme_params_name_the_keys_taken(name, raw, message):
    with pytest.raises(ConfigError) as info:
        build_scheme(name, raw)
    assert str(info.value) == message


# -- objects built in Python ------------------------------------------------------

_HEAT_TABLES = dict(kp_values=(0.001,), ki_values=(1e-5,), valid=((True,),), heat=((0,),))
PYTHON_BUILT = {
    "sim-margin-text": (lambda: SimConfig(resume_margin_s="1"), "resume_margin_s"),
    "sim-margin-bool": (lambda: SimConfig(resume_margin_s=True), "resume_margin_s"),
    "filter-target-text": (lambda: allowed_from_filter(None, "cbf", "80"), "target_quality"),
    "filter-target-bool": (lambda: allowed_from_filter(None, "cbf", True), "target_quality"),
    "jobs-text": (lambda: RunConfig(jobs="2"), "jobs"),
    "jobs-fraction": (lambda: RunConfig(jobs=2.5), "jobs"),
    "oracle-text": (lambda: RunConfig(include_oracle="yes"), "include_oracle"),
    "out-dir-number": (lambda: RunConfig(out_dir=3), "out_dir"),
    "heat-count-text": (lambda: HeatMap(**_HEAT_TABLES, trace_count="3"), "trace_count"),
    "manifest-number": (lambda: RunConfig(manifest=7), "manifest"),
    "traces-text": (lambda: RunConfig(traces="t.csv"), "traces"),
    "filter-number": (lambda: RunConfig(filter=3), "filter"),
    "startup-kind-number": (lambda: SimConfig(startup_kind=3), "startup_kind"),
    "estimator-kind-number": (lambda: SimConfig(estimator_kind=3), "estimator_kind"),
    "estimator-window-text": (lambda: SimConfig(estimator_window="2"), "estimator_window"),
    # each heat-map cell is read, not coerced
    "heat-cell-fraction": (lambda: HeatMap(**{**_HEAT_TABLES, "heat": ((2.7,),)}, trace_count=3),
                           re.escape("heat[0][0]")),
    "heat-cell-nan": (lambda: HeatMap(**{**_HEAT_TABLES, "heat": ((float("nan"),),)},
                                      trace_count=3), re.escape("heat[0][0]")),
    "valid-cell-text": (lambda: HeatMap(**{**_HEAT_TABLES, "valid": (("no",),)}, trace_count=1),
                        re.escape("valid[0][0]")),
    # the axes are read like GainGrid's, and each table as a list before its cells
    "heat-axis-text": (lambda: HeatMap(**{**_HEAT_TABLES, "kp_values": ("a",)}, trace_count=1),
                       "each item of kp_values"),
    "heat-axis-number": (lambda: HeatMap(**{**_HEAT_TABLES, "kp_values": 5}, trace_count=1),
                         "kp_values"),
    "valid-number": (lambda: HeatMap(**{**_HEAT_TABLES, "valid": 5}, trace_count=1), "valid"),
    # a PID scheme's gains are one PidParams, checked before the scheme reads them
    "pia-pid-number": (lambda: Pia(pid=5), "pid"),
    "piae-pid-number": (lambda: PiaStartup(pid=5), "pid"),
}


@pytest.mark.parametrize("case", list(PYTHON_BUILT))
def test_python_built_objects_raise_a_typed_error(case):
    build, name = PYTHON_BUILT[case]
    with pytest.raises(ConfigError, match=f"^{name} must be "):
        build()


def test_int_too_long_to_print_is_a_typed_error():
    with pytest.raises(ControlError, match=r"^kp must be a finite number, got a value too long"):
        PidParams(kp=10**5000)


def test_python_built_values_are_stored_as_read():
    assert repr(PidParams(kp=1).kp) == "1.0"
    assert RunConfig(schemes=["rb"], scheme_params={"kp": 0.01}).schemes == ("rb",)
    assert GainGrid(kp_values=[0.0088], ki_values=(3.6e-5,)).kp_values == (0.0088,)


def test_piae_checks_every_kind_before_any_bound():
    with pytest.raises(ConfigError, match=r"^bad parameters for scheme 'piae': alpha must be a "
                                          r"finite number, got 'x'$"):
        build_scheme("piae", {"horizon": 0, "alpha": "x"})
    piae = build_scheme("piae", {"alpha": 3, "tau": 120})
    assert (repr(piae.alpha), repr(piae.tau)) == ("3.0", "120.0")


def test_mpc_checks_every_kind_before_any_bound():
    with pytest.raises(ConfigError, match=r"^horizon must be a whole number, got 'x'$"):
        Mpc(horizon="x", mu=float("nan"))
    with pytest.raises(ConfigError, match=r"^mu must be a finite number, got nan$"):
        Mpc(horizon=0, mu=float("nan"))


def _manifest(name="clip", chunk_duration_s=2.0, is_vbr=False):
    """A 2-level, 3-chunk CBR ladder of 400 and 800 kbps at 2 s chunks."""
    sizes = [[100_000] * 3, [200_000] * 3]
    return VideoManifest(name, chunk_duration_s, is_vbr, [400.0, 800.0], sizes, [[None] * 3] * 2)


MEDIA_BUILT = {
    "manifest-name-number": (lambda: _manifest(name=3), "name must be a string, got 3"),
    "manifest-vbr-text": (lambda: _manifest(is_vbr="no"), "is_vbr must be true or false, got 'no'"),
    "trace-name-number": (lambda: BandwidthTrace(3, ("3", True, 2)), "name must be a string, got 3"),
    "trace-sample-bool": (lambda: BandwidthTrace("t", (1000.0, True)),
                          "bandwidth at t=1 must be a number, got True"),
    "trace-sample-text": (lambda: BandwidthTrace("t", ("abc",)),
                          "bandwidth at t=0 must be a number, got 'abc'"),
    "trace-sample-huge": (lambda: BandwidthTrace("t", (1.0, 10**400)),
                          "bandwidth at t=1 must be finite and >= 0"),
}


@pytest.mark.parametrize("case", list(MEDIA_BUILT))
def test_python_built_media_raise_a_media_error(case):
    build, message = MEDIA_BUILT[case]
    with pytest.raises(MediaError) as info:
        build()
    assert str(info.value) == message


def test_python_built_media_values_are_stored_as_read():
    manifest = _manifest(chunk_duration_s=2)
    assert repr(manifest.chunk_duration_s) == "2.0"
    assert manifest == _manifest()
    assert repr(BandwidthTrace("t", (1000, 2.5)).samples) == "(1000.0, 2.5)"
    with pytest.raises(MediaError, match=r"^bandwidth at t=1 must be finite and >= 0$"):
        BandwidthTrace("t", (1000, float("nan")))


# -- field specs ------------------------------------------------------------------

SPEC_CLASSES = (PidParams, SimConfig,
                QoeWeights, OfflineObjective, GainGrid, RunConfig,
                *(cls for cls in SCHEMES.values() if issubclass(cls, Record)))
# an annotation naming a number, str, bool, list (held as a tuple) or dict
_PLAIN = re.compile(r"\b(float|int|str|bool|tuple|dict)\b")


@pytest.mark.parametrize("cls", SPEC_CLASSES, ids=lambda cls: cls.__name__)
def test_every_plain_field_carries_a_spec(cls):
    plain = [f for f in fields(cls) if _PLAIN.search(f.type)]
    assert plain and [f.name for f in plain if f.kind is None] == []
    # the error the constructor's field checks raise, declared with the class
    assert cls._error is (ControlError if cls is PidParams else ConfigError)


def test_every_scheme_takes_its_parameters_through_specs():
    """A registered scheme is a spec'd Record (checked above) or takes no
    constructor arguments."""
    unchecked = [name for name, cls in SCHEMES.items()
                 if not (issubclass(cls, Record) or cls.__init__ is object.__init__)]
    assert unchecked == []


def test_manifest_scalar_fields_carry_a_spec():
    declared = {f.name for f in fields(VideoManifest) if f.kind is not None}
    assert declared == {"name", "chunk_duration_s", "is_vbr"}
    assert {f.name: f for f in fields(BandwidthTrace)}["name"].kind is str
    assert VideoManifest._error is BandwidthTrace._error is MediaError


def test_heat_map_trace_count_carries_a_spec():
    assert {f.name: f for f in fields(HeatMap)}["trace_count"].kind is int


def test_every_config_key_reads_its_type_from_a_spec():
    for key, kind in _KEYS.items():
        assert kind is not None, key


# every job-config key, in order; each is the RunConfig attribute path it sets
KEYS_PINNED = [
    "manifest", "traces", "trace_dir", "scheme", "scheme_params", "schemes", "filter",
    "target_quality", "weights.mu", "weights.lam", "sim.startup_kind", "sim.startup_value",
    "sim.max_buffer_s", "sim.resume_margin_s", "sim.rtt_s", "sim.estimator_kind",
    "sim.estimator_window", "sim.first_chunk_level", "gamma", "reference_level",
    "include_oracle", "grid.kp_values", "grid.ki_values", "out_dir", "jobs", "deterministic",
]


def test_config_keys_and_their_paths_are_pinned():
    assert list(_KEYS) == KEYS_PINNED


def test_unknown_key_error_lists_every_key_in_order():
    with pytest.raises(ConfigError) as info:
        RunConfig.from_json('{"nonsense": 1}')
    assert str(info.value) == (
        "unknown config keys: nonsense (expected any of: manifest, traces, trace_dir, scheme, "
        "scheme_params, schemes, filter, target_quality, weights.mu, weights.lam, "
        "sim.startup_kind, sim.startup_value, sim.max_buffer_s, sim.resume_margin_s, sim.rtt_s, "
        "sim.estimator_kind, sim.estimator_window, sim.first_chunk_level, gamma, "
        "reference_level, include_oracle, grid.kp_values, grid.ki_values, out_dir, jobs, "
        "deterministic)"
    )


@pytest.mark.parametrize("text", ['{"sim.rtt_s": 5}', '{"sim.rtt_s": 5, "sim": {"rtt_s": 1}}'])
def test_a_flat_dotted_key_is_refused(text):
    # a dotted key names a field inside its object; at the top it is no second spelling
    message = 'config key sim.rtt_s belongs inside its object: {"sim": {"rtt_s": ...}}'
    with pytest.raises(ConfigError) as raised:
        RunConfig.from_json(text)
    assert str(raised.value) == message


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_names_every_config_key():
    named = set(re.findall(r"`(\w+)`", README.read_text()))
    assert [key for key in _KEYS if key.rpartition(".")[2] not in named] == []


def test_readme_names_only_classes_that_exist():
    # a backticked span that opens with a CamelCase name, bare or under `abrsim.`:
    # `SimConfig`, `SimConfig(startup_kind=3)`, `abrsim.control.PidParams`
    named = set(re.findall(r"`(?:abrsim\.(?:\w+\.)?)?([A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+)\b",
                           README.read_text()))
    assert "SimConfig" in named
    assert sorted(name for name in named if not hasattr(abrsim, name)
                  and not hasattr(abrsim.cli, name)) == []
