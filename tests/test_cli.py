"""Command-line front end: config plumbing, commands, exit codes."""

from __future__ import annotations

import concurrent.futures
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _builders import JSON_VALUES
from abrsim import cli
from abrsim.cli import (
    ORACLE_MAX_CHUNKS,
    RunConfig,
    constant_bandwidth,
    main,
    noisy_bandwidth,
    square_wave,
    step_bandwidth,
)
from abrsim.media import parse_trace
from abrsim.schemes import SCHEMES, ConfigError, cbf_filter


def write_manifest(path, bitrates=(400, 800, 1600), n=6, delta=2.0, vmafs=(55.0, 75.0, 90.0)):
    tracks = []
    for idx, rate in enumerate(bitrates):
        size = round(rate * 125 * delta)
        chunks = [
            {"size_bytes": size, "vmaf": None if vmafs is None else vmafs[idx]}
            for _ in range(n)
        ]
        tracks.append(
            {"level": idx + 1, "declared_bitrate_kbps": float(rate), "chunks": chunks}
        )
    payload = {"name": "clip", "chunk_duration_s": delta, "is_vbr": False, "tracks": tracks}
    path.write_text(json.dumps(payload))
    return path


def write_trace(path, kbps=2000.0, seconds=40):
    lines = ["t_s,bandwidth_kbps"] + [f"{t},{float(kbps)!r}" for t in range(seconds)]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_config(path, **fields):
    path.write_text(json.dumps(fields))
    return path


@pytest.fixture()
def workdir(tmp_path):
    manifest = write_manifest(tmp_path / "clip.json")
    trace = write_trace(tmp_path / "trace.csv")
    return tmp_path, manifest, trace


# -- synthetic traces ----------------------------------------------------------


def test_constant_trace_samples():
    trace = constant_bandwidth(2500.0, 10)
    assert trace.samples == (2500.0,) * 10


def test_step_trace_switches():
    trace = step_bandwidth(500.0, 3000.0, 4, 8)
    assert trace.samples[:4] == (500.0,) * 4
    assert trace.samples[4:] == (3000.0,) * 4


def test_square_wave_unseeded_is_plain():
    trace = square_wave(500.0, 3000.0, 10.0, 20)
    assert trace.samples[:5] == (3000.0,) * 5
    assert trace.samples[5:10] == (500.0,) * 5
    assert trace.samples[10:15] == (3000.0,) * 5


def test_square_wave_seeded_is_reproducible():
    a = square_wave(500.0, 3000.0, 10.0, 60, seed=7)
    b = square_wave(500.0, 3000.0, 10.0, 60, seed=7)
    c = square_wave(500.0, 3000.0, 10.0, 60, seed=8)
    assert a.samples == b.samples
    assert a.samples != c.samples


def test_noisy_trace_bounds_and_determinism():
    a = noisy_bandwidth(1000.0, 400.0, 120, seed=3)
    b = noisy_bandwidth(1000.0, 400.0, 120, seed=3)
    assert a.samples == b.samples
    assert all(50.0 <= v <= 1400.0 for v in a.samples)


def test_generator_validation():
    with pytest.raises(ConfigError):
        constant_bandwidth(0.0, 10)
    with pytest.raises(ConfigError):
        square_wave(3000.0, 500.0, 10.0, 20)
    with pytest.raises(ConfigError):
        noisy_bandwidth(1000.0, -1.0, 10, seed=1)


# -- config --------------------------------------------------------------------


_NUMBERS = st.integers(1, 200) | st.floats(0.01, 200.0)
_SIM_KEYS = (
    "startup_kind", "startup_value", "max_buffer_s", "resume_margin_s", "rtt_s",
    "estimator_kind", "estimator_window", "first_chunk_level", "warp",
)
_TOP_VALUES = {
    "sim": st.dictionaries(
        st.sampled_from(_SIM_KEYS),
        _NUMBERS | st.sampled_from(["latency", "chunks_buffered", "harmonic_chunks"]),
        max_size=4,
    ),
    "weights": st.dictionaries(st.sampled_from(["mu", "lam"]), _NUMBERS, max_size=2),
    "grid": st.fixed_dictionaries(
        {"kp_values": st.lists(st.floats(1e-4, 0.05), max_size=3),
         "ki_values": st.lists(st.floats(1e-6, 1e-3), max_size=3)}
    ),
    "traces": st.lists(st.text(max_size=4), max_size=2),
    "schemes": st.lists(st.sampled_from(["rb", "pia"]), max_size=2),
    "scheme_params": st.dictionaries(st.text(max_size=4), _NUMBERS, max_size=2),
}
_TOP_KEYS = (
    "manifest", "trace_dir", "scheme", "filter", "target_quality", "gamma", "reference_level",
    "include_oracle", "out_dir", "jobs", "deterministic", "bogus", *_TOP_VALUES,
)
CONFIG_SHAPED = JSON_VALUES | st.dictionaries(
    st.sampled_from(_TOP_KEYS),
    JSON_VALUES | _NUMBERS | st.one_of(*_TOP_VALUES.values()),
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(raw=CONFIG_SHAPED)
def test_fuzzed_config_is_valid_or_a_config_error(raw):
    try:
        config = RunConfig.from_json(json.dumps(raw))
    except ConfigError:
        return
    assert RunConfig.from_json(config.to_json()) == config


def test_config_round_trip_is_idempotent():
    text = json.dumps(
        {
            "manifest": "m.json",
            "traces": ["a.csv"],
            "scheme": "pia",
            "scheme_params": {"kp": 0.0088},
            "target_quality": 80,
            "sim": {"rtt_s": 0.05, "startup_value": 4},
        }
    )
    first = RunConfig.from_json(text)
    dumped = first.to_json()
    second = RunConfig.from_json(dumped)
    assert second == first
    assert second.to_json() == dumped


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        RunConfig.from_json(json.dumps({"nonsense": 1}))
    with pytest.raises(ConfigError):
        RunConfig.from_json(json.dumps({"sim": {"warp_speed": 9}}))


def test_config_deterministic_flag_is_fixed():
    with pytest.raises(ConfigError):
        RunConfig.from_json(json.dumps({"deterministic": False}))


# -- run -------------------------------------------------------------------------


def test_run_writes_decisions_and_metrics(workdir, capsys):
    tmp, manifest, trace = workdir
    out = tmp / "out"
    config = write_config(
        tmp / "cfg.json",
        manifest=str(manifest),
        traces=[str(trace)],
        scheme="pia",
        out_dir=str(out),
    )
    assert main(["run", "--config", str(config)]) == 0
    decisions = (out / "decisions.csv").read_text().strip().split("\n")
    assert decisions[0].startswith("chunk,level,bitrate_kbps")
    assert decisions[0].endswith(",allowed_levels")
    assert len(decisions) == 1 + 6
    metrics = json.loads((out / "metrics.json").read_text())
    assert "avg_bitrate_kbps" in metrics
    assert "pia" in capsys.readouterr().out


def test_run_unknown_scheme_exits_2(workdir, capsys):
    tmp, manifest, trace = workdir
    config = write_config(
        tmp / "cfg.json",
        manifest=str(manifest),
        traces=[str(trace)],
        scheme="pandacq",
        out_dir=str(tmp / "out"),
    )
    assert main(["run", "--config", str(config)]) == 2
    assert "unknown scheme" in capsys.readouterr().err


def test_run_cbf_filter_echoes_allowed_levels(workdir):
    tmp, manifest, trace = workdir
    out = tmp / "out"
    config = write_config(
        tmp / "cfg.json",
        manifest=str(manifest),
        traces=[str(trace)],
        scheme="rb",
        out_dir=str(out),
    )
    assert main(["run", "--config", str(config), "--filter", "cbf", "--target-quality", "80"]) == 0
    from abrsim.media import parse_manifest

    caps = cbf_filter(parse_manifest(manifest.read_text()), 80.0)
    rows = (out / "decisions.csv").read_text().strip().split("\n")[1:]
    for i, row in enumerate(rows):
        assert row.split(",")[-1] == "|".join(str(l) for l in caps[i])


@pytest.mark.parametrize("target", ["150", "-5", "0"])
def test_run_impossible_target_quality_exits_2(workdir, capsys, target):
    tmp, manifest, trace = workdir
    out = tmp / "out"
    config = write_config(
        tmp / "cfg.json", manifest=str(manifest), traces=[str(trace)], scheme="rb",
        out_dir=str(out),
    )
    assert main(["run", "--config", str(config), "--target-quality", target]) == 2
    assert "target quality must lie in (0, 100]" in capsys.readouterr().err
    assert not out.exists()


def test_run_horizon_over_the_rollout_limit_exits_2(workdir, capsys):
    tmp, _, trace = workdir
    manifest = write_manifest(tmp / "long.json", n=12)  # 3^12 sequences per decision
    out = tmp / "out"
    config = write_config(
        tmp / "cfg.json", manifest=str(manifest), traces=[str(trace)], scheme="mpc",
        scheme_params={"horizon": 12}, out_dir=str(out),
    )
    assert main(["run", "--config", str(config)]) == 2
    assert "mpc horizon 12 needs more than 50000 rollout evaluations" in capsys.readouterr().err
    assert not out.exists()


def test_run_infinite_trace_sample_exits_2(workdir, capsys):
    tmp, manifest, _ = workdir
    trace = tmp / "inf.csv"
    trace.write_text("t_s,bandwidth_kbps\n0,inf\n1,1000\n")
    config = write_config(
        tmp / "cfg.json",
        manifest=str(manifest),
        traces=[str(trace)],
        scheme="rb",
        out_dir=str(tmp / "out"),
    )
    assert main(["run", "--config", str(config)]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_vanishing_link_exits_1(workdir, capsys, command):
    tmp, _, _ = workdir
    small = write_manifest(tmp / "small.json", bitrates=(400, 800), n=4, vmafs=(60.0, 85.0))
    trace = tmp / "tiny.csv"
    trace.write_text("t_s,bandwidth_kbps\n" + "".join(f"{t},1e-300\n" for t in range(10)))
    config = write_config(
        tmp / "cfg.json",
        manifest=str(small),
        traces=[str(trace)],
        scheme="rb",
        target_quality=80.0,
        out_dir=str(tmp / "out"),
    )
    assert main([command, "--config", str(config)]) == 1
    assert "link too slow" in capsys.readouterr().err


def test_long_stalling_session_passes_its_stall_check(workdir):
    # 600 2 s chunks at 350 kbps over a 1-3 kbps link end near 2.1e5 s of stall;
    # summed interval by interval, the total drifted past the check's 1e-9 bound
    tmp, _, _ = workdir
    ladder = write_manifest(tmp / "ladder.json", bitrates=(350, 600, 1000, 1750, 2750, 4300),
                            n=600, vmafs=None)
    rng = random.Random(2)
    trace = tmp / "slow.csv"
    trace.write_text("t_s,bandwidth_kbps\n" + "".join(f"{t},{rng.uniform(1, 3)!r}\n"
                                                       for t in range(600)))
    config = write_config(tmp / "cfg.json", manifest=str(ladder), traces=[str(trace)],
                          scheme="rb", out_dir=str(tmp / "out"))
    assert main(["run", "--config", str(config)]) == 0
    report = json.loads((tmp / "out" / "metrics.json").read_text())
    assert report["total_stall_s"] > 2e5


def test_one_long_stalling_chunk_passes_its_stall_check(workdir):
    # 2 chunks over a 0.001-0.003 kbps link: each chunk stalls about 6e5 s, over
    # about 6e5 intervals, and summed interval by interval the chunk's stall
    # drifted past the check's 1e-9 bound
    tmp, _, _ = workdir
    ladder = write_manifest(tmp / "ladder.json", bitrates=(600, 1200), n=2, vmafs=None)
    rng = random.Random(1)
    trace = tmp / "slow.csv"
    trace.write_text("t_s,bandwidth_kbps\n" + "".join(f"{t},{rng.uniform(0.001, 0.003)!r}\n"
                                                       for t in range(600)))
    config = write_config(tmp / "cfg.json", manifest=str(ladder), traces=[str(trace)],
                          scheme="rb", out_dir=str(tmp / "out"))
    assert main(["run", "--config", str(config)]) == 0
    report = json.loads((tmp / "out" / "metrics.json").read_text())
    assert report["total_stall_s"] > 1e6


def test_huge_rtt_exits_1(workdir, capsys):
    tmp, manifest, trace = workdir
    config = write_config(
        tmp / "cfg.json",
        manifest=str(manifest),
        traces=[str(trace)],
        scheme="rb",
        sim={"rtt_s": 1e9},
        out_dir=str(tmp / "out"),
    )
    assert main(["run", "--config", str(config)]) == 1
    assert "rtt too long" in capsys.readouterr().err


# (samples in kbps, rtt_s, schemes): a link so fast a download ends at its own
# start clock, and one whose estimate overflows a PID scheme's squared cost
FAST_LINKS = {
    "zero-length-download": ("1e20", 0.07, tuple(SCHEMES)),
    "overflow-in-decide": ("1e160", 0.0, ("pia", "piae", "cava")),
}


@pytest.mark.parametrize("case", list(FAST_LINKS))
def test_too_fast_link_exits_1_naming_trace_scheme_and_chunk(workdir, capsys, case):
    tmp, _, _ = workdir
    kbps, rtt, schemes = FAST_LINKS[case]
    small = write_manifest(tmp / "small.json", bitrates=(400, 800), n=6, vmafs=(60.0, 85.0))
    trace = tmp / "fast.csv"
    trace.write_text("t_s,bandwidth_kbps\n" + "".join(f"{t},{kbps}\n" for t in range(40)))
    for name in schemes:
        config = write_config(tmp / "cfg.json", manifest=str(small), traces=[str(trace)],
                              scheme=name, sim={"rtt_s": rtt}, out_dir=str(tmp / "out"))
        assert main(["run", "--config", str(config)]) == 1, name
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: link too fast: "), err
        assert f"scheme {name!r}" in err and "trace 'fast'" in err and "chunk " in err


@pytest.mark.parametrize(
    "fields,message",
    [
        (dict(scheme="pia", scheme_params={"kp": float("nan")}), "kp"),
        (dict(scheme="piae", scheme_params={"alpha": "abc"}), "alpha"),
        (dict(scheme="mpc", scheme_params={"robust": True}), "robust"),
        (dict(scheme="rb", weights={"mu": float("nan"), "lam": 1.0}), "mu"),
        (dict(scheme="rb", target_quality=float("nan")), "target_quality"),
        (dict(scheme="rb", gamma=float("inf")), "gamma"),
        (dict(scheme="rb", jobs=2.7), "jobs"),
        (dict(scheme="cava", reference_level=1.5), "reference_level"),
        (dict(scheme="rb", sim={"estimator_window": 2.5}), "estimator_window"),
        (dict(scheme="rb", include_oracle="no"), "include_oracle"),
        (dict(scheme="rb", traces="t.csv"), "traces"),
        (dict(scheme="rb", out_dir=5), "out_dir"),
        (dict(scheme="rb", manifest=7), "manifest"),
        (dict(scheme="pia", scheme_params={"horizon": 2.5}), "horizon"),
        (dict(scheme="mpc", scheme_params={"horizon": 2.5}), "horizon"),
        (dict(scheme="mpc", scheme_params={"horizon": True}), "horizon"),
        (dict(scheme="robustmpc", scheme_params={"error_window": 2.5}), "error_window"),
        (dict(scheme="cava", scheme_params={"inner_window": 5.5}), "inner_window"),
        (dict(scheme="rb", weights={"mu": 1.0}), "weights needs lam"),
        (dict(scheme="rb", grid={"kp_values": [0.0088]}), "grid needs ki_values"),
        (dict(scheme="rb", manifest=None), "config needs a manifest path"),
        (dict(scheme="rb", traces=None), "config needs at least one trace"),
        ({"scheme": "rb", "sim.rtt_s": 5}, "config key sim.rtt_s belongs inside its object"),
        ({"scheme": "rb", "sim.rtt_s": 5, "sim": {"rtt_s": 1}},
         "config key sim.rtt_s belongs inside its object"),
    ],
    ids=[
        "kp-nan",
        "piae-alpha-text",
        "mpc-robust",
        "weights-mu-nan",
        "target-quality-nan",
        "gamma-inf",
        "jobs-frac",
        "reference-level-frac",
        "estimator-window-frac",
        "include-oracle-text",
        "traces-text",
        "out-dir-number",
        "manifest-number",
        "pia-horizon-frac",
        "mpc-horizon-frac",
        "mpc-horizon-bool",
        "robustmpc-error-window-frac",
        "cava-inner-window-frac",
        "weights-without-lam",
        "grid-without-ki",
        "no-manifest",
        "no-traces",
        "flat-dotted-key",
        "flat-dotted-key-beside-its-object",
    ],
)
def test_run_bad_scheme_or_weight_values_exit_2(workdir, capsys, fields, message):
    tmp, manifest, trace = workdir
    config = write_config(
        tmp / "cfg.json",
        **{"manifest": str(manifest), "traces": [str(trace)], "out_dir": str(tmp / "out"), **fields},
    )
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_run_non_numeric_manifest_value_exits_2(workdir, capsys):
    tmp, _, trace = workdir
    manifest = write_manifest(tmp / "bad.json", vmafs=(55.0, "abc", 90.0))
    config = write_config(
        tmp / "cfg.json",
        manifest=str(manifest),
        traces=[str(trace)],
        scheme="rb",
        out_dir=str(tmp / "out"),
    )
    assert main(["run", "--config", str(config)]) == 2
    assert "vmaf" in capsys.readouterr().err


def test_run_requires_exactly_one_trace(workdir, capsys):
    tmp, manifest, trace = workdir
    second = write_trace(tmp / "trace2.csv", kbps=900.0)
    config = write_config(
        tmp / "cfg.json",
        manifest=str(manifest),
        traces=[str(trace), str(second)],
        scheme="rb",
        out_dir=str(tmp / "out"),
    )
    assert main(["run", "--config", str(config)]) == 2


def test_run_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_one_trace_commands_refuse_two_traces(workdir, capsys, command):
    tmp, manifest, trace = workdir
    config = write_config(
        tmp / "cfg.json", manifest=str(manifest), traces=[str(trace), str(trace)],
        target_quality=80.0, out_dir=str(tmp / "out"),
    )
    assert main([command, "--config", str(config)]) == 2
    assert f"error: {command} takes exactly one trace" in capsys.readouterr().err


# Each case spoils one input of an otherwise good job: a file that is not
# UTF-8, a path holding a NUL byte, JSON nested past the parser's depth, or a
# JSON integer past the interpreter's 4,300-digit conversion limit.
BAD_INPUTS = {
    "config-not-utf8": "cannot read",
    "config-not-json": "config is not valid JSON",
    "config-too-deep": "config is not valid JSON",
    "config-huge-int": "config is not valid JSON",
    "manifest-not-utf8": "cannot read",
    "manifest-too-deep": "manifest is not valid JSON",
    "manifest-huge-int": "manifest is not valid JSON",
    "trace-not-utf8": "cannot read",
    "manifest-nul": "embedded null byte",
    "trace-nul": "embedded null byte",
    "out-dir-nul": "out_dir",
    "trace-dir-nul": "trace_dir",
}
DEEP_JSON = "[" * 5000 + "]" * 5000
HUGE_INT = "1" * 5000


def _bad_input_config(tmp, manifest, trace, case):
    fields = dict(
        manifest=str(manifest), traces=[str(trace)], schemes=["rb"], target_quality=80.0,
        grid={"kp_values": [0.0088], "ki_values": [3.6e-5]}, out_dir=str(tmp / "out"),
    )
    latin1 = tmp / "latin1.json"
    latin1.write_bytes(b'{"name": "caf\xe9"}')
    deep = tmp / "deep.json"
    deep.write_text(DEEP_JSON)
    if case == "config-not-utf8":
        return latin1
    if case in ("config-not-json", "config-too-deep"):
        config = tmp / "cfg.json"
        config.write_text("{manifest" if case == "config-not-json" else DEEP_JSON)
        return config
    if case == "config-huge-int":
        config = write_config(tmp / "cfg.json", **fields)
        config.write_text(config.read_text()[:-1] + f', "jobs": {HUGE_INT}}}')
        return config
    huge = tmp / "huge.json"
    huge.write_text(manifest.read_text().replace('"chunk_duration_s": 2.0',
                                                 f'"chunk_duration_s": {HUGE_INT}'))
    key, value = {
        "manifest-not-utf8": ("manifest", str(latin1)),
        "manifest-too-deep": ("manifest", str(deep)),
        "manifest-huge-int": ("manifest", str(huge)),
        "trace-not-utf8": ("traces", [str(latin1)]),
        "manifest-nul": ("manifest", str(tmp / "clip\0.json")),
        "trace-nul": ("traces", [str(tmp / "trace\0.csv")]),
        "out-dir-nul": ("out_dir", str(tmp / "out\0dir")),
        "trace-dir-nul": ("trace_dir", str(tmp / "tr\0aces")),
    }[case]
    fields[key] = value
    return write_config(tmp / "cfg.json", **fields)


@pytest.mark.parametrize("case", list(BAD_INPUTS))
@pytest.mark.parametrize("command", ["run", "compare", "sweep", "oracle"])
def test_bad_input_file_exits_2_without_traceback(workdir, capsys, command, case):
    tmp, manifest, trace = workdir
    config = _bad_input_config(tmp, manifest, trace, case)
    assert main([command, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and BAD_INPUTS[case] in err
    assert "Traceback" not in err
    assert not (tmp / "out").exists()


@pytest.mark.parametrize("case", ["manifest-nul", "trace-nul", "out-dir-nul", "trace-dir-nul"])
def test_nul_in_a_path_never_reaches_stderr(workdir, capsysbinary, case):
    tmp, manifest, trace = workdir
    config = _bad_input_config(tmp, manifest, trace, case)
    assert main(["run", "--config", str(config)]) == 2
    assert b"\0" not in capsysbinary.readouterr().err


def test_config_nested_too_deep_is_a_config_error():
    with pytest.raises(ConfigError, match="config is not valid JSON"):
        RunConfig.from_json(DEEP_JSON)
    with pytest.raises(ConfigError, match="config is not valid JSON"):
        RunConfig.from_json('{"scheme_params": ' + DEEP_JSON + "}")


def test_scheme_flag_overrides_config(workdir, capsys):
    tmp, manifest, trace = workdir
    config = write_config(
        tmp / "cfg.json",
        manifest=str(manifest),
        traces=[str(trace)],
        scheme="pia",
        out_dir=str(tmp / "out"),
    )
    assert main(["run", "--config", str(config), "--scheme", "rb"]) == 0
    assert "rb on" in capsys.readouterr().out


def test_out_flag_overrides_config_out_dir(workdir, capsys):
    tmp, manifest, trace = workdir
    config = write_config(
        tmp / "cfg.json", manifest=str(manifest), traces=[str(trace)], scheme="rb",
        out_dir=str(tmp / "from-config"),
    )
    assert main(["run", "--config", str(config), "--out", str(tmp / "from-flag")]) == 0
    assert str(tmp / "from-flag" / "decisions.csv") in capsys.readouterr().out
    assert sorted(p.name for p in (tmp / "from-flag").iterdir()) == ["decisions.csv", "metrics.json"]
    assert not (tmp / "from-config").exists()


def test_bad_flag_exits_2():
    assert main(["run", "--bogus"]) == 2


def test_jobs_flag_zero_is_refused_not_dropped(workdir, capsys):
    tmp, manifest, trace = workdir
    config = write_config(
        tmp / "cfg.json", manifest=str(manifest), traces=[str(trace)], scheme="rb", jobs=2,
        out_dir=str(tmp / "out"),
    )
    assert main(["run", "--config", str(config), "--jobs", "0"]) == 2
    err = capsys.readouterr().err
    assert "jobs" in err and "Traceback" not in err


# -- cava's reference level ------------------------------------------------------


@pytest.mark.parametrize("level", [0, 4])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_cava_reference_level_outside_the_ladder_exits_2(workdir, capsys, command, level):
    tmp, manifest, trace = workdir
    config = write_config(
        tmp / "cfg.json", manifest=str(manifest), traces=[str(trace)], scheme="cava",
        reference_level=level, out_dir=str(tmp / "out"),
    )
    assert main([command, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "reference_level" in err and "Traceback" not in err


def test_reference_level_is_ignored_by_schemes_that_do_not_declare_it(workdir):
    tmp, manifest, trace = workdir
    rows = []
    for extra in ({}, {"reference_level": 0}):
        out = tmp / f"out{len(rows)}"
        config = write_config(
            tmp / "cfg.json", manifest=str(manifest), traces=[str(trace)],
            schemes=["rb", "pia", "quad"], target_quality=80.0, out_dir=str(out), **extra,
        )
        assert main(["compare", "--config", str(config)]) == 0
        rows.append((out / "compare.csv").read_text())
    assert rows[0] == rows[1]


def test_cava_reference_level_reaches_compare(workdir):
    tmp, _, trace = workdir
    # levels 1 and 2 rank position 5 in the top quartile, level 3 position 0
    sizes = [
        [100000, 130000, 120000, 110000, 90000, 200000],
        [150000, 200000, 300000, 250000, 120000, 400000],
        [700000, 380000, 420000, 350000, 400000, 300000],
    ]
    tracks = [
        {"level": lvl + 1, "declared_bitrate_kbps": 600.0 * (lvl + 1),
         "chunks": [{"size_bytes": size} for size in row]}
        for lvl, row in enumerate(sizes)
    ]
    manifest = tmp / "vbr.json"
    manifest.write_text(json.dumps(
        {"name": "vbr", "chunk_duration_s": 2.0, "is_vbr": True, "tracks": tracks}
    ))
    outputs = {}
    for level in (None, 2, 3):
        out = tmp / f"out{level}"
        config = write_config(
            tmp / "cfg.json", manifest=str(manifest), traces=[str(trace)], schemes=["cava"],
            reference_level=level, out_dir=str(out),
        )
        assert main(["compare", "--config", str(config)]) == 0
        outputs[level] = (out / "compare.csv").read_text()
    assert outputs[None] == outputs[2]  # the middle of three levels
    assert outputs[3] != outputs[2]


# -- compare ---------------------------------------------------------------------


def test_compare_rows_cover_scheme_trace_product(workdir):
    tmp, manifest, trace = workdir
    t2 = write_trace(tmp / "t2.csv", kbps=900.0)
    t3 = write_trace(tmp / "t3.csv", kbps=1500.0)
    out = tmp / "out"
    config = write_config(
        tmp / "cfg.json",
        manifest=str(manifest),
        traces=[str(trace), str(t2), str(t3)],
        schemes=["rb", "bba0"],
        out_dir=str(out),
    )
    assert main(["compare", "--config", str(config)]) == 0
    lines = (out / "compare.csv").read_text().strip().split("\n")
    assert lines[0].startswith("scheme,trace,")
    assert "avg_bitrate_kbps" in lines[0]
    assert len(lines) == 1 + 6
    assert [line.split(",")[0] for line in lines[1:]] == ["rb"] * 3 + ["bba0"] * 3


def test_compare_duplicate_scheme_rows_identical(workdir):
    tmp, manifest, trace = workdir
    out = tmp / "out"
    config = write_config(
        tmp / "cfg.json",
        manifest=str(manifest),
        traces=[str(trace)],
        schemes=["rb", "rb"],
        out_dir=str(out),
    )
    assert main(["compare", "--config", str(config)]) == 0
    lines = (out / "compare.csv").read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[1] == lines[2]


def test_compare_oracle_row_when_requested(workdir):
    tmp, manifest, trace = workdir
    small = write_manifest(tmp / "small.json", bitrates=(400, 800), n=4, vmafs=(60.0, 85.0))
    out = tmp / "out"
    config = write_config(
        tmp / "cfg.json",
        manifest=str(small),
        traces=[str(trace)],
        schemes=["rb"],
        include_oracle=True,
        target_quality=80.0,
        out_dir=str(out),
    )
    assert main(["compare", "--config", str(config)]) == 0
    lines = (out / "compare.csv").read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[2].startswith("offline-optimal,")


@pytest.mark.parametrize("command", ["compare", "oracle"])
@pytest.mark.parametrize("bad", ["no_target_quality", "too_many_chunks"])
def test_bad_oracle_inputs_exit_2_before_any_session(workdir, capsys, monkeypatch, command, bad):
    tmp, _, trace = workdir
    n = ORACLE_MAX_CHUNKS + 1 if bad == "too_many_chunks" else 4
    video = write_manifest(tmp / "video.json", bitrates=(400, 800), n=n, vmafs=(60.0, 85.0))
    fields = {} if bad == "no_target_quality" else {"target_quality": 80.0}
    config = write_config(
        tmp / "cfg.json",
        manifest=str(video),
        traces=[str(trace)],
        schemes=["rb", "pia"],
        include_oracle=True,
        out_dir=str(tmp / "out"),
        **fields,
    )
    sessions = []
    simulate = cli.simulate_session

    def counted(*args, **kwargs):
        sessions.append(args)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate_session", counted)
    assert main([command, "--config", str(config)]) == 2
    message = {
        "no_target_quality": "the offline oracle needs target_quality",
        "too_many_chunks": f"up to {ORACLE_MAX_CHUNKS} chunks; this one has {n}",
    }[bad]
    assert message in capsys.readouterr().err
    assert sessions == []


@pytest.mark.parametrize("bad", ["negative_gamma", "target_above_100", "no_quality_values"])
def test_bad_oracle_objective_exits_2_before_any_compare_session(workdir, capsys, monkeypatch, bad):
    tmp, _, trace = workdir
    vmafs = None if bad == "no_quality_values" else (60.0, 85.0)
    video = write_manifest(tmp / "video.json", bitrates=(400, 800), n=4, vmafs=vmafs)
    fields = {"negative_gamma": {"gamma": -1}, "target_above_100": {"target_quality": 150.0}}
    config = write_config(
        tmp / "cfg.json",
        manifest=str(video),
        traces=[str(trace)],
        schemes=["rb", "bba0"],
        include_oracle=True,
        out_dir=str(tmp / "out"),
        **{"target_quality": 80.0, **fields.get(bad, {})},
    )
    sessions = []
    simulate = cli.simulate_session

    def counted(*args, **kwargs):
        sessions.append(args)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate_session", counted)
    assert main(["compare", "--config", str(config)]) == 2
    message = {
        "negative_gamma": "gamma must be >= 0",
        "target_above_100": "target quality must lie in (0, 100]",
        "no_quality_values": "chunk 0 of level 1 has no quality value",
    }[bad]
    assert message in capsys.readouterr().err
    assert sessions == []


def test_compare_jobs_flag_keeps_output_identical(workdir):
    tmp, manifest, trace = workdir
    t2 = write_trace(tmp / "t2.csv", kbps=700.0)
    out = tmp / "out"
    config = write_config(
        tmp / "cfg.json",
        manifest=str(manifest),
        traces=[str(trace), str(t2)],
        schemes=["rb", "pia"],
        include_oracle=True,
        target_quality=80.0,
        out_dir=str(out),
    )
    assert main(["compare", "--config", str(config)]) == 0
    serial = (out / "compare.csv").read_text()
    # the oracle rows, solved in pool workers with --jobs 2, come last
    assert [row.split(",")[0] for row in serial.split("\n")[-3:-1]] == ["offline-optimal"] * 2
    assert main(["compare", "--config", str(config), "--jobs", "2"]) == 0
    assert (out / "compare.csv").read_text() == serial


# -- worker pool ---------------------------------------------------------------------


@pytest.fixture()
def pool_sizes(monkeypatch):
    """The max_workers of each process pool a command starts; the pools are
    stand-ins that run their tasks in this process, so no worker is forked."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return sizes


def _pool_job(tmp, manifest, command, n_tasks):
    """A compare job with one row per scheme, or a sweep with one trace per task."""
    traces = [str(write_trace(tmp / f"t{k}.csv", kbps=700.0 + 400 * k)) for k in range(n_tasks)]
    if command == "compare":
        fields = dict(schemes=["rb", "bba0", "pia"][:n_tasks], traces=traces[:1])
    else:
        fields = dict(traces=traces, grid={"kp_values": [0.0088], "ki_values": [3.6e-5]})
    out = tmp / "out"
    config = write_config(tmp / "cfg.json", manifest=str(manifest), out_dir=str(out), **fields)
    return config, out / ("compare.csv" if command == "compare" else "heatmap.csv")


@pytest.mark.parametrize("command", ["compare", "sweep"])
def test_one_task_starts_no_pool(workdir, pool_sizes, command):
    tmp, manifest, _ = workdir
    config, output = _pool_job(tmp, manifest, command, 1)
    assert main([command, "--config", str(config), "--jobs", "2"]) == 0
    assert output.is_file() and pool_sizes == []


@pytest.mark.parametrize("command", ["compare", "sweep"])
def test_pool_starts_at_most_one_worker_per_task(workdir, pool_sizes, command):
    tmp, manifest, _ = workdir
    config, output = _pool_job(tmp, manifest, command, 3)
    assert main([command, "--config", str(config)]) == 0
    serial = output.read_text()
    assert pool_sizes == []
    assert main([command, "--config", str(config), "--jobs", "50"]) == 0
    assert pool_sizes == [3]
    assert output.read_text() == serial


def test_cli_import_and_run_leave_the_pool_unloaded(workdir):
    tmp, manifest, trace = workdir
    config = write_config(tmp / "cfg.json", manifest=str(manifest), traces=[str(trace)],
                          scheme="rb", out_dir=str(tmp / "out"))
    src = str(Path(cli.__file__).resolve().parents[1])
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {src!r})",
        "pool = ('concurrent.futures.process', 'multiprocessing')",
        "import abrsim.cli",
        "on_import = [m for m in pool if m in sys.modules]",
        f"code = abrsim.cli.main(['run', '--config', {str(config)!r}])",
        "print(on_import, [m for m in pool if m in sys.modules], code)",
    ])
    done = subprocess.run([sys.executable, "-I", "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[] [] 0"


def test_compare_reads_trace_dir_sorted(workdir):
    tmp, manifest, _ = workdir
    tdir = tmp / "traces"
    tdir.mkdir()
    write_trace(tdir / "b.csv", kbps=900.0)
    write_trace(tdir / "a.csv", kbps=700.0)
    out = tmp / "out"
    config = write_config(
        tmp / "cfg.json",
        manifest=str(manifest),
        trace_dir=str(tdir),
        schemes=["rb"],
        out_dir=str(out),
    )
    assert main(["compare", "--config", str(config)]) == 0
    lines = (out / "compare.csv").read_text().strip().split("\n")
    assert [line.split(",")[1] for line in lines[1:]] == ["a", "b"]


# -- sweep and oracle --------------------------------------------------------------


def test_sweep_writes_heatmap(workdir, capsys):
    tmp, manifest, trace = workdir
    out = tmp / "out"
    config = write_config(
        tmp / "cfg.json",
        manifest=str(manifest),
        traces=[str(trace)],
        grid={"kp_values": [0.0088], "ki_values": [3.6e-5]},
        out_dir=str(out),
    )
    assert main(["sweep", "--config", str(config)]) == 0
    lines = (out / "heatmap.csv").read_text().strip().split("\n")
    assert lines[0] == "kp,ki,valid,heat"
    assert len(lines) == 2


def test_sweep_all_invalid_grid_is_diagnosed(workdir, capsys):
    tmp, manifest, trace = workdir
    config = write_config(
        tmp / "cfg.json",
        manifest=str(manifest),
        traces=[str(trace)],
        grid={"kp_values": [1.0], "ki_values": [1e-5]},
        out_dir=str(tmp / "out"),
    )
    assert main(["sweep", "--config", str(config)]) == 2
    assert "no valid gain pair" in capsys.readouterr().err


@pytest.mark.parametrize(
    "grid",
    [
        {"kp_values": [float("nan"), 0.0088], "ki_values": [3.6e-5]},
        {"kp_values": [0.0088], "ki_values": [3.6e-5, float("inf")]},
        {"kp_values": [True, 0.0088], "ki_values": [3.6e-5]},
    ],
    ids=["kp-nan", "ki-inf", "kp-bool"],
)
def test_sweep_non_finite_grid_value_exits_2(workdir, capsys, grid):
    tmp, manifest, trace = workdir
    out = tmp / "out"
    config = write_config(
        tmp / "cfg.json", manifest=str(manifest), traces=[str(trace)], grid=grid, out_dir=str(out)
    )
    assert main(["sweep", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err
    assert not (out / "heatmap.csv").exists()


def test_sweep_without_grid_exits_2(workdir):
    tmp, manifest, trace = workdir
    config = write_config(
        tmp / "cfg.json",
        manifest=str(manifest),
        traces=[str(trace)],
        out_dir=str(tmp / "out"),
    )
    assert main(["sweep", "--config", str(config)]) == 2


@pytest.mark.parametrize("command", ["oracle", "sweep", "compare"])
@pytest.mark.parametrize(
    "key,value,named",
    [("filter", "nope", "'nope'"), ("scheme", "nope2", "'nope2'"),
     ("schemes", ["rb", "offline-optimal"], "'offline-optimal'")],
)
def test_bad_filter_or_scheme_values_exit_2(workdir, capsys, command, key, value, named):
    # every command reads the same RunConfig, so each refuses them, even where unused
    tmp, manifest, trace = workdir
    config = write_config(
        tmp / "cfg.json",
        manifest=str(manifest),
        traces=[str(trace)],
        target_quality=80.0,
        grid={"kp_values": [0.0088], "ki_values": [3.6e-5]},
        out_dir=str(tmp / "out"),
        **{key: value},
    )
    assert main([command, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not (tmp / "out").exists()


def test_oracle_writes_sequence(workdir):
    tmp, _, trace = workdir
    small = write_manifest(tmp / "small.json", bitrates=(400, 800), n=4, vmafs=(60.0, 85.0))
    out = tmp / "out"
    config = write_config(
        tmp / "cfg.json",
        manifest=str(small),
        traces=[str(trace)],
        target_quality=80.0,
        out_dir=str(out),
    )
    assert main(["oracle", "--config", str(config)]) == 0
    payload = json.loads((out / "oracle.json").read_text())
    assert len(payload["sequence"]) == 4
    assert all(level in (1, 2) for level in payload["sequence"])
    assert isinstance(payload["objective"], float)


def test_oracle_requires_target_quality(workdir):
    tmp, _, trace = workdir
    small = write_manifest(tmp / "small.json", bitrates=(400, 800), n=4, vmafs=(60.0, 85.0))
    config = write_config(
        tmp / "cfg.json",
        manifest=str(small),
        traces=[str(trace)],
        out_dir=str(tmp / "out"),
    )
    assert main(["oracle", "--config", str(config)]) == 2


def test_oracle_solves_manifests_at_the_cap(workdir):
    tmp, _, trace = workdir
    longest = write_manifest(tmp / "longest.json", n=ORACLE_MAX_CHUNKS)
    out = tmp / "out"
    config = write_config(
        tmp / "cfg.json",
        manifest=str(longest),
        traces=[str(trace)],
        target_quality=80.0,
        out_dir=str(out),
    )
    assert main(["oracle", "--config", str(config)]) == 0
    payload = json.loads((out / "oracle.json").read_text())
    assert len(payload["sequence"]) == ORACLE_MAX_CHUNKS == 32


def test_oracle_refuses_long_manifests(workdir, capsys):
    tmp, _, trace = workdir
    n = ORACLE_MAX_CHUNKS + 1
    long = write_manifest(tmp / "long.json", bitrates=(400, 800), n=n, vmafs=(60.0, 85.0))
    config = write_config(
        tmp / "cfg.json",
        manifest=str(long),
        traces=[str(trace)],
        target_quality=80.0,
        out_dir=str(tmp / "out"),
    )
    assert main(["oracle", "--config", str(config)]) == 2
    message = f"up to {ORACLE_MAX_CHUNKS} chunks; this one has {n}"
    assert message in capsys.readouterr().err


def test_compare_oracle_rows_refuse_long_manifests(workdir, capsys):
    tmp, manifest, trace = workdir
    n = ORACLE_MAX_CHUNKS + 1
    long = write_manifest(tmp / "long.json", bitrates=(400, 800), n=n, vmafs=(60.0, 85.0))
    config = write_config(
        tmp / "cfg.json",
        manifest=str(long),
        traces=[str(trace)],
        schemes=["rb"],
        target_quality=80.0,
        include_oracle=True,
        out_dir=str(tmp / "out"),
    )
    assert main(["compare", "--config", str(config)]) == 2
    message = f"up to {ORACLE_MAX_CHUNKS} chunks; this one has {n}"
    assert message in capsys.readouterr().err


# -- gen-trace ----------------------------------------------------------------------


def test_gen_trace_writes_parseable_csv(tmp_path):
    out = tmp_path / "traces"
    code = main(
        [
            "gen-trace",
            "--kind",
            "square-wave",
            "--seconds",
            "60",
            "--low",
            "500",
            "--high",
            "3000",
            "--period",
            "20",
            "--seed",
            "7",
            "--name",
            "sq7",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    text = (out / "sq7.csv").read_text()
    trace = parse_trace(text, name="sq7")
    assert trace.duration_s == 60


def test_gen_trace_is_reproducible(tmp_path):
    args = [
        "gen-trace", "--kind", "noisy", "--seconds", "30", "--mean", "1500",
        "--spread", "500", "--seed", "5", "--name", "n5",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "n5.csv").read_text() == (tmp_path / "b" / "n5.csv").read_text()


@pytest.mark.parametrize(
    "args,name",
    [
        (["--kind", "constant", "--kbps", "nan"], "kbps"),
        (["--kind", "constant", "--kbps", "inf"], "kbps"),
        (["--kind", "step", "--low", "nan"], "low_kbps"),
        (["--kind", "step", "--high", "inf"], "high_kbps"),
        (["--kind", "step", "--switch-at", "nan"], "switch_at_s"),
        (["--kind", "square-wave", "--period", "nan"], "period_s"),
        (["--kind", "square-wave", "--period", "inf"], "period_s"),
        (["--kind", "square-wave", "--high", "inf"], "high_kbps"),
        (["--kind", "noisy", "--seed", "1", "--mean", "nan"], "mean_kbps"),
        (["--kind", "noisy", "--seed", "1", "--spread", "inf"], "spread_kbps"),
        (["--kind", "noisy", "--seed", "1", "--spread", "nan"], "spread_kbps"),
    ],
    ids=[
        "constant-kbps-nan", "constant-kbps-inf", "step-low-nan", "step-high-inf",
        "step-switch-nan", "square-period-nan", "square-period-inf", "square-high-inf",
        "noisy-mean-nan", "noisy-spread-inf", "noisy-spread-nan",
    ],
)
def test_gen_trace_non_finite_values_exit_2(tmp_path, capsys, args, name):
    assert main(["gen-trace", *args, "--seconds", "10", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert name in err and "finite" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag,value", [("--out", "tr\0x"), ("--name", "a\0b")],
                         ids=["out", "name"])
def test_gen_trace_nul_in_the_output_path_exits_2(tmp_path, monkeypatch, capsysbinary, flag,
                                                   value):
    monkeypatch.chdir(tmp_path)
    assert main(["gen-trace", "--kind", "constant", "--seconds", "5", flag, value]) == 2
    err = capsysbinary.readouterr().err
    assert err.startswith(b"error: cannot write ") and b"embedded null byte" in err
    assert b"Traceback" not in err and b"\0" not in err


def test_gen_trace_nul_in_the_name_leaves_no_out_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["gen-trace", "--kind", "constant", "--seconds", "5", "--name", "a\0b", "--out", "d"]
    assert main(args) == 2
    assert not (tmp_path / "d").exists()


def test_gen_trace_refuses_more_than_a_week(tmp_path, capsys):
    args = ["gen-trace", "--kind", "constant", "--seconds", "1000000000000", "--out", str(tmp_path)]
    assert main(args) == 2
    assert "one week (604800 s), got 1e+12" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    assert constant_bandwidth(1000.0, 604800).duration_s == 604800
    with pytest.raises(ConfigError, match="one week"):
        noisy_bandwidth(1000.0, 100.0, 604801, seed=1)


@pytest.mark.parametrize(
    "args,message",
    [
        (["--kind", "step", "--low", "0"], "bandwidth must be positive"),
        (["--kind", "step", "--switch-at", "11"], "switch time must fall inside the trace"),
        (["--kind", "square-wave", "--period", "1"], "period must be at least 2 s"),
        (["--kind", "noisy", "--seed", "1", "--mean", "0"], "mean bandwidth must be positive"),
        (["--kind", "noisy"], "noisy traces need a seed"),
    ],
    ids=["step-low-zero", "step-switch-past-end", "square-period-1", "noisy-mean-zero",
         "noisy-no-seed"],
)
def test_gen_trace_out_of_range_values_exit_2(tmp_path, capsys, args, message):
    assert main(["gen-trace", *args, "--seconds", "10", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_gen_trace_bad_params_exit_2(tmp_path):
    code = main(
        ["gen-trace", "--kind", "constant", "--kbps", "0", "--seconds", "10", "--out", str(tmp_path)]
    )
    assert code == 2


# -- console entry point ----------------------------------------------------------

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_script_exits_with_main_code(tmp_path, monkeypatch, capsys):
    # read by regex: Python 3.10 has no tomllib
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", PYPROJECT.read_text(),
                        re.MULTILINE | re.DOTALL).group(1)
    assert re.findall(r'^abrsim\s*=\s*"(.*)"$', scripts, re.MULTILINE) == ["abrsim.cli:entry"]
    argvs = {
        0: ["abrsim", "gen-trace", "--kind", "constant", "--seconds", "10",
            "--out", str(tmp_path / "t")],
        2: ["abrsim", "run", "--config", str(tmp_path / "missing.json")],
    }
    for code, argv in argvs.items():
        monkeypatch.setattr(sys, "argv", argv)
        with pytest.raises(SystemExit) as info:
            cli.entry()
        assert info.value.code == code
    assert (tmp_path / "t" / "const-2500.csv").is_file()
    assert "cannot read" in capsys.readouterr().err
