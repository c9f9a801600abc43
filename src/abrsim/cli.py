"""Command-line front end: run sessions, compare schemes, sweep gains, solve oracles.

One JSON config file describes a job; flags override the common fields. All
outputs are plain CSV/JSON files under the configured output directory, and
every run is deterministic for a fixed config.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .control import (MISSING, ControlError, Field, Record, fields, read_json, read_value, replace,
                      require_finite, spec)
from .engine import SessionLog, SimConfig, SimulationError, simulate_session
from .media import (
    BandwidthTrace,
    MediaError,
    VideoManifest,
    parse_manifest,
    parse_trace,
)
from .metrics import (
    OfflineObjective,
    QoeWeights,
    default_weights,
    offline_optimal,
    session_metrics,
)
from .schemes import (
    FILTER_KINDS,
    AbrScheme,
    ConfigError,
    allowed_from_filter,
    build_scheme,
    require_quality,
    scheme_class,
)
from .tuning import GainGrid, extract_region, map_tasks, sweep_gains

_MIN_NOISY_KBPS = 50.0
_MAX_TRACE_SECONDS = 7 * 24 * 3600  # one week of 1 Hz samples


# ------------------------------------------------------------ synthetic traces


def _check_seconds(seconds) -> None:
    """Refuse a generated trace's length unless it is finite and from one second
    to one week, before any sample is made."""
    require_finite(ConfigError, seconds=seconds)
    if not 1 <= seconds <= _MAX_TRACE_SECONDS:
        raise ConfigError(f"trace needs 1 s to one week ({_MAX_TRACE_SECONDS} s), got {seconds:g}")


def constant_bandwidth(kbps: float, seconds: int, name: str | None = None) -> BandwidthTrace:
    """Flat link at `kbps` for `seconds` seconds."""
    _check_seconds(seconds)
    require_finite(ConfigError, kbps=kbps)
    if kbps <= 0:
        raise ConfigError("bandwidth must be positive")
    return BandwidthTrace(name or f"const-{kbps:g}", (float(kbps),) * int(seconds))


def step_bandwidth(
    low_kbps: float, high_kbps: float, switch_at_s: float, seconds: int, name: str | None = None
) -> BandwidthTrace:
    """Single step from `low_kbps` to `high_kbps` at `switch_at_s`."""
    _check_seconds(seconds)
    require_finite(ConfigError, low_kbps=low_kbps, high_kbps=high_kbps, switch_at_s=switch_at_s)
    if low_kbps <= 0 or high_kbps <= 0:
        raise ConfigError("bandwidth must be positive")
    if not 0 <= switch_at_s <= seconds:
        raise ConfigError("switch time must fall inside the trace")
    samples = tuple(
        float(low_kbps) if t < switch_at_s else float(high_kbps) for t in range(int(seconds))
    )
    return BandwidthTrace(name or f"step-{low_kbps:g}-{high_kbps:g}", samples)


def square_wave(
    low_kbps: float,
    high_kbps: float,
    period_s: float,
    seconds: int,
    seed: int | None = None,
    name: str | None = None,
) -> BandwidthTrace:
    """Alternating high/low link; a seed adds phase offset and per-cycle jitter."""
    _check_seconds(seconds)
    require_finite(ConfigError, low_kbps=low_kbps, high_kbps=high_kbps, period_s=period_s)
    if not 0 < low_kbps <= high_kbps:
        raise ConfigError("need 0 < low <= high")
    if period_s < 2:
        raise ConfigError("period must be at least 2 s")
    rng = random.Random(seed)
    phase = rng.uniform(0.0, period_s) if seed is not None else 0.0
    half = period_s / 2.0
    levels: dict[int, tuple[float, float]] = {}
    samples = []
    for t in range(int(seconds)):
        cycle = int((t + phase) // period_s)
        if cycle not in levels:
            if seed is not None:
                levels[cycle] = (
                    high_kbps * rng.uniform(0.9, 1.1),
                    low_kbps * rng.uniform(0.9, 1.1),
                )
            else:
                levels[cycle] = (float(high_kbps), float(low_kbps))
        hi, lo = levels[cycle]
        samples.append(hi if (t + phase) % period_s < half else lo)
    suffix = "" if seed is None else f"-s{seed}"
    return BandwidthTrace(name or f"square-{low_kbps:g}-{high_kbps:g}{suffix}", tuple(samples))


def noisy_bandwidth(
    mean_kbps: float, spread_kbps: float, seconds: int, seed: int, name: str | None = None
) -> BandwidthTrace:
    """Uniform noise in [mean - spread, mean + spread], floored away from zero."""
    _check_seconds(seconds)
    require_finite(ConfigError, mean_kbps=mean_kbps, spread_kbps=spread_kbps)
    if mean_kbps <= 0:
        raise ConfigError("mean bandwidth must be positive")
    if spread_kbps < 0:
        raise ConfigError("spread must be >= 0")
    if seed is None:
        raise ConfigError("noisy traces need a seed")
    rng = random.Random(seed)
    samples = tuple(
        max(_MIN_NOISY_KBPS, rng.uniform(mean_kbps - spread_kbps, mean_kbps + spread_kbps))
        for _ in range(int(seconds))
    )
    return BandwidthTrace(name or f"noisy-{seed}", samples)


# ------------------------------------------------------------------ job config

# the RunConfig attributes that hold an object, built from the values under them
_OBJECTS = {"weights": QoeWeights, "sim": SimConfig, "grid": GainGrid}


def _arguments(values: dict) -> dict:
    """RunConfig keyword arguments from {key: value}; each object in
    `_OBJECTS` that any value falls under is built from its own arguments, and
    one with no default (weights, grid) needs every one of them."""
    args = {key: value for key, value in values.items() if "." not in key}
    for group, cls in _OBJECTS.items():
        inner = {key[len(group) + 1:]: value for key, value in values.items()
                 if key.startswith(group + ".")}
        if inner:
            missing = [f.name for f in fields(cls) if f.name not in inner
                       and f.default is MISSING and f.default_factory is MISSING]
            if missing:
                raise ConfigError(f"{group} needs {' and '.join(missing)}")
            args[group] = cls(**inner)
    return args


def _spec_fields(cls, prefix: str = ""):
    """(key, kind) of each spec field of `cls`, in field order; each object in
    `_OBJECTS` is walked in its place. A key is the field's attribute path from
    RunConfig, so "sim.rtt_s" is the `rtt_s` field of the `sim` object."""
    for f in fields(cls):
        if not prefix and f.name in _OBJECTS:
            yield from _spec_fields(_OBJECTS[f.name], f.name + ".")
        elif f.kind is not None:
            yield prefix + f.name, f.kind


class RunConfig(Record, error=ConfigError):
    """One CLI job: media, traces, scheme choice, and output layout."""

    manifest: str | None = spec(None, str)
    traces: tuple[str, ...] = spec((), [str])
    trace_dir: str | None = spec(None, str)
    scheme: str = spec("pia", str)
    scheme_params: dict = spec({}, dict)
    schemes: tuple[str, ...] = spec((), [str])
    filter: str = spec("none", str, lambda v: v in FILTER_KINDS, "unknown filter kind {!r}")
    target_quality: float | None = spec(None, float, lambda v: 0 < v <= 100,
                                        "target quality must lie in (0, 100]")
    weights: QoeWeights | None = None
    sim: SimConfig = Field(default_factory=SimConfig)
    gamma: float = spec(10000.0, float)
    reference_level: int | None = spec(None, int)
    include_oracle: bool = spec(False, bool)
    grid: GainGrid | None = None
    out_dir: str = spec("out", str)
    jobs: int = spec(1, int, lambda v: v >= 1, "jobs must be >= 1")
    deterministic: bool = spec(True, bool, lambda v: v is True,
                               "runs are always deterministic; the flag cannot be disabled")

    def __post_init__(self) -> None:
        for name in (self.scheme, *self.schemes):
            scheme_class(name)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        given = {}
        for key, value in read_json(ConfigError, "config", text).items():
            if "." in key and key in _KEYS:
                group, name = key.split(".", 1)
                raise ConfigError(f'config key {key} belongs inside its object: '
                                  f'{{"{group}": {{"{name}": ...}}}}')
            if key in _OBJECTS and value is not None:
                inner = read_value(ConfigError, key, value, dict)
                given.update((f"{key}.{k}", v) for k, v in inner.items())
            else:
                given[key] = value
        unknown = sorted(set(given) - set(_KEYS) - set(_OBJECTS))
        if unknown:
            raise ConfigError(
                f"unknown config keys: {', '.join(unknown)} (expected any of: {', '.join(_KEYS)})"
            )
        values = {key: read_value(ConfigError, key, given[key], kind)
                  for key, kind in _KEYS.items() if given.get(key) is not None}
        return cls(**_arguments(values))

    def to_json(self) -> str:
        data = self.as_dict()  # every field is a key or an object of keys
        for group in _OBJECTS:
            if data[group] is not None:
                data[group] = data[group].as_dict()
        return json.dumps(data, sort_keys=True, indent=2)


# Every job-config key, in field order, and its JSON type: the kind in the spec of
# the RunConfig field it names. A dotted key sits inside an object, so "sim.rtt_s"
# is {"sim": {"rtt_s": ...}}. An absent or null key keeps the default.
_KEYS = dict(_spec_fields(RunConfig))


# ------------------------------------------------------------- scheme assembly


class _FixedSequence(AbrScheme):
    """Clairvoyant playback of a precomputed level sequence."""

    name = "offline-optimal"

    def __init__(self, levels):
        self.levels = tuple(levels)

    def decide(self, ctx) -> int:
        return self.levels[ctx.chunk_index]


# ------------------------------------------------------------------- commands


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise ConfigError(f"cannot read {path!r}: {exc}") from None


def _job(args: argparse.Namespace, one_trace: bool = False):
    """(config, manifest, traces) for a job: the config file with the flags over
    it, then the manifest, then every trace, each read and checked in turn."""
    config = RunConfig.from_json(_read_text(args.config)) if args.config else RunConfig()
    # each flag's dest is the key it overrides; `is not None`, so `--jobs 0` is refused
    config = replace(config, **{key: value for key, value in vars(args).items()
                                if key in _KEYS and value is not None})
    if not config.manifest:
        raise ConfigError("config needs a manifest path")
    manifest = parse_manifest(_read_text(config.manifest))
    paths = list(config.traces)
    if config.trace_dir:
        if "\0" in config.trace_dir:  # Path.glob would match nothing and hide the cause
            raise ConfigError(f"cannot use trace_dir {config.trace_dir!r}: embedded null byte")
        paths.extend(sorted(str(p) for p in Path(config.trace_dir).glob("*.csv")))
    if not paths:
        raise ConfigError("config needs at least one trace")
    traces = [parse_trace(_read_text(p), name=Path(p).stem) for p in paths]
    if one_trace and len(traces) != 1:
        raise ConfigError(f"{args.command} takes exactly one trace")
    return config, manifest, traces


def _write(out_dir: str, name: str, text: str) -> Path:
    """Write one output file under `out_dir`, made if absent; returns its path."""
    out = Path(out_dir)
    path = out / name
    try:
        if "\0" in name:  # refused before out_dir is made, so none is left behind
            raise ValueError("embedded null byte")
        out.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except ValueError as exc:  # a NUL or an unencodable character in the path
        raise ConfigError(f"cannot write {str(path)!r} under out_dir: {exc}") from None
    return path


def _session(scheme, trace, manifest, config: RunConfig, allowed):
    """(log, report) for one scheme on one trace."""
    log = simulate_session(scheme, trace, manifest, config.sim, allowed_levels=allowed)
    return log, session_metrics(log, manifest, target_quality=config.target_quality,
                                weights=config.weights)


def _decisions_csv(log: SessionLog, allowed) -> str:
    lines = log.to_csv().strip().split("\n")
    rows = [lines[0] + ",allowed_levels"]
    for row, levels in zip(lines[1:], allowed):
        rows.append(row + "," + "|".join(str(level) for level in levels))
    return "\n".join(rows) + "\n"


def cmd_run(args: argparse.Namespace) -> int:
    config, manifest, (trace,) = _job(args, one_trace=True)
    allowed = allowed_from_filter(manifest, config.filter, config.target_quality)
    scheme = build_scheme(config.scheme, config.scheme_params, target_quality=config.target_quality,
                          reference_level=config.reference_level)
    log, report = _session(scheme, trace, manifest, config, allowed)
    echo = allowed if allowed is not None else (manifest.levels,) * manifest.n_chunks
    path = _write(config.out_dir, "decisions.csv", _decisions_csv(log, echo))
    _write(config.out_dir, "metrics.json", report.to_json() + "\n")
    print(
        f"{log.scheme_name} on {trace.name}: qoe={report.qoe:.4f} Mbps, "
        f"stall={report.total_stall_s:.2f} s -> {path}"
    )
    return 0


# The exact solver's frontier still grows steeply with chunk count once its
# bounds stop pruning. On a 6-level 300-4300 kbps VBR ladder over a seeded
# 1000/4000 kbps square wave, the slowest of gamma 0 / 100 / 1e4 takes about
# 0.03 / 0.36 / 0.5 s at 16 / 24 / 32 chunks, then 2.6 s at 40 and 16 s at 48
# (2-core Xeon VM, Python 3.11). Refuse longer manifests instead of hanging.
ORACLE_MAX_CHUNKS = 32


def _check_oracle(config: RunConfig, manifest: VideoManifest) -> OfflineObjective:
    """The oracle's objective for the job; every oracle input is refused here,
    before any session or solve runs."""
    if config.target_quality is None:
        raise ConfigError("the offline oracle needs target_quality")
    if manifest.n_chunks > ORACLE_MAX_CHUNKS:
        raise ConfigError(
            f"oracle supports manifests up to {ORACLE_MAX_CHUNKS} chunks; "
            f"this one has {manifest.n_chunks}"
        )
    objective = OfflineObjective(config.target_quality, config.gamma)
    require_quality(manifest)
    return objective


def _compare_cell(task):
    """One compare row and its metrics header; the oracle's row replays its solved sequence."""
    name, trace, manifest, config, allowed = task
    if name == _FixedSequence.name:
        objective = _check_oracle(config, manifest)
        scheme = _FixedSequence(offline_optimal(trace, manifest, objective, config.sim)[0])
    else:
        scheme = build_scheme(name, target_quality=config.target_quality,
                              reference_level=config.reference_level)
    _, report = _session(scheme, trace, manifest, config, allowed)
    header, values = report.to_csv().strip().split("\n")
    return f"{name},{trace.name},{values}", header


def cmd_compare(args: argparse.Namespace) -> int:
    config, manifest, traces = _job(args)
    allowed = allowed_from_filter(manifest, config.filter, config.target_quality)
    tasks = [(name, trace, manifest, config, allowed)
             for name in config.schemes or (config.scheme,) for trace in traces]
    if config.include_oracle:  # the oracle row is unfiltered
        _check_oracle(config, manifest)
        tasks += [(_FixedSequence.name, trace, manifest, config, None) for trace in traces]
    cells = map_tasks(_compare_cell, tasks, config.jobs)
    header = f"scheme,trace,{cells[0][1]}"
    rows = [row for row, _ in cells]
    path = _write(config.out_dir, "compare.csv", "\n".join([header] + rows) + "\n")
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config, manifest, traces = _job(args)
    if config.grid is None:
        raise ConfigError("sweep needs a gain grid in the config")
    # the sweep tunes pia's gains; scheme_params fix the rest of the scheme
    template = build_scheme("pia", config.scheme_params)
    weights = config.weights if config.weights is not None else default_weights(manifest)
    heatmap = sweep_gains(
        config.grid, traces, manifest, template, weights, config.sim, jobs=config.jobs
    )
    path = _write(config.out_dir, "heatmap.csv", heatmap.to_csv())
    region = extract_region(heatmap)
    if region is None:
        print(f"wrote {path}; no region met the heat threshold")
    else:
        print(
            f"wrote {path}; robust region kp in [{region.kp_range[0]!r}, {region.kp_range[1]!r}], "
            f"ki in [{region.ki_range[0]!r}, {region.ki_range[1]!r}], "
            f"mean heat {region.mean_heat:.2f}/{heatmap.trace_count}"
        )
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    config, manifest, (trace,) = _job(args, one_trace=True)
    objective = _check_oracle(config, manifest)
    levels, value = offline_optimal(trace, manifest, objective, config.sim)
    payload = {
        "trace": trace.name,
        "manifest": manifest.name,
        "target_quality": config.target_quality,
        "gamma": config.gamma,
        "sequence": list(levels),
        "objective": value,
    }
    path = _write(config.out_dir, "oracle.json", json.dumps(payload, indent=2) + "\n")
    print(f"offline optimal objective {value!r} over {len(levels)} chunks -> {path}")
    return 0


def cmd_gen_trace(args: argparse.Namespace) -> int:
    seconds = args.seconds
    if args.kind == "constant":
        trace = constant_bandwidth(args.kbps, seconds, name=args.name)
    elif args.kind == "step":
        switch = args.switch_at if args.switch_at is not None else seconds / 2
        trace = step_bandwidth(args.low, args.high, switch, seconds, name=args.name)
    elif args.kind == "square-wave":
        trace = square_wave(args.low, args.high, args.period, seconds, seed=args.seed, name=args.name)
    else:
        trace = noisy_bandwidth(args.mean, args.spread, seconds, seed=args.seed, name=args.name)
    print(f"wrote {_write(args.out, f'{trace.name}.csv', trace.to_csv())}")
    return 0


# ----------------------------------------------------------------- entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abrsim", description="Trace-driven adaptive-bitrate simulator."
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON job config")
    common.add_argument("--out", dest="out_dir", metavar="OUT",
                        help="output directory (overrides config)")
    common.add_argument("--jobs", type=int, help="worker processes (overrides config)")
    common.add_argument("--scheme", help="scheme name (overrides config)")
    common.add_argument("--filter", choices=FILTER_KINDS, help="quality prefilter")
    common.add_argument("--target-quality", type=float, help="quality target in (0, 100]")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[common], help="simulate one scheme on one trace").set_defaults(
        func=cmd_run
    )
    sub.add_parser(
        "compare", parents=[common], help="score several schemes across traces"
    ).set_defaults(func=cmd_compare)
    sub.add_parser("sweep", parents=[common], help="heat-map a PID gain grid").set_defaults(
        func=cmd_sweep
    )
    sub.add_parser(
        "oracle", parents=[common], help="solve the offline-optimal level sequence"
    ).set_defaults(func=cmd_oracle)
    gen = sub.add_parser("gen-trace", help="write a synthetic bandwidth trace")
    gen.add_argument(
        "--kind", choices=("constant", "step", "square-wave", "noisy"), required=True
    )
    gen.add_argument("--seconds", type=int, default=600)
    gen.add_argument("--kbps", type=float, default=2500.0)
    gen.add_argument("--low", type=float, default=500.0)
    gen.add_argument("--high", type=float, default=3000.0)
    gen.add_argument("--period", type=float, default=20.0)
    gen.add_argument("--switch-at", type=float, default=None)
    gen.add_argument("--mean", type=float, default=1500.0)
    gen.add_argument("--spread", type=float, default=500.0)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--name", default=None)
    gen.add_argument("--out", default="traces")
    gen.set_defaults(func=cmd_gen_trace)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, MediaError, ControlError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())
