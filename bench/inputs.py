"""Seeded benchmark inputs: workload shapes, trace files, manifest files, job configs.

The program under test only ever sees the files written here. Traces come from
`abrsim.cli`'s own generators; manifests come from a small seeded CBR/VBR
writer that lives in the benchmark, so the benchmark does not depend on any
manifest fixture of the repository.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from abrsim.cli import constant_bandwidth, noisy_bandwidth, square_wave

LADDER_KBPS = (350, 600, 1000, 1750, 2750, 4300)
CHUNK_S = 2.0
TARGET_QUALITY = 80.0
# A pinned shape keeps its chunk sizes and traces whatever the run seed: the
# offline DP's state frontier, and so its run time, swings by up to 10x between
# link shapes and chunk-size patterns of equal size. Only the quality values
# follow the seed, which changes the oracle's answer but not the amount of work.
PINNED_SEED = 100


@dataclass(frozen=True)
class TraceSpec:
    kind: str  # constant | square | noisy
    seconds: int
    kbps: float = 0.0  # constant rate, or noisy mean
    low: float = 0.0
    high: float = 0.0
    period: float = 0.0
    spread: float = 0.0


@dataclass(frozen=True)
class Shape:
    """Input sizes of one workload; `smoke` swaps in a tiny one."""

    command: str
    n_chunks: int
    vbr: bool
    traces: tuple[TraceSpec, ...]
    schemes: tuple[str, ...] = ()
    filter_kind: str = "none"
    include_oracle: bool = False
    jobs: int = 1
    grid_size: int = 0  # square kp x ki grid for sweeps
    pinned: bool = False  # chunk sizes and traces ignore the run seed


def _const(kbps, seconds):
    return TraceSpec("constant", seconds, kbps=kbps)


def _square(low, high, period, seconds):
    return TraceSpec("square", seconds, low=low, high=high, period=period)


def _noisy(mean, spread, seconds):
    return TraceSpec("noisy", seconds, kbps=mean, spread=spread)


ONLINE_SCHEMES = ("rb", "bba0", "rba", "pia", "piae", "cava", "quad")
PLANNER_SCHEMES = ("mpc", "robustmpc")

SHAPES = {
    "online-grid": Shape(
        command="compare",
        n_chunks=600,
        vbr=True,
        traces=(_const(2200, 600), _square(1000, 4000, 40, 600), _noisy(2200, 1200, 600)),
        schemes=ONLINE_SCHEMES,
        filter_kind="cbf",
    ),
    "planners": Shape(
        command="compare",
        n_chunks=8,
        vbr=True,
        traces=(_square(1000, 4000, 20, 120), _noisy(2200, 1200, 120)),
        schemes=PLANNER_SCHEMES,
        include_oracle=True,
        pinned=True,
    ),
    "gain-sweep": Shape(
        command="sweep",
        n_chunks=150,
        vbr=False,
        traces=(
            _square(800, 3200, 30, 300),
            _square(1000, 4000, 60, 300),
            _noisy(2200, 1200, 300),
            _noisy(1500, 800, 300),
        ),
        jobs=2,
        grid_size=10,
    ),
}

SMOKE_SHAPES = {
    "online-grid": Shape(
        command="compare",
        n_chunks=24,
        vbr=True,
        traces=(_const(2200, 60), _square(1000, 4000, 40, 60), _noisy(2200, 1200, 60)),
        schemes=ONLINE_SCHEMES,
        filter_kind="cbf",
    ),
    "planners": Shape(
        command="compare",
        n_chunks=4,
        vbr=True,
        traces=(_square(1000, 4000, 20, 30), _noisy(2200, 1200, 30)),
        schemes=PLANNER_SCHEMES,
        include_oracle=True,
        pinned=True,
    ),
    "gain-sweep": Shape(
        command="sweep",
        n_chunks=12,
        vbr=False,
        traces=(_square(800, 3200, 30, 40), _noisy(1500, 800, 40)),
        jobs=2,
        grid_size=3,
    ),
}


def gain_grid(size: int) -> dict:
    """Geometric axes kp = 0.004 * 1.15^k and ki = 1e-5 * 1.3^j, k, j < size."""
    return {
        "kp_values": [0.004 * 1.15**k for k in range(size)],
        "ki_values": [1e-5 * 1.3**j for j in range(size)],
    }


def _trace(spec: TraceSpec, seed: int, name: str):
    if spec.kind == "constant":
        return constant_bandwidth(spec.kbps, spec.seconds, name=name)
    if spec.kind == "square":
        return square_wave(spec.low, spec.high, spec.period, spec.seconds, seed=seed, name=name)
    return noisy_bandwidth(spec.kbps, spec.spread, spec.seconds, seed=seed, name=name)


def _quality(kbps: float, complexity: float, rng: random.Random) -> float:
    """VMAF-like score that saturates with bitrate and drops with complexity."""
    q = 100.0 * (1.0 - math.exp(-kbps / (900.0 * complexity))) + rng.uniform(-2.0, 2.0)
    return round(min(100.0, max(0.0, q)), 3)


def manifest_json(
    n_chunks: int, *, vbr: bool, seed: int, size_seed: int | None = None, name: str = "video"
) -> str:
    """Manifest text: CBR chunks are exact ladder sizes, VBR chunks scale by a
    per-position complexity shared by all levels, so track averages stay ordered."""
    size_rng = random.Random(seed if size_seed is None else size_seed)
    quality_rng = random.Random(seed * 7919 + 1)
    if vbr:
        complexity = [size_rng.uniform(0.6, 1.5) for _ in range(n_chunks)]
    else:
        complexity = [1.0] * n_chunks
    tracks = []
    for index, kbps in enumerate(LADDER_KBPS):
        chunks = []
        for c in complexity:
            chunk = {"size_bytes": int(round(kbps * c * 125 * CHUNK_S))}
            if vbr:
                chunk["vmaf"] = _quality(kbps, c, quality_rng)
            chunks.append(chunk)
        tracks.append({"level": index + 1, "declared_bitrate_kbps": kbps, "chunks": chunks})
    return json.dumps(
        {"name": name, "chunk_duration_s": CHUNK_S, "is_vbr": vbr, "tracks": tracks}
    )


@dataclass(frozen=True)
class Inputs:
    config: Path
    manifest: Path
    traces: tuple[Path, ...]
    out_dir: Path
    expected_rows: int


def write_inputs(workload: str, seed: int, workdir: Path, smoke: bool = False) -> Inputs:
    """Write manifest, traces and the CLI job config for one workload and seed."""
    shape = (SMOKE_SHAPES if smoke else SHAPES)[workload]
    workdir.mkdir(parents=True, exist_ok=True)
    manifest = workdir / "manifest.json"
    manifest.write_text(
        manifest_json(
            shape.n_chunks,
            vbr=shape.vbr,
            seed=seed,
            size_seed=PINNED_SEED if shape.pinned else None,
            name=workload,
        )
    )
    trace_dir = workdir / "traces"
    trace_dir.mkdir(exist_ok=True)
    traces = []
    for k, spec in enumerate(shape.traces):
        trace_seed = (PINNED_SEED if shape.pinned else seed) * 100 + k
        trace = _trace(spec, trace_seed, f"t{k}-{spec.kind}")
        path = trace_dir / f"{trace.name}.csv"
        path.write_text(trace.to_csv())
        traces.append(path)
    out_dir = workdir / "out"
    config = {
        "manifest": str(manifest),
        "traces": [str(p) for p in traces],
        "out_dir": str(out_dir),
        "jobs": shape.jobs,
    }
    if shape.command == "compare":
        config.update(
            schemes=list(shape.schemes),
            filter=shape.filter_kind,
            target_quality=TARGET_QUALITY,
            include_oracle=shape.include_oracle,
        )
        expected = len(shape.schemes) * len(traces) + (len(traces) if shape.include_oracle else 0)
    else:
        config["grid"] = gain_grid(shape.grid_size)
        expected = shape.grid_size**2
    config_path = workdir / "job.json"
    config_path.write_text(json.dumps(config, indent=2))
    return Inputs(config_path, manifest, tuple(traces), out_dir, expected)


def describe(shape: Shape) -> dict:
    """Input shape as recorded in design.json."""
    return {
        "command": shape.command,
        "chunks": shape.n_chunks,
        "chunk_s": CHUNK_S,
        "ladder_kbps": list(LADDER_KBPS),
        "manifest": "vbr with quality" if shape.vbr else "cbr",
        "traces": [
            {k: v for k, v in vars(spec).items() if v} for spec in shape.traces
        ],
        "schemes": list(shape.schemes),
        "filter": shape.filter_kind,
        "include_oracle": shape.include_oracle,
        "jobs": shape.jobs,
        "grid": f"{shape.grid_size}x{shape.grid_size}" if shape.grid_size else None,
        "seeded": _seeded(shape),
    }


def _seeded(shape: Shape) -> str:
    if shape.pinned:
        return "quality values"
    if shape.vbr:
        return "chunk sizes, quality values, square and noisy traces"
    return "square and noisy traces"
