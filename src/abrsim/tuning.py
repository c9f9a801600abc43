"""Controller gain sweeps: validity-masked grids, heat maps, region extraction.

A sweep simulates one buffer-tracking session per (gain pair, trace), scores
each with the QoE metric, and flags the cells that land within 10% of the
per-trace best. Heat is the per-cell flag count across traces. A usable
operating region is then grown greedily around the hottest cell.
"""

from __future__ import annotations

from .control import MISSING, Record, check_fields, is_valid_gain_pair, read_value, replace, spec
from .engine import SimConfig, simulate_session
from .media import VideoManifest
from .metrics import QoeWeights, qoe_score
from .schemes import ConfigError, Pia


class GainGrid(Record):
    """Strictly increasing kp/ki axes; validity comes from the damping band."""

    kp_values: tuple[float, ...] = spec(MISSING, [float])
    ki_values: tuple[float, ...] = spec(MISSING, [float])

    def __post_init__(self) -> None:
        check_fields(self, ConfigError)
        for name, axis in (("kp", self.kp_values), ("ki", self.ki_values)):
            if not axis:
                raise ConfigError(f"{name} axis is empty")
            if any(v <= 0.0 for v in axis):
                raise ConfigError(f"{name} values must be positive")
            if any(b <= a for a, b in zip(axis, axis[1:])):
                raise ConfigError(f"{name} values must be strictly increasing")
        if not any(flag for row in self.validity() for flag in row):
            raise ConfigError("grid has no valid gain pair")

    def validity(self) -> tuple[tuple[bool, ...], ...]:
        return tuple(
            tuple(is_valid_gain_pair(kp, ki) for ki in self.ki_values)
            for kp in self.kp_values
        )


class HeatMap(Record):
    """Per-cell flag counts; invalid cells are masked, never silently zeroed."""

    kp_values: tuple[float, ...] = spec(MISSING, [float])
    ki_values: tuple[float, ...] = spec(MISSING, [float])
    valid: tuple[tuple[bool, ...], ...]
    heat: tuple[tuple[int, ...], ...]
    trace_count: int = spec(MISSING, int, lambda v: v >= 0, "trace count must be >= 0")

    def __post_init__(self) -> None:
        check_fields(self, ConfigError)
        for name, kind in (("valid", bool), ("heat", int)):
            table = tuple(tuple(read_value(ConfigError, f"{name}[{i}][{j}]", v, kind)
                                for j, v in enumerate(_listed(f"{name}[{i}]", row)))
                          for i, row in enumerate(_listed(name, getattr(self, name))))
            object.__setattr__(self, name, table)
            if len(table) != len(self.kp_values):
                raise ConfigError(f"{name} must have one row per kp value")
            if any(len(row) != len(self.ki_values) for row in table):
                raise ConfigError(f"{name} rows must match the ki axis")
        for row in self.heat:
            for h in row:
                if not 0 <= h <= self.trace_count:
                    raise ConfigError("heat must lie in [0, trace_count]")

    def to_csv(self) -> str:
        lines = ["kp,ki,valid,heat"]
        for i, kp in enumerate(self.kp_values):
            for j, ki in enumerate(self.ki_values):
                lines.append(f"{kp!r},{ki!r},{int(self.valid[i][j])},{self.heat[i][j]}")
        return "\n".join(lines) + "\n"


def _listed(name: str, value) -> list:
    """`value` read as a list by `read_value`; a tuple is one too."""
    return read_value(ConfigError, name, list(value) if isinstance(value, tuple) else value, list)


def map_tasks(fn, tasks: list, jobs: int) -> list:
    """`[fn(task) for task in tasks]`, in task order. With `jobs` > 1 and more
    than one task, the tasks run in a process pool of at most one worker per
    task (`fn` and each task must pickle); the pool is imported only then, so a
    serial command never loads it."""
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(fn, tasks))


def _trace_flags(task) -> tuple[int, ...]:
    """Flags for one trace, one per valid (kp, ki) pair, in the order given."""
    pairs, trace, manifest, template, weights, config = task
    scores = []
    for kp, ki in pairs:
        scheme = replace(template, pid=replace(template.pid, kp=kp, ki=ki))
        log = simulate_session(scheme, trace, manifest, config)
        scores.append(qoe_score(log, weights))
    best = max(scores)
    cutoff = best - 0.1 * abs(best)
    return tuple(1 if score >= cutoff else 0 for score in scores)


def sweep_gains(
    grid: GainGrid,
    traces,
    manifest: VideoManifest,
    template: Pia | None,
    weights: QoeWeights,
    config: SimConfig | None = None,
    *,
    jobs: int = 1,
) -> HeatMap:
    """Heat map over the grid: per trace, flag cells within 10% of that trace's best.

    The template, a `Pia` (None is the default one), fixes everything about the
    controller except the swept gains; each cell runs a copy with its kp and ki.
    """
    traces = list(traces)
    if template is None:
        template = Pia()
    if config is None:
        config = SimConfig()
    if not traces:
        raise ConfigError("sweep needs at least one trace")
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    mask = grid.validity()
    cells = [(i, j) for i, row in enumerate(mask) for j, valid in enumerate(row) if valid]
    pairs = [(grid.kp_values[i], grid.ki_values[j]) for i, j in cells]
    tasks = [(pairs, trace, manifest, template, weights, config) for trace in traces]
    rows = map_tasks(_trace_flags, tasks, jobs)
    heat = [[0] * len(grid.ki_values) for _ in grid.kp_values]
    for flags in rows:
        for (i, j), flag in zip(cells, flags):
            heat[i][j] += flag
    return HeatMap(
        kp_values=grid.kp_values,
        ki_values=grid.ki_values,
        valid=mask,
        heat=tuple(tuple(row) for row in heat),
        trace_count=len(traces),
    )


class Region(Record):
    """Inclusive index bounds plus the gain ranges they span."""

    rows: tuple[int, int]
    cols: tuple[int, int]
    kp_range: tuple[float, float]
    ki_range: tuple[float, float]
    mean_heat: float


def extract_region(heatmap: HeatMap, min_mean_heat: float = 0.9) -> Region | None:
    """Grow an all-valid rectangle around the hottest cell, keeping mean heat high.

    Expansion adds one full row or column per step, picking the candidate with
    the best resulting mean; returns None when no valid cell clears the
    threshold (min_mean_heat is a fraction of trace_count).
    """
    threshold = min_mean_heat * heatmap.trace_count
    n_rows = len(heatmap.kp_values)
    n_cols = len(heatmap.ki_values)
    seed = None
    for i in range(n_rows):
        for j in range(n_cols):
            if heatmap.valid[i][j] and (seed is None or heatmap.heat[i][j] > heatmap.heat[seed[0]][seed[1]]):
                seed = (i, j)
    if seed is None or heatmap.heat[seed[0]][seed[1]] < threshold:
        return None

    def mean_if_valid(r0: int, r1: int, c0: int, c1: int) -> float | None:
        cells = [
            (i, j) for i in range(r0, r1 + 1) for j in range(c0, c1 + 1)
        ]
        if not all(heatmap.valid[i][j] for i, j in cells):
            return None
        return sum(heatmap.heat[i][j] for i, j in cells) / len(cells)

    r0 = r1 = seed[0]
    c0 = c1 = seed[1]
    mean = float(heatmap.heat[r0][c0])
    while True:
        candidates = []
        for dr0, dr1, dc0, dc1 in ((-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, 1)):
            nr0, nr1, nc0, nc1 = r0 + dr0, r1 + dr1, c0 + dc0, c1 + dc1
            if nr0 < 0 or nr1 >= n_rows or nc0 < 0 or nc1 >= n_cols:
                continue
            candidate = mean_if_valid(nr0, nr1, nc0, nc1)
            if candidate is not None and candidate >= threshold:
                candidates.append((candidate, (nr0, nr1, nc0, nc1)))
        if not candidates:
            break
        mean, (r0, r1, c0, c1) = max(candidates, key=lambda item: item[0])
    return Region(
        rows=(r0, r1),
        cols=(c0, c1),
        kp_range=(heatmap.kp_values[r0], heatmap.kp_values[r1]),
        ki_range=(heatmap.ki_values[c0], heatmap.ki_values[c1]),
        mean_heat=mean,
    )
