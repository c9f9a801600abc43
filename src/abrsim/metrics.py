"""QoE scoring, per-session metric reports, and an offline-optimal reference solver.

The DP, the brute-force cross-check and sequence scoring share one idealized
request model: per chunk the session drains to the resume level if it hit the
buffer cap after playback started, idles one RTT, downloads over the
zero-order-hold trace, and credits one chunk duration on arrival. Playback
uses buffer wherever the startup rule allows it, mid-leg for latency rules;
any deficit is stalled time charged to the pending chunk. Buffer and clock
snap to 0.1 s bins after every chunk so prefixes reaching one state merge.

`offline_optimal` is that DP pruned by two exact bounds: below, the least pair
cost of the remaining chunks with stalls left out; above, the value a narrow
beam pass of the same DP reaches. Among tied optima it returns the
lexicographically smallest sequence, as `brute_force_optimal` does.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from .engine import SessionLog, SimConfig, _read_levels, advance_download
from .media import BandwidthTrace, VideoManifest
from .control import MISSING, Record, check_fields, spec
from .schemes import ConfigError, require_quality

LOW_QUALITY_VMAF = 60.0
_BINS_PER_S = 10.0
_BEAM_WIDTH = 8  # states per chunk the upper-bound pass keeps


# -- QoE ----------------------------------------------------------------------


class QoeWeights(Record):
    """Penalty weights: mu per Mbps of switching, lam per second stalled."""

    mu: float = spec(MISSING, float, lambda v: v >= 0.0, "qoe weights must be >= 0")
    lam: float = spec(MISSING, float, lambda v: v >= 0.0, "qoe weights must be >= 0")

    def __post_init__(self) -> None:
        check_fields(self, ConfigError)


def default_weights(manifest: VideoManifest) -> QoeWeights:
    """Stall weight pinned to the top ladder rate in Mbps, switch weight 1."""
    top = max(manifest.avg_kbps)
    return QoeWeights(mu=1.0, lam=top / 1000.0)


def qoe_score(log: SessionLog, weights: QoeWeights) -> float:
    """Sum of chunk bitrates minus switching and stall penalties, in Mbps."""
    rates = [d.bitrate_kbps / 1000.0 for d in log.decisions]
    if not rates:
        raise ConfigError("session log has no decisions")
    change = sum(abs(b - a) for a, b in zip(rates, rates[1:]))
    stall = sum(d.stall_s for d in log.decisions)
    return sum(rates) - weights.mu * change - weights.lam * stall


# -- session report -----------------------------------------------------------

_CSV_COLUMNS = (
    ("avg_bitrate_kbps", "avg_bitrate_kbps"),
    ("avg_bitrate_change_kbps", "avg_bitrate_change_kbps_per_chunk"),
    ("total_stall_s", "total_stall_s"),
    ("qoe", "qoe_mbps"),
    ("avg_quality_dev", "avg_quality_dev_vmaf"),
    ("pct_low_quality", "pct_low_quality"),
    ("avg_quality_change", "avg_quality_change_vmaf_per_chunk"),
    ("data_usage_mb", "data_usage_mb"),
    ("startup_latency_s", "startup_latency_s"),
)


class MetricsReport(Record):
    """Session summary; quality fields are None when metadata is missing."""

    avg_bitrate_kbps: float
    avg_bitrate_change_kbps: float
    total_stall_s: float
    qoe: float
    avg_quality_dev: float | None
    pct_low_quality: float | None
    avg_quality_change: float | None
    data_usage_mb: float
    startup_latency_s: float
    qoe_unit: str = "Mbps"

    def to_csv(self) -> str:
        header = ",".join(name for _, name in _CSV_COLUMNS)
        cells = []
        for field_name, _ in _CSV_COLUMNS:
            value = getattr(self, field_name)
            cells.append("" if value is None else repr(float(value)))
        return header + "\n" + ",".join(cells) + "\n"

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)


def session_metrics(
    log: SessionLog,
    manifest: VideoManifest,
    *,
    target_quality: float | None = None,
    weights: QoeWeights | None = None,
) -> MetricsReport:
    """Summarize one session log; weights default to `default_weights(manifest)`."""
    n = len(log.decisions)
    if n == 0:
        raise ConfigError("session log has no decisions")
    if weights is None:
        weights = default_weights(manifest)
    rates = [d.bitrate_kbps for d in log.decisions]
    change = sum(abs(b - a) for a, b in zip(rates, rates[1:]))
    vmafs = [d.vmaf for d in log.decisions]
    if all(v is not None for v in vmafs):
        pct_low = sum(1 for v in vmafs if v < LOW_QUALITY_VMAF) / n
        q_change = sum(abs(b - a) for a, b in zip(vmafs, vmafs[1:])) / (n - 1) if n > 1 else 0.0
        dev = None
        if target_quality is not None:
            dev = sum(abs(v - target_quality) for v in vmafs) / n
    else:
        pct_low = q_change = dev = None
    return MetricsReport(
        avg_bitrate_kbps=sum(rates) / n,
        avg_bitrate_change_kbps=change / (n - 1) if n > 1 else 0.0,
        total_stall_s=log.stall_total_s,
        qoe=qoe_score(log, weights),
        avg_quality_dev=dev,
        pct_low_quality=pct_low,
        avg_quality_change=q_change,
        data_usage_mb=log.bytes_downloaded / 1e6,
        startup_latency_s=log.startup_latency_s,
    )


# -- offline-optimal reference ------------------------------------------------


class OfflineObjective(Record):
    """Quality deviation plus switching cost plus gamma per second stalled."""

    target_quality: float = spec(MISSING, float, lambda v: 0.0 < v <= 100.0,
                                 "target quality must lie in (0, 100]")
    gamma: float = spec(10000.0, float, lambda v: v >= 0.0, "gamma must be >= 0")

    def __post_init__(self) -> None:
        check_fields(self, ConfigError)


def _bin(value: float) -> int:
    return int(round(value * _BINS_PER_S))


def _play(
    config: SimConfig, completed: int, x: float, t0: float, span: float
) -> tuple[float, float]:
    """Play buffer `x` over [t0, t0 + span) where the startup rule allows, `completed`
    chunks having arrived: (buffer left, stall_s)."""
    end = t0 + span
    if config.startup_kind == "latency":
        play_from = max(t0, config.startup_value)
    elif completed >= int(config.startup_value):
        play_from = t0
    else:
        play_from = end
    play = max(0.0, end - play_from)
    return max(x - play, 0.0), max(play - x, 0.0)


def _request_start(
    manifest: VideoManifest, config: SimConfig, chunk_index: int, x_key: int, t_key: int
) -> tuple[float, float, float]:
    """Gate drain and RTT from a binned state: (buffer, clock, stall_s) when data starts."""
    x, t = x_key / _BINS_PER_S, t_key / _BINS_PER_S
    kind, value = config.startup_kind, config.startup_value
    if x >= config.max_buffer_s and (
        t >= value if kind == "latency" else chunk_index >= int(value)
    ):
        # Request gate: drain at play rate down to the resume level.
        resume = config.resume_level(manifest.chunk_duration_s)
        t += x - resume
        x = resume
    # At rtt_s 0 this plays nothing and stalls 0.0: x and t stay as they are.
    x, stall = _play(config, chunk_index, x, t, config.rtt_s)
    return x, t + config.rtt_s, stall


def _arrive(
    manifest: VideoManifest, config: SimConfig, chunk_index: int,
    x: float, t: float, stall: float, end: float,
) -> tuple[int, int, float]:
    """Play over the download [t, end), credit the chunk and bin: (x_key', t_key', stall_s)."""
    x, s = _play(config, chunk_index, x, t, end - t)
    return _bin(x + manifest.chunk_duration_s), _bin(end), stall + s


def _pair_cost(
    quality: tuple[tuple[float, ...], ...],
    objective: OfflineObjective,
    chunk_index: int,
    level: int,
    prev_level: int | None,
) -> float:
    """Quality deviation plus switching cost of one chunk; the stall term is added apart."""
    q = quality[level - 1][chunk_index]
    cost = (objective.target_quality - q) ** 2
    if prev_level is not None:
        cost += (q - quality[prev_level - 1][chunk_index - 1]) ** 2
    return cost


def score_sequence(
    trace: BandwidthTrace,
    manifest: VideoManifest,
    objective: OfflineObjective,
    config: SimConfig,
    levels,
) -> float:
    """Objective value of a fixed level sequence under the shared request model."""
    levels = _read_levels(levels, "levels")
    if len(levels) != manifest.n_chunks:
        raise ConfigError("level sequence must cover every chunk")
    for level in levels:
        if type(level) is not int or level not in manifest.levels:
            raise ConfigError(f"level {level!r} not in manifest")
    quality = require_quality(manifest)
    total = 0.0
    prev: int | None = None
    x_key = t_key = 0
    for i, level in enumerate(levels):
        x, t, stall = _request_start(manifest, config, i, x_key, t_key)
        end = advance_download(trace, t, manifest.size_rows[level - 1][i])
        x_key, t_key, stall = _arrive(manifest, config, i, x, t, stall, end)
        total += _pair_cost(quality, objective, i, level, prev) + objective.gamma * stall
        prev = level
    return total


def _lower_bounds(
    manifest: VideoManifest, objective: OfflineObjective
) -> list[dict[int | None, float]]:
    """`LB[i][prev]`: least pair cost of chunks i.. after `prev`, stalls left out.

    Valid below every completion because gamma >= 0 and stall >= 0.
    """
    quality = require_quality(manifest)
    levels = manifest.levels
    lower: list[dict[int | None, float]] = [dict.fromkeys(levels, 0.0)]
    for i in reversed(range(manifest.n_chunks)):
        after = lower[-1]
        lower.append({
            prev: min(_pair_cost(quality, objective, i, lvl, prev) + after[lvl] for lvl in levels)
            for prev in ((None,) if i == 0 else levels)
        })
    lower.reverse()
    return lower


def _search(
    trace: BandwidthTrace,
    manifest: VideoManifest,
    objective: OfflineObjective,
    config: SimConfig,
    lower: list[dict[int | None, float]],
    bound: float,
    width: int | None,
) -> tuple[tuple[int, ...], float]:
    """One forward pass of the DP: relaxations whose `LB` completion exceeds
    `bound` are skipped, and `width`, if set, keeps that many states per chunk."""
    quality = require_quality(manifest)
    levels = manifest.levels
    gamma = objective.gamma
    downloads: dict[tuple[float, int], float] = {}
    # Iteration order is the lexicographic order of the kept prefixes.
    frontier: dict[tuple[int | None, int, int], float] = {(None, 0, 0): 0.0}
    parents: list[dict] = []
    for i in range(manifest.n_chunks):
        sizes = [row[i] for row in manifest.size_rows]  # in `levels` order
        pair_costs = {
            prev: [_pair_cost(quality, objective, i, level, prev) for level in levels]
            for prev in ((None,) if i == 0 else levels)
        }
        below = lower[i + 1]
        # (x_key, t_key) -> [((level, x_key', t_key'), gamma * stall_s)] per level
        moves: dict[tuple[int, int], list[tuple[tuple[int, int, int], float]]] = {}
        nxt: dict[tuple[int | None, int, int], float] = {}
        back: dict = {}
        for state, cost in frontier.items():
            prev, x_key, t_key = state
            out = moves.get((x_key, t_key))
            if out is None:
                x, t, stall = _request_start(manifest, config, i, x_key, t_key)
                out = []
                for level, size in zip(levels, sizes):
                    end = downloads.get((t, size))
                    if end is None:
                        end = downloads[(t, size)] = advance_download(trace, t, size)
                    nx, nt, s = _arrive(manifest, config, i, x, t, stall, end)
                    out.append(((level, nx, nt), gamma * s))
                moves[(x_key, t_key)] = out
            for (key, penalty), pair in zip(out, pair_costs[prev]):
                total = cost + (pair + penalty)
                if total + below[key[0]] > bound:
                    continue
                old = nxt.get(key)
                if old is None or total < old:
                    if old is not None:
                        # Candidates arrive in prefix order: re-inserting the
                        # winner keeps `nxt` in the order of its kept prefixes.
                        del nxt[key]
                    nxt[key] = total
                    back[key] = state
        if width is not None and len(nxt) > width:
            kept = set(heapq.nsmallest(width, nxt, key=lambda key: nxt[key] + below[key[0]]))
            nxt = {key: cost for key, cost in nxt.items() if key in kept}
        frontier = nxt
        parents.append(back)
    key = min(frontier, key=frontier.__getitem__)
    value = frontier[key]
    sequence = []
    for back in reversed(parents):
        sequence.append(key[0])
        key = back[key]
    sequence.reverse()
    return tuple(sequence), value


def offline_optimal(
    trace: BandwidthTrace,
    manifest: VideoManifest,
    objective: OfflineObjective,
    config: SimConfig,
) -> tuple[tuple[int, ...], float]:
    """Minimize the objective over all level sequences by exact branch and bound.

    The DP's states are (last level, binned buffer, binned clock), so two
    prefixes reaching the same state merge; the kept cost is the exact running
    sum. A move does not depend on the last level, so each chunk computes the
    moves of a (buffer, clock) pair once, and each download once per start
    clock and size. Two exact bounds prune it:

    - `LB[i][prev]`, a backward DP over levels summing only `_pair_cost`, is
      at most the cost of any completion from chunk i after `prev`;
    - `UB` is the value a beam pass of the same DP reaches keeping the best
      `_BEAM_WIDTH` states per chunk, ranked by cost plus `LB`: the running
      sum along its sequence's path, the float `score_sequence` gives it.

    A relaxation whose cost plus `LB` of the rest exceeds `UB` (with a
    relative slack of 1e-9 for summation order) cannot lead to an optimum and
    is skipped. Ties are canonical: each frontier is walked in the
    lexicographic order of its kept prefixes, a state keeps the first of equal
    costs, and the first of equal final values wins. The result is the
    lexicographically smallest optimal sequence, the one `brute_force_optimal`
    returns, wherever equal prefixes sum to bit-equal costs.
    """
    lower = _lower_bounds(manifest, objective)
    _, upper = _search(trace, manifest, objective, config, lower, math.inf, _BEAM_WIDTH)
    bound = upper + 1e-9 * abs(upper)
    return _search(trace, manifest, objective, config, lower, bound, None)


def brute_force_optimal(
    trace: BandwidthTrace,
    manifest: VideoManifest,
    objective: OfflineObjective,
    config: SimConfig,
    limit: int = 2_000_000,
) -> tuple[tuple[int, ...], float]:
    """Exhaustive cross-check; refuses instances over the evaluation budget."""
    n = manifest.n_chunks
    evals = n * manifest.n_levels**n
    if evals > limit:
        raise ConfigError(
            f"brute force would cost {evals} transition evaluations (limit {limit})"
        )
    best_seq: tuple[int, ...] | None = None
    best = 0.0
    for seq in itertools.product(manifest.levels, repeat=n):
        value = score_sequence(trace, manifest, objective, config, seq)
        if best_seq is None or value < best:
            best_seq, best = seq, value
    assert best_seq is not None
    return best_seq, best
