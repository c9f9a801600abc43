"""Equivalence of the fast paths with the references they replaced.

The tables must reproduce the references `track_avg_bitrate`,
`chunk_bitrate` and `windowed_avg_bitrate` below to the bit, `Mpc.decide` must pick the same level
and count the same evaluations as scoring every sequence from `itertools.product` one at a time, and
`offline_optimal` must return the same sequence and objective as the DP that
runs one full transition per (previous level, state, level). Where optimal
sequences tie, it must return the lexicographically smallest one, which is the
one `brute_force_optimal` returns. The PID schemes' rollout argmin must pick the
level, and count the evaluations, of the argmin that recomputes every
invariant on every horizon step.
"""

from __future__ import annotations

import itertools
import math
import pickle
import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _builders import cbr_manifest, vbr_manifest
from abrsim.engine import DownloadHistory, SimConfig, advance_download
from abrsim.media import BandwidthTrace
from abrsim.metrics import (
    _BEAM_WIDTH,
    OfflineObjective,
    _arrive,
    _bin,
    _lower_bounds,
    _request_start,
    _search,
    brute_force_optimal,
    offline_optimal,
    score_sequence,
)
from abrsim.control import PidParams, replace
from abrsim.schemes import (
    Cava,
    DecisionContext,
    Mpc,
    Pia,
    PiaStartup,
    Quad,
    RobustMpc,
    _window_mean,
)


def _seeded_vbr(seed: int, n_levels: int = 5, n_chunks: int = 40):
    rng = random.Random(seed)
    complexity = [rng.uniform(0.3, 2.0) for _ in range(n_chunks)]
    sizes = []
    rate = rng.uniform(200.0, 400.0)
    for _ in range(n_levels):
        jitter = [rng.uniform(0.9, 1.1) for _ in complexity]
        sizes.append([max(1, round(rate * 250 * c * j)) for c, j in zip(complexity, jitter)])
        rate *= rng.uniform(1.6, 2.2)
    return vbr_manifest(sizes, duration_s=2.0)


MANIFESTS = [
    cbr_manifest((350, 800, 1400, 2000, 2850, 4300), n_chunks=25),
    cbr_manifest((300, 700, 1500), duration_s=4.0, n_chunks=7),
    _seeded_vbr(1),
    _seeded_vbr(2, n_levels=3, n_chunks=17),
]


# -- rate tables ------------------------------------------------------------


def chunk_bitrate(manifest, level: int, index: int) -> float:
    """Instantaneous bitrate of one chunk in kbps."""
    return manifest.size_rows[level - 1][index] * 8.0 / 1000.0 / manifest.chunk_duration_s


def track_avg_bitrate(manifest, level: int) -> float:
    """Whole-track average bitrate in kbps: total bits over total playback time."""
    sizes = manifest.size_rows[level - 1]
    total_kilobits = sum(size * 8.0 / 1000.0 for size in sizes)
    total_seconds = sum(manifest.chunk_duration_s for _ in sizes)
    return total_kilobits / total_seconds


@pytest.mark.parametrize("manifest", MANIFESTS)
def test_table_average_is_track_avg_bitrate(manifest):
    for level in manifest.levels:
        assert manifest.avg_kbps[level - 1] == track_avg_bitrate(manifest, level)


@pytest.mark.parametrize("manifest", MANIFESTS)
def test_table_row_is_chunk_bitrate(manifest):
    for level in manifest.levels:
        for i in range(manifest.n_chunks):
            assert manifest.rate_rows[level - 1][i] == chunk_bitrate(manifest, level, i)


@pytest.mark.parametrize("manifest", MANIFESTS)
@pytest.mark.parametrize("window", [1, 3, 10, 50])
def test_table_window_is_windowed_avg_bitrate(manifest, window):
    for level in manifest.levels:
        for start in range(manifest.n_chunks):
            got = _window_mean(manifest.rate_rows[level - 1], start, window)
            assert got == windowed_avg_bitrate(manifest, level, start, window)


def test_tables_stay_out_of_equality_and_repr_and_survive_pickling():
    manifest = MANIFESTS[2]
    assert "rate_rows" not in repr(manifest) and "avg_kbps" not in repr(manifest)
    clone = pickle.loads(pickle.dumps(manifest))
    assert clone == manifest
    assert clone.avg_kbps == manifest.avg_kbps
    assert clone.rate_rows == manifest.rate_rows


# -- MPC prefix walk ----------------------------------------------------------


def _score(manifest, chunk_index, buffer_s, seq, est_kbps, mu, lam, prev_rate):
    """Per-sequence rollout: the scoring the prefix walk must reproduce."""
    delta = manifest.chunk_duration_s
    x = buffer_s
    total = change = stall = 0.0
    last_rate = prev_rate
    for k, lvl in enumerate(seq):
        rate = chunk_bitrate(manifest, lvl, chunk_index + k)
        dl = rate * delta / est_kbps
        stall += max(0.0, dl - x)
        x = max(x - dl, 0.0) + delta
        total += rate
        if last_rate is not None:
            change += abs(rate - last_rate)
        last_rate = rate
    return total / 1000.0 - mu * change / 1000.0 - lam * stall


def _reference_decide(scheme: Mpc, ctx: DecisionContext) -> tuple[int, int]:
    """(chosen level, evaluations) from scoring every sequence separately."""
    m = ctx.manifest
    est = max(ctx.est_kbps, 1e-9)
    if scheme.robust:
        est = est / (1.0 + scheme._worst_overestimate(ctx.history))
    lam = scheme.lam
    if lam is None:
        lam = max(track_avg_bitrate(m, level) for level in m.levels) / 1000.0
    h = min(scheme.horizon, m.n_chunks - ctx.chunk_index)
    prev_rate = None
    if ctx.last_level is not None:
        prev_rate = chunk_bitrate(m, ctx.last_level, ctx.chunk_index - 1)
    best = best_seq = None
    evals = 0
    for seq in itertools.product(sorted(ctx.allowed_levels), repeat=h):
        evals += 1
        score = _score(m, ctx.chunk_index, ctx.buffer_s, seq, est, scheme.mu, lam, prev_rate)
        if best is None or score > best:
            best, best_seq = score, seq
    return best_seq[0], evals


def _ctx(manifest, *, chunk_index, buffer_s, est_kbps, last_level, allowed, history=None):
    return DecisionContext(
        chunk_index=chunk_index,
        buffer_s=buffer_s,
        clock_s=0.0,
        est_kbps=est_kbps,
        last_level=last_level,
        allowed_levels=tuple(allowed),
        manifest=manifest,
        playing_indicator=1,
        history=history,
    )


def _assert_walk_matches_reference(scheme, ctx):
    before = scheme.eval_count
    level = scheme.decide(ctx)
    assert (level, scheme.eval_count - before) == _reference_decide(scheme, ctx)


@pytest.mark.parametrize("seed", range(8))
def test_mpc_walk_matches_product_reference(seed):
    rng = random.Random(seed)
    manifest = _seeded_vbr(100 + seed, n_levels=rng.randint(2, 4), n_chunks=rng.randint(4, 9))
    for _ in range(25):
        chunk_index = rng.randrange(manifest.n_chunks)
        last_level = rng.choice(manifest.levels) if chunk_index > 0 else None
        allowed = rng.sample(manifest.levels, rng.randint(1, manifest.n_levels))
        history = None
        if rng.random() < 0.5:
            history = DownloadHistory()
            for _ in range(rng.randint(1, 7)):
                history.add_estimate(rng.uniform(300.0, 5000.0))
                history.add_chunk_sample(rng.uniform(0.0, 5000.0))
        ctx = _ctx(
            manifest,
            chunk_index=chunk_index,
            buffer_s=rng.choice([0.0, rng.uniform(0.0, 40.0)]),
            est_kbps=rng.choice([0.0, rng.uniform(100.0, 8000.0)]),
            last_level=last_level,
            allowed=allowed,
            history=history,
        )
        horizon = rng.randint(1, 5)
        lam = rng.choice([None, 0.0, rng.uniform(0.0, 10.0)])
        mu = rng.choice([0.0, 1.0, rng.uniform(0.0, 3.0)])
        _assert_walk_matches_reference(Mpc(horizon=horizon, mu=mu, lam=lam), ctx)
        _assert_walk_matches_reference(RobustMpc(horizon=horizon, mu=mu, lam=lam), ctx)


def _edge_contexts():
    """The ties and floors the walk's hand-written `max` must score as `max` does:
    a buffer equal to one level's download time, now or one step in; an estimate
    of 0, which reads as the floor; the last chunk, where every horizon is 1; and
    a ladder whose rates are all equal, so every sequence ties."""
    cbr = cbr_manifest((1000, 2000, 4000), n_chunks=6)
    vbr = _seeded_vbr(7, n_levels=3, n_chunks=6)
    for manifest in (cbr, vbr):
        delta = manifest.chunk_duration_s
        for i, lvl, est in ((0, 1, 500.0), (2, 3, 1700.0), (5, 2, 2300.0)):
            dl = manifest.rate_rows[lvl - 1][i] * delta / est
            yield _ctx(manifest, chunk_index=i, buffer_s=dl, est_kbps=est,
                       last_level=None if i == 0 else 2, allowed=(1, 2, 3))
        for i in (0, 3, manifest.n_chunks - 1):
            for buffer_s in (0.0, -0.0, 3.0):
                yield _ctx(manifest, chunk_index=i, buffer_s=buffer_s, est_kbps=0.0,
                           last_level=None if i == 0 else 1, allowed=(3, 1, 2))
    # one step in: after chunk i at `lvl` the buffer is chunk i + 1's download time
    # at `lvl`, which these dyadic rates and estimates reach bit for bit
    for i, lvl, est in ((0, 1, 500.0), (2, 3, 2000.0), (4, 2, 1000.0)):
        delta = cbr.chunk_duration_s
        dl = cbr.rate_rows[lvl - 1][i] * delta / est
        ahead = cbr.rate_rows[lvl - 1][i + 1] * delta / est
        buffer_s = dl + ahead - delta
        assert max(buffer_s - dl, 0.0) + delta == ahead
        yield _ctx(cbr, chunk_index=i, buffer_s=buffer_s, est_kbps=est,
                   last_level=None if i == 0 else 2, allowed=(lvl, 1))
    flat = cbr_manifest((800, 800, 800), n_chunks=4)
    for i, last in ((0, None), (2, 3), (3, 2)):
        yield _ctx(flat, chunk_index=i, buffer_s=1.0, est_kbps=900.0, last_level=last,
                   allowed=(2, 3, 1))


@pytest.mark.parametrize("scheme_class", [Mpc, RobustMpc])
@pytest.mark.parametrize("horizon", [1, 2, 5])
@pytest.mark.parametrize("lam, mu", [(None, 1.0), (0.0, 1.0), (0.0, 0.0), (4.3, 2.5)])
def test_mpc_walk_matches_product_reference_at_the_edges(scheme_class, horizon, lam, mu):
    for ctx in _edge_contexts():
        _assert_walk_matches_reference(scheme_class(horizon=horizon, mu=mu, lam=lam), ctx)


@pytest.mark.parametrize("allowed", [(1, 2, 3), (3, 2, 1), (2, 1)])
def test_mpc_walk_resolves_ties_to_the_first_sequence(allowed):
    # Levels 1 and 2 have identical rates, so every sequence through one has
    # an equal-scoring twin through the other; the first in product order wins.
    manifest = cbr_manifest((500, 500, 3000), n_chunks=6)
    ctx = _ctx(manifest, chunk_index=2, buffer_s=2.0, est_kbps=700.0, last_level=2, allowed=allowed)
    scheme = Mpc()
    _assert_walk_matches_reference(scheme, ctx)
    assert scheme.decide(ctx) == 1


def test_mpc_walk_all_sequences_tied():
    manifest = cbr_manifest((800, 800, 800), n_chunks=5)
    ctx = _ctx(
        manifest, chunk_index=1, buffer_s=6.0, est_kbps=1000.0, last_level=3, allowed=(3, 1, 2)
    )
    scheme = Mpc(horizon=3)
    _assert_walk_matches_reference(scheme, ctx)
    assert scheme.decide(ctx) == 1
    assert scheme.eval_count == 2 * 3**3


# -- offline-optimal DP ---------------------------------------------------------


def _started(config, clock, completed):
    if config.startup_kind == "latency":
        return clock >= config.startup_value
    return completed >= int(config.startup_value)


def _playback_window(config, t0, span, completed):
    """Seconds of [t0, t0+span) during which the startup rule permits playback."""
    if config.startup_kind == "latency":
        play_from = max(t0, config.startup_value)
    elif completed >= int(config.startup_value):
        play_from = t0
    else:
        play_from = t0 + span
    return max(0.0, t0 + span - play_from)


def _drain(x, play_s):
    """Consume play_s of buffered content; deficit is stalled time."""
    return max(x - play_s, 0.0), max(play_s - x, 0.0)


def _reference_transition(trace, manifest, config, chunk_index, level, x_key, t_key):
    """One chunk request from a binned state, computed whole for every call. The
    arriving chunk is credited in full, past the cap too, as the engine does."""
    delta = manifest.chunk_duration_s
    cap = config.max_buffer_s
    margin = config.resume_margin_s if config.resume_margin_s is not None else delta
    x = x_key / 10.0
    t = t_key / 10.0
    stall = 0.0
    if x >= cap and _started(config, t, chunk_index):
        resume = max(cap - margin, delta)
        t += x - resume
        x = resume
    if config.rtt_s > 0.0:
        x, s = _drain(x, _playback_window(config, t, config.rtt_s, chunk_index))
        stall += s
        t += config.rtt_s
    end = advance_download(trace, t, manifest.size_rows[level - 1][chunk_index])
    x, s = _drain(x, _playback_window(config, t, end - t, chunk_index))
    stall += s
    return _bin(x + delta), _bin(end), stall


def windowed_avg_bitrate(manifest, level: int, start: int, window: int) -> float:
    """Mean per-chunk bitrate over chunks [start, start+window), truncated at video end."""
    span = range(start, min(start + window, manifest.n_chunks))
    return sum(chunk_bitrate(manifest, level, i) for i in span) / len(span)


def _reference_step_cost(quality, objective, chunk_index, level, prev_level, stall_s):
    q = quality[level - 1][chunk_index]
    cost = (objective.target_quality - q) ** 2
    if prev_level is not None:
        cost += (q - quality[prev_level - 1][chunk_index - 1]) ** 2
    return cost + objective.gamma * stall_s


def _reference_offline_optimal(trace, manifest, objective, config):
    """The DP the fast solver must reproduce: every (prev, x, t, level) move in full."""
    quality = manifest.quality_rows
    frontier = {(None, 0, 0): 0.0}
    parents = []
    for i in range(manifest.n_chunks):
        nxt = {}
        back = {}
        for (prev, x_key, t_key), cost in frontier.items():
            for level in manifest.levels:
                nx, nt, stall = _reference_transition(
                    trace, manifest, config, i, level, x_key, t_key
                )
                total = cost + _reference_step_cost(quality, objective, i, level, prev, stall)
                key = (level, nx, nt)
                if key not in nxt or total < nxt[key]:
                    nxt[key] = total
                    back[key] = (prev, x_key, t_key)
        frontier = nxt
        parents.append(back)
    best = min(frontier, key=lambda key: (frontier[key], key))
    value = frontier[best]
    sequence = []
    key = best
    for back in reversed(parents):
        sequence.append(key[0])
        key = back[key]
    sequence.reverse()
    return tuple(sequence), value


def _rated_vbr(rng, seed, n_levels, n_chunks):
    """`_seeded_vbr` sizes with a random quality value on every chunk."""
    sizes = _seeded_vbr(seed, n_levels=n_levels, n_chunks=n_chunks).size_rows
    vmafs = [[round(rng.uniform(30.0, 99.0), 1) for _ in range(n_chunks)] for _ in range(n_levels)]
    return vbr_manifest(sizes, vmafs_by_level=vmafs)


def _oracle_instance(seed):
    rng = random.Random(seed)
    manifest = _rated_vbr(rng, seed, rng.randint(2, 4), rng.randint(3, 7))
    samples = [float(rng.randrange(100, 6000)) for _ in range(rng.randint(3, 15))]
    trace = BandwidthTrace(name=f"rng{seed}", samples=tuple(samples))
    objective = OfflineObjective(
        target_quality=rng.choice([70.0, 80.0, 90.0]),
        gamma=rng.choice([0.0, 100.0, 10000.0]),
    )
    return trace, manifest, objective


CONFIGS = {
    "default": SimConfig(),
    "rtt0": SimConfig(rtt_s=0.0),
    "latency0": SimConfig(startup_kind="latency", startup_value=0.0),
    "latency0-rtt0": SimConfig(startup_kind="latency", startup_value=0.0, rtt_s=0.0),
    "chunks1": SimConfig(startup_kind="chunks_buffered", startup_value=1.0),
    "chunks2-rtt0": SimConfig(startup_kind="chunks_buffered", startup_value=2.0, rtt_s=0.0),
    "gate": SimConfig(max_buffer_s=5.0, resume_margin_s=1.5, rtt_s=0.3),
    "gate-latency0": SimConfig(
        startup_kind="latency", startup_value=0.0, max_buffer_s=6.0, resume_margin_s=3.0
    ),
    "gate-chunks1-rtt0": SimConfig(
        startup_kind="chunks_buffered", startup_value=1.0, max_buffer_s=4.5, resume_margin_s=0.5,
        rtt_s=0.0,
    ),
}


def _assert_dp_matches_reference(trace, manifest, objective, config):
    assert offline_optimal(trace, manifest, objective, config) == _reference_offline_optimal(
        trace, manifest, objective, config
    )


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
@pytest.mark.parametrize("seed", range(4))
def test_dp_matches_reference_dp(seed, config):
    _assert_dp_matches_reference(*_oracle_instance(seed), config)


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
@pytest.mark.parametrize("same_sizes", [True, False], ids=["same-sizes", "own-sizes"])
def test_dp_matches_reference_dp_on_tied_levels(config, same_sizes):
    # Levels 1 and 2 carry identical quality rows; with identical sizes every
    # move through one has an equal-cost twin through the other. The reference
    # here is brute force, whose strict `<` over `itertools.product` keeps the
    # lexicographically smallest of the tied optima.
    rng = random.Random(11)
    n = 6
    low = [rng.randrange(60_000, 120_000) for _ in range(n)]
    mid = list(low) if same_sizes else [s + 30_000 for s in low]
    high = [s + 400_000 for s in low]
    row = [round(rng.uniform(50.0, 90.0), 1) for _ in range(n)]
    manifest = vbr_manifest([low, mid, high], vmafs_by_level=[row, list(row), [95.0] * n])
    trace = BandwidthTrace("steps", (900.0, 2500.0, 400.0, 1800.0, 3200.0))
    for gamma in (0.0, 100.0):
        objective = OfflineObjective(80.0, gamma)
        assert offline_optimal(trace, manifest, objective, config) == brute_force_optimal(
            trace, manifest, objective, config
        )


def _model_transition(trace, manifest, config, chunk_index, level, x_key, t_key):
    x, t, stall = _request_start(manifest, config, chunk_index, x_key, t_key)
    end = advance_download(trace, t, manifest.size_rows[level - 1][chunk_index])
    return _arrive(manifest, config, chunk_index, x, t, stall, end)


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
@pytest.mark.parametrize("seed", range(4))
def test_model_matches_reference_on_every_reachable_move(seed, config):
    # Equal optima do not show that the two models agree; compare every move
    # from every (buffer, clock) state the model reaches, chunk by chunk.
    trace, manifest, _ = _oracle_instance(seed)
    states = {(0, 0)}
    wrong = []
    for i in range(manifest.n_chunks):
        reached = set()
        for x_key, t_key in sorted(states):
            for level in manifest.levels:
                args = (trace, manifest, config, i, level, x_key, t_key)
                move = _model_transition(*args)
                if move != _reference_transition(*args):
                    wrong.append(args[3:])
                reached.add(move[:2])
        states = reached
    assert wrong == []


def test_dp_matches_reference_dp_on_a_longer_instance():
    rng = random.Random(5)
    manifest = _rated_vbr(rng, 5, n_levels=4, n_chunks=9)
    trace = BandwidthTrace("walk", tuple(float(rng.randrange(200, 5000)) for _ in range(40)))
    _assert_dp_matches_reference(trace, manifest, OfflineObjective(85.0), SimConfig())


@st.composite
def _tied_instances(draw):
    """Small instances whose quality values, sizes and link rates come from
    few values, so tied moves and tied optima are common."""
    n = draw(st.integers(1, 5))
    n_levels = draw(st.integers(2, 3))
    quality = st.sampled_from((70.0, 80.0, 90.0))
    rows = [draw(st.lists(quality, min_size=n, max_size=n)) for _ in range(n_levels)]
    if draw(st.booleans()):
        rows[1] = list(rows[0])
    sizes = [draw(st.lists(st.sampled_from((60_000, 90_000, 120_000)), min_size=n, max_size=n))]
    for _ in range(n_levels - 1):
        step = draw(st.sampled_from((0, 30_000, 250_000)))
        sizes.append([size + step for size in sizes[-1]])
    rates = st.sampled_from((400.0, 900.0, 1800.0, 3200.0))
    trace = BandwidthTrace("tied", tuple(draw(st.lists(rates, min_size=1, max_size=6))))
    objective = OfflineObjective(80.0, draw(st.sampled_from((0.0, 100.0, 10000.0))))
    return trace, vbr_manifest(sizes, vmafs_by_level=rows), objective


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
@settings(max_examples=15, deadline=None)
@given(instance=_tied_instances())
def test_dp_is_brute_force_within_its_bounds(config, instance):
    trace, manifest, objective = instance
    levels, value = offline_optimal(trace, manifest, objective, config)
    assert (levels, value) == brute_force_optimal(trace, manifest, objective, config)
    lower = _lower_bounds(manifest, objective)
    guess, upper = _search(trace, manifest, objective, config, lower, math.inf, _BEAM_WIDTH)
    # `offline_optimal` prunes with the beam's own value as its upper bound.
    assert upper == score_sequence(trace, manifest, objective, config, guess)
    assert lower[0][None] <= value <= upper


# -- PID rollout argmin -----------------------------------------------------------


def _reference_argmin(scheme, ctx, rates, u, kp, xr, alpha, eta) -> int:
    """The rollout argmin as first written: every invariant recomputed per step."""
    self = scheme
    pid, horizon = self.pid, self.horizon
    manifest = ctx.manifest
    delta = manifest.chunk_duration_s
    est = max(ctx.est_kbps, 1e-9)
    target = alpha * est
    prev_rate = None
    if ctx.last_level is not None:
        prev_rate = manifest.avg_kbps[ctx.last_level - 1]
    best = best_lvl = None
    for lvl in sorted(ctx.allowed_levels):
        rate = rates[lvl - 1]
        d = rate * delta / est
        cost = 0.0
        x, integral, uk = ctx.buffer_s, self.integral, u
        ind = float(ctx.playing_indicator)
        for _ in range(horizon):
            cost += (uk * rate - target) ** 2
            nx = max(x + delta - (d if ind else 0.0), 0.0)
            integral += (xr - x) * d
            ind = 1.0 if nx >= delta else 0.0
            uk = max(kp * (pid.beta * xr - nx) + pid.ki * integral + ind, pid.epsilon)
            x = nx
        self.eval_count += horizon
        if prev_rate is not None:
            cost += eta * (manifest.avg_kbps[lvl - 1] - prev_rate) ** 2
        if best is None or cost < best:
            best, best_lvl = cost, lvl
    return best_lvl


# The `pid` defaults of pia, piae, cava and quad, and two off-default gain sets.
_PID_PARAMS = (
    Pia().pid,
    PiaStartup().pid,
    Cava().pid,
    Quad().pid,
    PidParams(kp=0.05, ki=1e-3, beta=0.5, epsilon=0.25, target_buffer=8.0),
    PidParams(kp=1e-4, ki=1e-6, beta=1.0, epsilon=1e-10, target_buffer=120.0),
)
_ARGMIN_MANIFESTS = (
    MANIFESTS[1],
    _seeded_vbr(3, n_levels=4, n_chunks=12),
    cbr_manifest((500, 500, 3000), n_chunks=6),  # levels 1 and 2 tie on track average
)


def _pid_scheme(kind, pid, horizon, window):
    if kind == "pia":
        return Pia(pid=pid, horizon=horizon)
    if kind == "piae":
        return PiaStartup(pid=replace(pid, beta=1.0), horizon=horizon)
    return Cava(pid=pid, horizon=horizon, inner_window=max(window, horizon))


def _rollout_rates(scheme, manifest, chunk_index):
    """The rate row each PID scheme hands its argmin, from the references above."""
    if isinstance(scheme, Cava):
        window = scheme.inner_window
        return [windowed_avg_bitrate(manifest, lvl, chunk_index, window) for lvl in manifest.levels]
    return [track_avg_bitrate(manifest, lvl) for lvl in manifest.levels]


@st.composite
def _argmin_cases(draw):
    manifest = draw(st.sampled_from(_ARGMIN_MANIFESTS))
    delta = manifest.chunk_duration_s
    scheme = _pid_scheme(
        draw(st.sampled_from(("pia", "piae", "cava"))),
        draw(st.sampled_from(_PID_PARAMS)),
        draw(st.integers(1, 6)),
        # a window of 50 runs past the end of every manifest here, from any chunk
        draw(st.sampled_from((1, 3, 10, 50))),
    )
    scheme.integral = draw(st.sampled_from((0.0, -250.0, 1234.5)))
    scheme.freeze = draw(st.booleans())
    chunk_index = draw(st.integers(0, manifest.n_chunks - 1))
    allowed = draw(st.lists(st.sampled_from(manifest.levels), min_size=1, unique=True))
    ctx = DecisionContext(
        chunk_index=chunk_index,
        buffer_s=draw(st.sampled_from((0.0, delta - 1e-13, delta, delta + 1e-13, 7.3, 95.0))),
        clock_s=0.0,
        est_kbps=draw(st.sampled_from((0.0, 450.0, 1000.0, 5200.0))),
        last_level=draw(st.none() | st.sampled_from(manifest.levels)),
        allowed_levels=tuple(allowed),
        manifest=manifest,
        playing_indicator=draw(st.sampled_from((0, 1))),
    )
    pid = scheme.pid
    u = draw(st.sampled_from((pid.epsilon, 0.3, 1.0, 2.5)))
    kp = draw(st.sampled_from((pid.kp, 4.0 * pid.kp)))
    xr = draw(st.sampled_from((pid.target_buffer, 2.0 * delta, 30.0)))
    alpha = draw(st.sampled_from((1.0, 0.8, 1.1)))
    eta = draw(st.sampled_from((0.0, 1.0, 2.5)))
    return scheme, ctx, _rollout_rates(scheme, manifest, chunk_index), (u, kp, xr, alpha, eta)


class _Eta(float):
    """An eta that records, bit for bit, each rollout cost its switching term is
    added to: `cost += eta * change ** 2` hands the cost to `_Term.__radd__`."""

    def __new__(cls, value, seen):
        eta = super().__new__(cls, value)
        eta.seen = seen
        return eta

    def __mul__(self, other):
        return _Term(float(self) * other, self.seen)


class _Term(float):
    def __new__(cls, value, seen):
        term = super().__new__(cls, value)
        term.seen = seen
        return term

    def __radd__(self, cost):
        self.seen.append(cost)
        return cost + float(self)


def _argmin_run(argmin, scheme, ctx, rates, u, kp, xr, alpha, eta):
    """(level, evaluations, rollout costs) of one argmin call."""
    seen = []
    before = scheme.eval_count
    level = argmin(ctx, rates, u, kp, xr, alpha, _Eta(eta, seen))
    return level, scheme.eval_count - before, seen


@settings(max_examples=120, deadline=None)
@given(case=_argmin_cases())
def test_pid_argmin_matches_reference(case):
    scheme, ctx, rates, args = case
    state = (scheme.integral, scheme.freeze)
    want = _argmin_run(partial(_reference_argmin, scheme), scheme, ctx, rates, *args)
    checked = lambda c, *rest: scheme._argmin(c, c.checked_levels(), *rest)
    got = _argmin_run(checked, scheme, ctx, rates, *args)
    assert got == want
    assert got[1] == scheme.horizon * len(ctx.allowed_levels)
    assert len(got[2]) == (0 if ctx.last_level is None else len(ctx.allowed_levels))
    assert (scheme.integral, scheme.freeze) == state


@pytest.mark.parametrize("window", [5, 10, 50])
@pytest.mark.parametrize("manifest", _ARGMIN_MANIFESTS[:2])
def test_cava_hands_each_argmin_pass_the_windowed_row(monkeypatch, manifest, window):
    scheme = Cava(inner_window=window)
    scheme.reset(manifest)
    argmin, rows = scheme._argmin, []

    def recording(ctx, levels, rates, *args):
        rows.append((ctx.chunk_index, list(rates)))
        return argmin(ctx, levels, rates, *args)

    monkeypatch.setattr(scheme, "_argmin", recording)
    for i in range(manifest.n_chunks):
        for est, last in ((300.0, None), (300.0, 1), (4000.0, 2)):
            ctx = DecisionContext(i, 12.0, 0.0, est, last, manifest.levels, manifest, 1)
            scheme.decide(ctx)
    assert len(rows) > 3 * manifest.n_chunks  # some decisions ran the relief pass
    for i, rates in rows:
        assert rates == _rollout_rates(scheme, manifest, i)
