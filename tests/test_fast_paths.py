"""Equivalence of the manifest rate tables and the MPC prefix walk with their references.

The tables must reproduce `track_avg_bitrate` and `windowed_avg_bitrate` to the
bit, and `Mpc.decide` must pick the same level and count the same evaluations
as scoring every sequence from `itertools.product` one at a time.
"""

from __future__ import annotations

import itertools
import pickle
import random

import pytest

from _builders import cbr_manifest, vbr_manifest
from abrsim.engine import DownloadHistory
from abrsim.media import track_avg_bitrate, windowed_avg_bitrate
from abrsim.schemes import DecisionContext, Mpc, RobustMpc


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


@pytest.mark.parametrize("manifest", MANIFESTS)
def test_table_average_is_track_avg_bitrate(manifest):
    for level in manifest.levels:
        assert manifest.avg_bitrate_kbps(level) == track_avg_bitrate(manifest.track(level))


@pytest.mark.parametrize("manifest", MANIFESTS)
def test_table_row_is_chunk_bitrate(manifest):
    for level in manifest.levels:
        for i, chunk in enumerate(manifest.track(level).chunks):
            assert manifest.bitrate_kbps(level, i) == chunk.bitrate_kbps


@pytest.mark.parametrize("manifest", MANIFESTS)
@pytest.mark.parametrize("window", [1, 3, 10, 50])
def test_table_window_is_windowed_avg_bitrate(manifest, window):
    for level in manifest.levels:
        track = manifest.track(level)
        for start in range(manifest.n_chunks):
            got = manifest.windowed_bitrate_kbps(level, start, window)
            assert got == windowed_avg_bitrate(track, start, window)


def test_table_window_keeps_range_checks():
    manifest = MANIFESTS[1]
    for start, window in ((-1, 2), (manifest.n_chunks, 2), (0, 0)):
        with pytest.raises(ValueError) as reference:
            windowed_avg_bitrate(manifest.track(1), start, window)
        with pytest.raises(type(reference.value), match=str(reference.value)):
            manifest.windowed_bitrate_kbps(1, start, window)


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
        rate = manifest.chunk(lvl, chunk_index + k).bitrate_kbps
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
        lam = max(track_avg_bitrate(t) for t in m.tracks) / 1000.0
    h = min(scheme.horizon, m.n_chunks - ctx.chunk_index)
    prev_rate = None
    if ctx.last_level is not None:
        prev_rate = m.chunk(ctx.last_level, ctx.chunk_index - 1).bitrate_kbps
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
        chunk_class=None,
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
