"""Offline-optimal reference solver: DP, brute force, and sequence re-scoring."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _builders import cbr_manifest, constant_trace, vbr_manifest
from abrsim.engine import SimConfig, advance_download, simulate_session
from abrsim.media import BandwidthTrace
from abrsim.metrics import (
    OfflineObjective,
    _arrive,
    _request_start,
    brute_force_optimal,
    offline_optimal,
    score_sequence,
)
from abrsim.schemes import BufferBased, ConfigError, Pia, RateBased

FAST = constant_trace(10000.0, 60)
SLOW = constant_trace(600.0, 60)

TWO_LEVEL = cbr_manifest([500, 1000], n_chunks=2, vmafs=[70.0, 90.0])
SLOW_PAIR = cbr_manifest([500, 5000], n_chunks=2, vmafs=[70.0, 95.0])


def test_objective_validation():
    with pytest.raises(ConfigError):
        OfflineObjective(target_quality=80.0, gamma=-1.0)
    with pytest.raises(ConfigError):
        OfflineObjective(target_quality=0.0)
    with pytest.raises(ConfigError):
        OfflineObjective(target_quality=101.0)


@pytest.mark.parametrize("gamma", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_objective_rejects_non_finite_gamma(gamma):
    with pytest.raises(ConfigError, match="finite"):
        OfflineObjective(target_quality=80.0, gamma=gamma)


def test_single_chunk_on_target_is_free():
    manifest = cbr_manifest([500, 1000], n_chunks=1, vmafs=[80.0, 80.0])
    seq, value = offline_optimal(FAST, manifest, OfflineObjective(80.0), SimConfig())
    assert value == 0.0
    assert len(seq) == 1


def test_two_chunk_costs_by_hand():
    # Per sequence: deviation terms plus one switch term; no stalls on a fast link.
    # (1,1) and (2,2) cost 200, (1,2) and (2,1) cost 600.
    objective = OfflineObjective(80.0)
    seq, value = offline_optimal(FAST, TWO_LEVEL, objective, SimConfig())
    assert value == 200.0
    assert seq in ((1, 1), (2, 2))
    assert score_sequence(FAST, TWO_LEVEL, objective, SimConfig(), (1, 2)) == 600.0


def test_stall_penalty_forces_sustainable_level():
    # The top track needs 16.7 s per 2 s chunk at 600 kbps, stalling after
    # playback starts; a huge gamma makes any such sequence dominated.
    objective = OfflineObjective(95.0, gamma=1e9)
    seq, value = offline_optimal(SLOW, SLOW_PAIR, objective, SimConfig())
    assert seq == (1, 1)
    assert value == 1250.0


def test_gamma_zero_ignores_stalls():
    objective = OfflineObjective(95.0, gamma=0.0)
    seq, value = offline_optimal(SLOW, SLOW_PAIR, objective, SimConfig())
    assert seq == (2, 2)
    assert value == 0.0


def test_missing_quality_metadata_refused():
    plain = cbr_manifest([500, 1000], n_chunks=2)
    with pytest.raises(ConfigError):
        offline_optimal(FAST, plain, OfflineObjective(80.0), SimConfig())
    with pytest.raises(ConfigError):
        score_sequence(FAST, plain, OfflineObjective(80.0), SimConfig(), (1, 1))


def test_score_sequence_validation():
    objective = OfflineObjective(80.0)
    with pytest.raises(ConfigError):
        score_sequence(FAST, TWO_LEVEL, objective, SimConfig(), (1,))
    with pytest.raises(ConfigError):
        score_sequence(FAST, TWO_LEVEL, objective, SimConfig(), (1, 99))
    # True and 1.0 equal level 1, but a level is an int
    with pytest.raises(ConfigError, match="^level True not in manifest$"):
        score_sequence(FAST, TWO_LEVEL, objective, SimConfig(), (True, 1))
    with pytest.raises(ConfigError, match=r"^level 1\.0 not in manifest$"):
        score_sequence(FAST, TWO_LEVEL, objective, SimConfig(), (1.0, 1))


def test_score_sequence_refuses_levels_it_cannot_iterate():
    with pytest.raises(ConfigError, match="^levels must be a collection, got int$"):
        score_sequence(FAST, TWO_LEVEL, OfflineObjective(80.0), SimConfig(), 5)


def test_brute_force_budget_refusal():
    manifest = cbr_manifest([300, 600, 900], n_chunks=12)
    with pytest.raises(ConfigError):
        brute_force_optimal(SLOW, manifest, OfflineObjective(80.0), SimConfig())


def test_brute_force_budget_boundary():
    # 3 chunks at 2 levels costs exactly 3 * 2**3 = 24 transition evaluations.
    manifest = cbr_manifest([500, 1000], n_chunks=3, vmafs=[70.0, 90.0])
    objective = OfflineObjective(80.0)
    seq, value = brute_force_optimal(FAST, manifest, objective, SimConfig(), limit=24)
    assert len(seq) == 3
    with pytest.raises(ConfigError):
        brute_force_optimal(FAST, manifest, objective, SimConfig(), limit=23)


def test_offline_optimal_is_deterministic():
    objective = OfflineObjective(80.0)
    first = offline_optimal(SLOW, SLOW_PAIR, objective, SimConfig())
    second = offline_optimal(SLOW, SLOW_PAIR, objective, SimConfig())
    assert first == second


def _random_instance(rng):
    n = rng.randint(2, 6)
    n_levels = rng.randint(2, 3)
    sizes = [
        [rng.randrange(40_000, 200_000) + 250_000 * lvl for _ in range(n)]
        for lvl in range(n_levels)
    ]
    vmafs = [[round(rng.uniform(30.0, 99.0), 1) for _ in range(n)] for _ in range(n_levels)]
    manifest = vbr_manifest(sizes, vmafs_by_level=vmafs)
    samples = [float(rng.randrange(100, 6000)) for _ in range(rng.randint(3, 12))]
    trace = BandwidthTrace(name=f"rng{rng.random():.3f}", samples=tuple(samples))
    objective = OfflineObjective(
        target_quality=rng.choice([70.0, 80.0, 90.0]),
        gamma=rng.choice([0.0, 100.0, 10000.0]),
    )
    kind, value = rng.choice([("latency", 5.0), ("latency", 0.0), ("chunks_buffered", 1.0)])
    config = SimConfig(startup_kind=kind, startup_value=value)
    return trace, manifest, objective, config


def test_dp_matches_brute_force_on_random_instances():
    rng = random.Random(20260816)
    for _ in range(10):
        trace, manifest, objective, config = _random_instance(rng)
        dp_seq, dp_value = offline_optimal(trace, manifest, objective, config)
        bf_seq, bf_value = brute_force_optimal(trace, manifest, objective, config, limit=10**7)
        assert dp_seq == bf_seq
        assert dp_value == bf_value
        assert score_sequence(trace, manifest, objective, config, dp_seq) == dp_value
        assert len(dp_seq) == manifest.n_chunks
        assert all(level in manifest.levels for level in dp_seq)


def test_tied_optima_resolve_to_the_lexicographically_smallest():
    # Equal sizes make every level's move the same, so (1, 2, x) and (2, 1, x)
    # tie at the optimum. After chunk 1 the state reached by (2, 1) replaces
    # the costlier (1, 1), which the bounds cannot prune because the stall
    # penalty dwarfs every pair cost; it must then rank behind (1, 2).
    manifest = vbr_manifest(
        [[400_000] * 3, [400_000] * 3], vmafs_by_level=[[70.0, 90.0, 80.0], [90.0, 70.0, 80.0]]
    )
    trace = constant_trace(1000.0, 60)
    objective = OfflineObjective(80.0, gamma=10000.0)
    dp = offline_optimal(trace, manifest, objective, SimConfig())
    assert dp == brute_force_optimal(trace, manifest, objective, SimConfig())
    assert dp[0] == (1, 2, 1)


def test_dp_matches_brute_force_with_tight_buffer_cap():
    # Small cap exercises the request gate: the session drains to the resume
    # level before each new request once the cap is hit.
    manifest = cbr_manifest([500, 1000], n_chunks=5, vmafs=[70.0, 90.0])
    config = SimConfig(startup_kind="latency", startup_value=0.5, max_buffer_s=6.0)
    objective = OfflineObjective(80.0, gamma=100.0)
    dp_seq, dp_value = offline_optimal(FAST, manifest, objective, config)
    bf_seq, bf_value = brute_force_optimal(FAST, manifest, objective, config, limit=10**6)
    assert dp_seq == bf_seq
    assert dp_value == bf_value
    assert score_sequence(FAST, manifest, objective, config, dp_seq) == dp_value


@settings(max_examples=40, deadline=None)
@given(levels=st.lists(st.integers(1, 3), min_size=4, max_size=4))
def test_dp_value_dominates_any_sequence(levels):
    manifest = cbr_manifest([400, 900, 1800], n_chunks=4, vmafs=[55.0, 75.0, 90.0])
    trace = constant_trace(1200.0, 40)
    objective = OfflineObjective(80.0, gamma=1000.0)
    _, dp_value = offline_optimal(trace, manifest, objective, SimConfig())
    assert dp_value <= score_sequence(trace, manifest, objective, SimConfig(), tuple(levels))


def test_dp_value_dominates_online_schemes():
    manifest = cbr_manifest([400, 900, 1800], n_chunks=8, vmafs=[55.0, 75.0, 90.0])
    trace = BandwidthTrace(
        name="varying",
        samples=tuple([2000.0] * 10 + [700.0] * 10 + [1500.0] * 20),
    )
    objective = OfflineObjective(80.0, gamma=10000.0)
    config = SimConfig()
    _, dp_value = offline_optimal(trace, manifest, objective, config)
    for scheme in (RateBased(), BufferBased(), Pia()):
        log = simulate_session(scheme, trace, manifest, config)
        levels = tuple(d.level for d in log.decisions)
        online = score_sequence(trace, manifest, objective, config, levels)
        assert dp_value <= online



class _Lowest(RateBased):
    def decide(self, ctx):
        return 1


def test_model_keeps_content_past_the_cap_as_the_engine_does():
    # A chunk that lands with the buffer near the cap lifts it past the cap;
    # the engine keeps every downloaded second and gates the next request, so
    # the model must not discard the overshoot. Bins allow 0.05 s per chunk.
    n = 20
    trace = constant_trace(3000.0, 60)
    manifest = cbr_manifest([400, 800], n_chunks=n, vmafs=[70.0, 90.0])
    config = SimConfig(startup_kind="latency", startup_value=0.0, max_buffer_s=9.0)
    x_key = t_key = 0
    stall = 0.0
    for i in range(n):
        x, t, s = _request_start(manifest, config, i, x_key, t_key)
        end = advance_download(trace, t, manifest.size_rows[0][i])
        x_key, t_key, s = _arrive(manifest, config, i, x, t, s, end)
        stall += s
    log = simulate_session(_Lowest(), trace, manifest, config)
    assert max(d.buffer_s for d in log.decisions) > config.max_buffer_s - 2.0
    assert t_key / 10.0 == pytest.approx(log.end_clock_s, abs=0.05 * n)
    assert x_key / 10.0 == pytest.approx(log.final_buffer_s, abs=0.05 * n)
    assert stall == pytest.approx(log.stall_total_s, abs=0.05 * n)
