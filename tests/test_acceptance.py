"""Acceptance gate: ten end-to-end behavioral criteria, one test per criterion.

Each test prints a single "criterion NN <name>: PASS" line on success (visible
with pytest -rA or -s); the pytest verdict per test is the pass/fail record.
"""

from __future__ import annotations

import random
import struct
import time

from _builders import cbr_manifest, constant_trace, vbr_manifest
from abrsim import (
    BandwidthTrace,
    BufferAwareRate,
    BufferBased,
    Cava,
    Decision,
    DecisionContext,
    GainGrid,
    Mpc,
    OfflineObjective,
    Pia,
    PiaStartup,
    Quad,
    QoeWeights,
    RateBased,
    SessionLog,
    SimConfig,
    brute_force_optimal,
    build_scheme,
    cbf_filter,
    classify_chunks,
    damping_ratio,
    is_valid_gain_pair,
    natural_frequency,
    offline_optimal,
    qoe_score,
    score_sequence,
    session_metrics,
    simulate_session,
    tbf_filter,
)
from abrsim.cli import noisy_bandwidth, square_wave


def _verdict(num: int, name: str) -> None:
    print(f"criterion {num:02d} {name}: PASS")


# -- 1: steady-state buffer tracking -------------------------------------------


def test_c01_steady_state_tracking():
    # Idealized tracking run: zero request overhead and a ladder rung equal to
    # the link rate, so a level that exactly sustains playback exists.
    capacity = 2500.0
    delta = 4.0
    manifest = cbr_manifest((350, 800, 1400, 2500, 4000), duration_s=delta, n_chunks=600)
    trace = constant_trace(capacity, 60)
    started = time.perf_counter()
    log = simulate_session(Pia(), trace, manifest, SimConfig(rtt_s=0.0))
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0

    settle_s = 10.0 / natural_frequency(3.6e-5)
    assert 1666.0 < settle_s < 1667.0
    late = [d for d in log.decisions if d.dl_start_s >= settle_s]
    assert late
    target, band = 60.0, 2.0 * delta
    assert all(target - band <= d.buffer_s <= target + band for d in late)

    sustainable = max(
        lvl for lvl in manifest.levels
        if manifest.declared_kbps[lvl - 1] <= capacity
    )
    assert all(d.level == sustainable for d in late)
    assert log.stall_total_s == 0.0
    _verdict(1, "steady-state tracking")


# -- 2: damping analytics --------------------------------------------------------


def test_c02_damping_analytics():
    zeta = damping_ratio(8.8e-3, 3.6e-5)
    assert abs(zeta - 0.7333) <= 1e-4
    assert is_valid_gain_pair(8.8e-3, 3.6e-5)
    assert damping_ratio(2.0, 1.0) == 1.0

    grid = GainGrid(
        (0.002, 0.005, 0.0088, 0.012, 0.02, 0.05),
        (5e-6, 1e-5, 3.6e-5, 1e-4, 5e-4),
    )
    mask = grid.validity()
    flagged = 0
    for i, kp in enumerate(grid.kp_values):
        for j, ki in enumerate(grid.ki_values):
            if mask[i][j]:
                flagged += 1
                assert 0.6 <= damping_ratio(kp, ki) <= 0.8
    assert flagged >= 1
    _verdict(2, "damping analytics")


# -- 3: anti-windup ---------------------------------------------------------------


def test_c03_anti_windup_freeze():
    # Buffer pinned at 2*x_r: the integral winds down until u crosses epsilon.
    manifest = cbr_manifest((500, 1200, 2500), n_chunks=20)
    allowed = (1, 2, 3)
    scheme = Pia()
    level = None
    saturated = False
    for i in range(18):
        ctx = DecisionContext(
            chunk_index=min(i, manifest.n_chunks - 1),
            buffer_s=120.0,
            clock_s=2.0 * i,
            est_kbps=3000.0,
            last_level=level,
            allowed_levels=allowed,
            manifest=manifest,
            playing_indicator=1,
        )
        before = struct.pack("<d", scheme.integral)
        level = scheme.decide(ctx)
        assert struct.pack("<d", scheme.integral) == before
        if scheme.last_u <= 1e-10:
            saturated = True
            assert level == max(allowed)
            frozen = struct.pack("<d", scheme.integral)
            for k in range(4):
                scheme.observe_interval(2.0 * i + k, 1.0, 120.0)
            assert struct.pack("<d", scheme.integral) == frozen
            break
        scheme.observe_interval(2.0 * i, 1.0, 120.0)
        scheme.observe_interval(2.0 * i + 1.0, 1.0, 120.0)
    assert saturated
    _verdict(3, "anti-windup integral freeze")


# -- 4: per-chunk filter dominance -------------------------------------------------


def test_c04_cbf_dominance():
    rng = random.Random(404)
    violations = 0
    positions = 0
    for _ in range(100):
        n_levels = rng.randrange(3, 7)
        n = rng.randrange(5, 13)
        sizes = [[(lvl + 1) * 100_000 + rng.randrange(0, 50_000) for _ in range(n)]
                 for lvl in range(n_levels)]
        vmafs = [[round(rng.uniform(20.0 + 10.0 * lvl, 40.0 + 10.0 * lvl), 1) for _ in range(n)]
                 for lvl in range(n_levels)]
        manifest = vbr_manifest(sizes, vmafs_by_level=vmafs)
        for target in (60.0, 70.0, 80.0):
            allowed = cbf_filter(manifest, target)
            cap_minus = tbf_filter(manifest, target, "minus")
            cap_plus = tbf_filter(manifest, target, "plus")
            quality = manifest.vmaf_rows
            for i in range(n):
                positions += 1
                dev_cbf = abs(quality[max(allowed[i]) - 1][i] - target)
                dev_minus = abs(quality[cap_minus - 1][i] - target)
                dev_plus = abs(quality[cap_plus - 1][i] - target)
                if dev_cbf > dev_minus or dev_cbf > dev_plus:
                    violations += 1
    assert positions > 0
    assert violations == 0
    _verdict(4, "per-chunk filter dominance")


# -- 5: oracle equivalence ----------------------------------------------------------


def test_c05_oracle_equivalence():
    rng = random.Random(20260816)
    startups = [("latency", 5.0), ("latency", 0.0), ("chunks_buffered", 1.0)]
    names = ["rb", "bba0", "rba", "mpc", "robustmpc", "pia", "piae", "quad", "cava"]
    started = time.perf_counter()
    dominance_checks = 0
    for k in range(50):
        n = rng.randrange(2, 9)
        n_levels = rng.choice((2, 3))
        sizes, vmafs = [], []
        for lvl in range(n_levels):
            base = 250_000 * (lvl + 1)
            sizes.append([rng.randrange(40_000, 200_000) + base for _ in range(n)])
            vmafs.append(
                [round(rng.uniform(30.0 + 20.0 * lvl, 60.0 + 13.0 * lvl), 1) for _ in range(n)]
            )
        manifest = vbr_manifest(sizes, vmafs_by_level=vmafs, name=f"m{k}")
        trace = BandwidthTrace(
            f"t{k}", tuple(rng.uniform(100.0, 6000.0) for _ in range(rng.randrange(3, 13)))
        )
        objective = OfflineObjective(80.0, rng.choice((0.0, 100.0, 10000.0)))
        kind, value = startups[k % 3]
        config = SimConfig(startup_kind=kind, startup_value=value)

        dp_levels, dp_value = offline_optimal(trace, manifest, objective, config)
        bf_levels, bf_value = brute_force_optimal(trace, manifest, objective, config)
        assert dp_levels == bf_levels
        assert dp_value == bf_value
        assert score_sequence(trace, manifest, objective, config, dp_levels) == dp_value

        for name in names:
            if name == "cava" and n < 4:
                continue  # cava ranks positions into quartiles, so it needs 4 chunks
            scheme = build_scheme(name, reference_level=1)
            log = simulate_session(scheme, trace, manifest, config)
            online = score_sequence(
                trace, manifest, objective, config, [d.level for d in log.decisions]
            )
            assert dp_value <= online
            dominance_checks += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    assert dominance_checks > 400
    _verdict(5, "oracle equivalence and dominance")


# -- 6: complexity contract -----------------------------------------------------------


class _CountingPia(Pia):
    def __init__(self):
        super().__init__()
        self.per_decision = []

    def decide(self, ctx):
        before = self.eval_count
        level = super().decide(ctx)
        self.per_decision.append(self.eval_count - before)
        return level


class _CountingMpc(Mpc):
    def __init__(self):
        super().__init__()
        self.per_decision = []

    def decide(self, ctx):
        before = self.eval_count
        level = super().decide(ctx)
        self.per_decision.append(self.eval_count - before)
        return level


def _timed_session(scheme, trace, manifest) -> float:
    started = time.perf_counter()
    simulate_session(scheme, trace, manifest, SimConfig())
    return time.perf_counter() - started


def test_c06_complexity_contract():
    n_chunks, n_levels, horizon = 600, 6, 5
    manifest = cbr_manifest((350, 800, 1400, 2000, 2850, 4300), n_chunks=n_chunks)
    trace = constant_trace(2200.0, 60)
    assert n_levels**horizon == 7776
    expected = [n_levels ** min(horizon, n_chunks - i) for i in range(n_chunks)]

    # Each session's time is the best of three alternating runs, so a run that
    # the host slowed does not set the ratio; every run's counts are checked.
    pia_t = mpc_t = float("inf")
    for _ in range(3):
        pia, mpc = _CountingPia(), _CountingMpc()
        pia_t = min(pia_t, _timed_session(pia, trace, manifest))
        assert pia.per_decision == [n_levels * horizon] * n_chunks
        mpc_t = min(mpc_t, _timed_session(mpc, trace, manifest))
        assert mpc.per_decision == expected
        assert mpc.per_decision[0] == 7776

    assert mpc_t / pia_t > 50.0, (
        f"MPC/PID time ratio {mpc_t / pia_t:.1f} is not above 50: "
        f"mpc_t {mpc_t:.3f} s, pia_t {pia_t:.4f} s"
    )
    _verdict(6, f"decision complexity contract, MPC/PID time ratio {mpc_t / pia_t:.1f}")


# -- 7: ramped-startup trend ------------------------------------------------------------


def test_c07_ramped_startup_trend():
    manifest = cbr_manifest((300, 750, 1200, 1850, 2850, 4300), n_chunks=200)
    config = SimConfig(startup_kind="latency", startup_value=10.0)

    def early_mean_kbps(log: SessionLog) -> float:
        rows = [d.bitrate_kbps for d in log.decisions if d.dl_start_s < 120.0]
        return sum(rows) / len(rows)

    wins = 0
    stall_base = stall_ramp = 0.0
    for seed in range(20):
        trace = square_wave(2000.0, 4000.0, 30.0, 400, seed=seed)
        base = simulate_session(Pia(), trace, manifest, config)
        ramped = simulate_session(PiaStartup(), trace, manifest, config)
        wins += early_mean_kbps(ramped) >= early_mean_kbps(base)
        stall_base += base.stall_total_s
        stall_ramp += ramped.stall_total_s
    assert wins >= 15
    assert stall_ramp <= 1.1 * stall_base + 1e-9
    _verdict(7, "ramped-startup bitrate trend")


# -- 8: size-aware differential treatment -----------------------------------------------


def test_c08_complex_chunk_trend():
    rng = random.Random(42)
    n = 48
    factors = [rng.uniform(0.55, 1.7) for _ in range(n)]
    sizes = [[round(rate * 125 * 2.0 * f) for f in factors] for rate in (400, 900, 1600, 2600)]
    manifest = vbr_manifest(sizes, duration_s=2.0)
    classes = classify_chunks(manifest, reference_level=2)
    complex_chunks = [i for i in range(n) if classes[i] == 4]
    assert len(complex_chunks) == n // 4

    def q4_mean_level(scheme) -> float:
        log = simulate_session(scheme, trace, manifest, SimConfig())
        levels = [d.level for d in log.decisions if d.chunk in complex_chunks]
        return sum(levels) / len(levels)

    wins = 0
    for seed in range(10):
        trace = noisy_bandwidth(1700.0, 600.0, 140, seed=seed)
        cava = q4_mean_level(Cava(reference_level=2))
        wins += cava >= q4_mean_level(BufferAwareRate()) and cava >= q4_mean_level(BufferBased())
    assert wins >= 8
    _verdict(8, "complex-chunk level trend")


# -- 9: quality-target adherence -----------------------------------------------------------


def test_c09_quality_target_adherence():
    manifest = cbr_manifest(
        (500, 1200, 2500, 5000, 8000),
        n_chunks=100,
        vmafs=(55.0, 68.0, 79.0, 88.0, 95.0),
    )
    trace = constant_trace(15000.0, 60)
    quad = session_metrics(
        simulate_session(Quad(), trace, manifest, SimConfig()), manifest, target_quality=80.0
    )
    rb = session_metrics(
        simulate_session(RateBased(), trace, manifest, SimConfig()), manifest, target_quality=80.0
    )
    assert quad.avg_quality_dev < rb.avg_quality_dev
    assert quad.data_usage_mb < rb.data_usage_mb
    _verdict(9, "quality-target adherence and data saving")


# -- 10: metric self-consistency ---------------------------------------------------------------


def test_c10_metric_self_consistency():
    manifest = cbr_manifest((400, 900, 1800, 3000), n_chunks=30, vmafs=(50.0, 65.0, 80.0, 92.0))
    traces = (constant_trace(2200.0, 60), constant_trace(600.0, 60, name="slow"))
    schemes = [RateBased, BufferBased, Pia, Mpc, Quad]
    sessions = 0
    for trace in traces:
        for scheme_cls in schemes:
            log = simulate_session(scheme_cls(), trace, manifest, SimConfig())
            sessions += 1
            assert abs(sum(d.stall_s for d in log.decisions) - log.stall_total_s) <= 1e-9
            downloaded = sum(manifest.size_rows[d.level - 1][d.chunk] for d in log.decisions)
            assert log.bytes_downloaded == downloaded
            report = session_metrics(log, manifest)
            assert report.data_usage_mb == log.bytes_downloaded / 1e6
    assert sessions == 10

    def hand_log(bitrates, stalls):
        decisions = tuple(
            Decision(
                chunk=i, level=1, bitrate_kbps=float(bitrates[i]), vmaf=None,
                dl_start_s=2.0 * i, dl_end_s=2.0 * i + 1.0, buffer_s=10.0,
                est_kbps=3000.0, u=None, stall_s=float(stalls[i]),
            )
            for i in range(3)
        )
        return SessionLog(
            scheme_name="hand", trace_name="t", manifest_name="m", chunk_duration_s=2.0,
            decisions=decisions, stalls=(), startup_latency_s=0.5, end_clock_s=6.0,
            play_time_s=5.5, final_buffer_s=2.0, stall_total_s=sum(stalls),
            bytes_downloaded=750_000,
        )

    # (1 + 2 + 2) - 1*(1 + 0) - 3*1 = 1.0
    assert qoe_score(hand_log([1000, 2000, 2000], [0.0, 1.0, 0.0]), QoeWeights(1.0, 3.0)) == 1.0
    # (0.5 + 0.5 + 0.5) - 2*0 - 4*(0.5 + 0 + 0.25) = -1.5
    assert qoe_score(hand_log([500, 500, 500], [0.5, 0.0, 0.25]), QoeWeights(2.0, 4.0)) == -1.5
    _verdict(10, "metric self-consistency")
