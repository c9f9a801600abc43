"""Scheme tests: frozen decision oracles plus behavioral properties."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _builders import cbr_manifest, constant_trace, vbr_manifest
from abrsim.cli import noisy_bandwidth
from abrsim.control import DEFAULT_KI, DEFAULT_KP, PidParams, fields
from abrsim.engine import DownloadHistory, SimConfig, simulate_session
from abrsim.media import MediaError, classify_chunks
from abrsim.schemes import (
    MAX_ROLLOUT_EVALS,
    SCHEMES,
    BufferAwareRate,
    BufferBased,
    Cava,
    ConfigError,
    DecisionContext,
    Mpc,
    Pia,
    PiaStartup,
    Quad,
    RateBased,
    RobustMpc,
    allowed_from_filter,
    build_scheme,
    cbf_filter,
    tbf_filter,
)

EPS = 1e-10


def ctx_for(
    manifest,
    *,
    chunk_index=0,
    buffer_s=30.0,
    clock_s=0.0,
    est_kbps=1000.0,
    last_level=None,
    allowed=None,
    playing=1,
    history=None,
):
    return DecisionContext(
        chunk_index=chunk_index,
        buffer_s=buffer_s,
        clock_s=clock_s,
        est_kbps=est_kbps,
        last_level=last_level,
        allowed_levels=tuple(allowed) if allowed is not None else manifest.levels,
        manifest=manifest,
        playing_indicator=playing,
        history=history,
    )


LADDER5 = cbr_manifest([350, 600, 1000, 2000, 3000], n_chunks=6)
LADDER6 = cbr_manifest([350, 600, 1000, 2000, 3000, 5000], n_chunks=6)


# ----------------------------------------------------------- decision context

class TestDecisionContext:
    def test_fields_are_read_only(self):
        ctx = ctx_for(LADDER5)
        with pytest.raises(AttributeError):
            ctx.buffer_s = 1.0
        assert ctx.buffer_s == 30.0

    # Schemes read the manifest's tables directly; a level outside 1..L in a
    # hand-built context is still refused, and 0 never reads the top level.
    @pytest.mark.parametrize("bad", [0, -1, 6])
    @pytest.mark.parametrize("name", ["rb", "bba0", "rba", "mpc", "pia", "piae", "cava", "quad"])
    def test_level_outside_the_ladder_is_a_media_error(self, name, bad):
        m = cbr_manifest([350, 600, 1000, 2000, 3000], n_chunks=6, vmafs=[40, 55, 70, 85, 95])
        scheme = build_scheme(name)
        scheme.reset(m)
        # an empty buffer keeps the PID schemes off their forced top level
        ctx = ctx_for(m, chunk_index=2, buffer_s=0.0, playing=0, allowed=sorted((2, bad)))
        with pytest.raises(MediaError, match=rf"level {bad} outside 1\.\.5"):
            scheme.decide(ctx)

    # the schemes that read the last level's rate or quality
    @pytest.mark.parametrize("bad", [0, 6])
    @pytest.mark.parametrize("name", ["mpc", "pia", "cava", "quad"])
    def test_last_level_outside_the_ladder_is_a_media_error(self, name, bad):
        m = cbr_manifest([350, 600, 1000, 2000, 3000], n_chunks=6, vmafs=[40, 55, 70, 85, 95])
        scheme = build_scheme(name)
        scheme.reset(m)
        ctx = ctx_for(m, chunk_index=2, buffer_s=40.0, last_level=bad)
        with pytest.raises(MediaError, match=rf"level {bad} outside 1\.\.5"):
            scheme.decide(ctx)


# ---------------------------------------------------------------- rate-based

class TestRateBased:
    def test_picks_highest_fitting_level(self):
        assert RateBased().decide(ctx_for(LADDER5, est_kbps=1500.0)) == 3

    def test_falls_back_to_lowest(self):
        assert RateBased().decide(ctx_for(LADDER5, est_kbps=100.0)) == 1

    def test_fit_is_inclusive(self):
        assert RateBased().decide(ctx_for(LADDER5, est_kbps=2000.0)) == 4

    def test_respects_allowed(self):
        ctx = ctx_for(LADDER5, est_kbps=1e9, allowed=(1, 2))
        assert RateBased().decide(ctx) == 2

    @given(est=st.floats(min_value=0.0, max_value=10000.0))
    def test_monotone_in_estimate(self, est):
        lo = RateBased().decide(ctx_for(LADDER5, est_kbps=est))
        hi = RateBased().decide(ctx_for(LADDER5, est_kbps=est + 500.0))
        assert lo <= hi


# ------------------------------------------------------------- buffer-based

class TestBufferBased:
    def test_below_low_threshold(self):
        assert BufferBased().decide(ctx_for(LADDER6, buffer_s=5.0)) == 1

    def test_above_high_threshold(self):
        assert BufferBased().decide(ctx_for(LADDER6, buffer_s=70.0)) == 6

    def test_interpolation_snaps_down(self):
        # x=35 -> 350 + (5000-350)*(35-10)/50 = 2675 -> highest rate <= 2675
        assert BufferBased().decide(ctx_for(LADDER6, buffer_s=35.0)) == 4

    def test_allowed_restricts_endpoints(self):
        ctx = ctx_for(LADDER6, buffer_s=70.0, allowed=(1, 2, 3))
        assert BufferBased().decide(ctx) == 3
        ctx = ctx_for(LADDER6, buffer_s=35.0, allowed=(2, 3, 4))
        # interp between 600 and 2000 -> 1300 -> snap to 1000-level
        assert BufferBased().decide(ctx) == 3

    def test_thresholds_must_be_ordered(self):
        with pytest.raises(ConfigError):
            BufferBased(theta_low_s=60.0, theta_high_s=10.0)
        with pytest.raises(ConfigError):
            BufferBased(theta_low_s=10.0, theta_high_s=10.0)

    @given(buf=st.floats(min_value=0.0, max_value=120.0))
    def test_monotone_in_buffer(self, buf):
        lo = BufferBased().decide(ctx_for(LADDER6, buffer_s=buf))
        hi = BufferBased().decide(ctx_for(LADDER6, buffer_s=min(buf + 10.0, 120.0)))
        assert lo <= hi


# --------------------------------------------------------- buffer-aware rate

RBA_MANIFEST = vbr_manifest([[125000] * 4, [500000] * 4, [1500000] * 4])


class TestBufferAwareRate:
    def test_keeps_four_chunks_buffered(self):
        # download times at est 2000: 0.5 s, 2 s, 6 s; need buffer - dl >= 8
        ctx = ctx_for(RBA_MANIFEST, buffer_s=12.0, est_kbps=2000.0)
        assert BufferAwareRate().decide(ctx) == 2

    def test_falls_back_to_lowest(self):
        ctx = ctx_for(RBA_MANIFEST, buffer_s=8.0, est_kbps=2000.0)
        assert BufferAwareRate().decide(ctx) == 1

    def test_fast_network_picks_top(self):
        ctx = ctx_for(RBA_MANIFEST, buffer_s=12.0, est_kbps=1e12)
        assert BufferAwareRate().decide(ctx) == 3

    def test_zero_estimate_is_safe(self):
        ctx = ctx_for(RBA_MANIFEST, buffer_s=12.0, est_kbps=0.0)
        assert BufferAwareRate().decide(ctx) == 1


# --------------------------------------------------------------------- mpc

class TestMpc:
    def test_no_penalties_pick_top(self):
        m = cbr_manifest([1000, 3000], n_chunks=10)
        ctx = ctx_for(m, buffer_s=50.0, est_kbps=1e9)
        assert Mpc().decide(ctx) == 2

    def test_tie_breaks_to_lower_first_level(self):
        m = cbr_manifest([1000, 1000], n_chunks=10)
        ctx = ctx_for(m, buffer_s=50.0, est_kbps=1e9)
        assert Mpc().decide(ctx) == 1

    def test_horizon_truncates_and_counts_evaluations(self):
        m = cbr_manifest([1000, 3000], n_chunks=10)
        scheme = Mpc(horizon=5)
        ctx = ctx_for(m, chunk_index=8, buffer_s=20.0, est_kbps=2000.0, last_level=1)
        scheme.decide(ctx)
        assert scheme.eval_count == 2 ** 2  # min(5, remaining 2)

    def test_full_horizon_evaluation_count(self):
        scheme = Mpc(horizon=3)
        scheme.decide(ctx_for(LADDER5, buffer_s=20.0, est_kbps=2000.0))
        assert scheme.eval_count == 5 ** 3

    def test_stall_penalty_forces_caution(self):
        m = cbr_manifest([1000, 2000], n_chunks=4)
        # est 2400: level-2 downloads take 1.67 s < buffer, no stall -> top wins
        assert Mpc(horizon=2, mu=1.0, lam=10.0).decide(
            ctx_for(m, buffer_s=4.0, est_kbps=2400.0)
        ) == 2
        # at est 1200 the all-top plan stalls 0.67 s; lam=10 makes it lose
        assert Mpc(horizon=2, mu=1.0, lam=10.0).decide(
            ctx_for(m, buffer_s=4.0, est_kbps=1200.0)
        ) == 1

    def test_robust_divides_by_worst_overestimate(self):
        m = cbr_manifest([1000, 2000], n_chunks=4)
        history = DownloadHistory()
        history.add_estimate(2000.0)
        history.add_chunk_sample(1000.0)  # estimate was 2x the actual
        plain = Mpc(horizon=2, mu=1.0, lam=10.0)
        robust = RobustMpc(horizon=2, mu=1.0, lam=10.0)
        ctx = ctx_for(m, buffer_s=4.0, est_kbps=2400.0, history=history)
        assert plain.decide(ctx) == 2
        assert robust.decide(ctx) == 1  # effective estimate 1200

    @pytest.mark.parametrize(
        "estimates, samples, window, worst",
        [
            # estimates run one ahead: pairs are (1000, 1000), (3000, 1000), (2000, 1000)
            ([1000.0, 3000.0, 2000.0, 1500.0], [1000.0, 1000.0, 1000.0], 2, 2.0),
            # samples run one ahead: the last pair is (1000, 4000), not (1000, 500)
            ([2000.0, 1000.0], [1000.0, 4000.0, 500.0], 1, 0.0),
            # a window past the history reads every pair; a zero sample is skipped
            ([1500.0, 1200.0, 9000.0], [1000.0, 0.0], 5, 0.5),
            ([], [1000.0], 3, 0.0),
        ],
    )
    def test_worst_overestimate_pairs_from_the_start(self, estimates, samples, window, worst):
        history = DownloadHistory(estimates=estimates, chunk_samples=samples)
        pairs = list(zip(estimates, samples))[-window:]
        reference = max([0.0] + [(e - a) / a for e, a in pairs if a > 0])
        assert RobustMpc(error_window=window)._worst_overestimate(history) == reference == worst

    def test_robust_without_history_matches_plain(self):
        m = cbr_manifest([1000, 2000], n_chunks=4)
        ctx = ctx_for(m, buffer_s=4.0, est_kbps=2400.0)
        assert RobustMpc(horizon=2, mu=1.0, lam=10.0).decide(ctx) == 2

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            Mpc(horizon=0)
        with pytest.raises(ConfigError):
            Mpc(mu=-1.0)
        with pytest.raises(ConfigError):
            Mpc(lam=-0.5)

    @given(
        buf=st.floats(min_value=0.0, max_value=60.0),
        est=st.floats(min_value=200.0, max_value=6000.0),
        last=st.sampled_from([None, 1, 2]),
    )
    @settings(max_examples=40)
    def test_matches_exhaustive_oracle(self, buf, est, last):
        m = cbr_manifest([1000, 2000], n_chunks=6)
        idx = 1 if last is not None else 0
        ctx = ctx_for(m, chunk_index=idx, buffer_s=buf, est_kbps=est, last_level=last)
        got = Mpc(horizon=3, mu=1.0, lam=2.0).decide(ctx)
        assert got == _mpc_oracle(ctx, horizon=3, mu=1.0, lam=2.0)


def _mpc_oracle(ctx, horizon, mu, lam):
    import itertools

    m = ctx.manifest
    h = min(horizon, m.n_chunks - ctx.chunk_index)
    delta = m.chunk_duration_s
    prev = None
    if ctx.last_level is not None:
        prev = m.rate_rows[ctx.last_level - 1][ctx.chunk_index - 1]
    best = best_seq = None
    for seq in itertools.product(sorted(ctx.allowed_levels), repeat=h):
        x = ctx.buffer_s
        total = change = stall = 0.0
        last_rate = prev
        for k, lvl in enumerate(seq):
            rate = m.rate_rows[lvl - 1][ctx.chunk_index + k]
            dl = rate * delta / ctx.est_kbps
            stall += max(0.0, dl - x)
            x = max(x - dl, 0.0) + delta
            total += rate
            if last_rate is not None:
                change += abs(rate - last_rate)
            last_rate = rate
        score = total / 1000.0 - mu * change / 1000.0 - lam * stall
        if best is None or score > best:
            best, best_seq = score, seq
    return best_seq[0]


# --------------------------------------------------------------------- pia

def pia_beta1(horizon=1, eta=0.0):
    return Pia(pid=PidParams(), horizon=horizon, eta=eta)


PIA_LADDER = cbr_manifest([500, 1000], n_chunks=8)


class TestPia:
    def test_default_setpoint_weight(self):
        assert Pia().pid.beta == 0.2
        assert Pia().horizon == 5
        assert Pia().eta == 1.0

    def test_unit_u_tracking_argmin(self):
        # x = x_r, zero integral, playing -> u = 1 exactly; (u*R - est)^2 picks 1000
        scheme = pia_beta1()
        ctx = ctx_for(PIA_LADDER, buffer_s=60.0, est_kbps=1000.0)
        assert scheme.decide(ctx) == 2
        assert scheme.last_u == 1.0

    def test_low_buffer_picks_low_rate(self):
        scheme = pia_beta1()
        # u = kp*(60-10) + 1 = 1.44 -> J(500) < J(1000) at est 1000
        ctx = ctx_for(PIA_LADDER, buffer_s=10.0, est_kbps=1000.0)
        assert scheme.decide(ctx) == 1
        assert scheme.last_u == pytest.approx(1.44, rel=1e-12)

    def test_antiwindup_forces_max_and_freezes(self):
        scheme = pia_beta1()
        scheme.integral = 50.0
        ctx = ctx_for(PIA_LADDER, buffer_s=200.0)
        assert scheme.decide(ctx) == 2
        assert scheme.last_u == EPS
        assert scheme.freeze is True
        scheme.observe_interval(0.0, 5.0, 200.0)
        assert scheme.integral == 50.0

    def test_antiwindup_liveness_over_many_decisions(self):
        scheme = pia_beta1()
        scheme.integral = 50.0
        ctx = ctx_for(PIA_LADDER, buffer_s=200.0)
        for k in range(100):
            assert scheme.decide(ctx) == 2
            assert scheme.last_u == EPS
            scheme.observe_interval(2.0 * k, 2.0, 200.0)
            assert scheme.integral == 50.0

    def test_recovers_after_saturation(self):
        scheme = pia_beta1()
        scheme.decide(ctx_for(PIA_LADDER, buffer_s=200.0))
        assert scheme.freeze is True
        scheme.decide(ctx_for(PIA_LADDER, buffer_s=30.0))
        assert scheme.freeze is False
        scheme.observe_interval(0.0, 1.0, 30.0)
        assert scheme.integral == 30.0

    def test_integral_accumulates_between_decisions(self):
        scheme = pia_beta1()
        scheme.observe_interval(0.0, 2.0, 10.0)
        assert scheme.integral == 100.0

    def test_evaluation_count_is_levels_times_horizon(self):
        scheme = pia_beta1(horizon=5, eta=1.0)
        scheme.decide(ctx_for(PIA_LADDER, buffer_s=30.0))
        assert scheme.eval_count == 2 * 5
        scheme.decide(ctx_for(PIA_LADDER, buffer_s=30.0, allowed=(1,)))
        assert scheme.eval_count == 2 * 5 + 1 * 5

    def test_saturation_skips_objective_evaluations(self):
        scheme = pia_beta1(horizon=5)
        scheme.decide(ctx_for(PIA_LADDER, buffer_s=200.0))
        assert scheme.eval_count == 0

    def test_first_chunk_has_no_change_penalty(self):
        # eta huge: with a predecessor it pins the previous rate, without it
        # the pure tracking argmin wins
        scheme = pia_beta1(horizon=1, eta=1e9)
        ctx = ctx_for(PIA_LADDER, buffer_s=60.0, est_kbps=1000.0)
        assert scheme.decide(ctx) == 2
        scheme = pia_beta1(horizon=1, eta=1e9)
        ctx = ctx_for(
            PIA_LADDER, chunk_index=1, buffer_s=60.0, est_kbps=1000.0, last_level=1
        )
        assert scheme.decide(ctx) == 1

    def test_two_step_rollout_oracle(self):
        # x0=10, I0=0, est=1000: u0=1.44
        # R=500:  J = 78400 + (u1*500-1000)^2, u1 from the stepped rollout
        # R=1000: J = 193600 + ..., much larger -> level 1
        scheme = pia_beta1(horizon=2)
        ctx = ctx_for(PIA_LADDER, buffer_s=10.0, est_kbps=1000.0)
        assert scheme.decide(ctx) == 1

    def test_params_validation(self):
        with pytest.raises(ConfigError):
            Pia(horizon=0)
        with pytest.raises(ConfigError):
            Pia(eta=-1.0)

    @given(
        buf=st.floats(min_value=0.0, max_value=150.0),
        integral=st.floats(min_value=-5000.0, max_value=5000.0),
        est=st.floats(min_value=200.0, max_value=8000.0),
        horizon=st.integers(min_value=1, max_value=3),
        eta=st.sampled_from([0.0, 1.0]),
        last=st.sampled_from([None, 1, 2]),
        playing=st.sampled_from([0, 1]),
    )
    @settings(max_examples=60)
    def test_matches_rollout_oracle(self, buf, integral, est, horizon, eta, last, playing):
        scheme = Pia(pid=PidParams(), horizon=horizon, eta=eta)
        scheme.integral = integral
        idx = 1 if last is not None else 0
        ctx = ctx_for(
            PIA_LADDER,
            chunk_index=idx,
            buffer_s=buf,
            est_kbps=est,
            last_level=last,
            playing=playing,
        )
        got = scheme.decide(ctx)
        assert got == _pia_oracle(ctx, scheme, integral)
        assert got in ctx.allowed_levels


def _pia_oracle(ctx, params, integral0, kp=None, xr=None):
    pid = params.pid
    kp = pid.kp if kp is None else kp
    xr = pid.target_buffer if xr is None else xr
    u0 = kp * (pid.beta * xr - ctx.buffer_s) + pid.ki * integral0 + ctx.playing_indicator
    if u0 <= pid.epsilon:
        return max(ctx.allowed_levels)
    est = ctx.est_kbps
    delta = ctx.manifest.chunk_duration_s
    prev = None
    if ctx.last_level is not None:
        prev = ctx.manifest.avg_kbps[ctx.last_level - 1]
    best = best_lvl = None
    for lvl in sorted(ctx.allowed_levels):
        rate = ctx.manifest.avg_kbps[lvl - 1]
        cost = 0.0
        x, integral, u, ind = ctx.buffer_s, integral0, u0, float(ctx.playing_indicator)
        d = rate * delta / est
        for _ in range(params.horizon):
            cost += (u * rate - est) ** 2
            nx = max(x + delta - (d if ind else 0.0), 0.0)
            integral += (xr - x) * d
            ind = 1.0 if nx >= delta else 0.0
            u = max(kp * (pid.beta * xr - nx) + pid.ki * integral + ind, pid.epsilon)
            x = nx
        if prev is not None:
            cost += params.eta * (rate - prev) ** 2
        if best is None or cost < best:
            best, best_lvl = cost, lvl
    return best_lvl


# -------------------------------------------------------------------- pia-e

class TestPiaStartup:
    def test_requires_unit_beta(self):
        with pytest.raises(ConfigError):
            PiaStartup(pid=PidParams(beta=0.2))

    def test_defaults(self):
        scheme = PiaStartup()
        assert scheme.pid.beta == 1.0
        scheme.reset(PIA_LADDER)
        assert scheme._target(0.0) == 2 * 2.0
        assert scheme.alpha == 4.0
        assert scheme.tau == 300.0

    @pytest.mark.parametrize("scheme", [PiaStartup, Cava])
    def test_decides_only_after_reset(self, scheme):
        # the ramp and the quartiles come from the session manifest; there is no fallback
        ctx = ctx_for(PIA_LADDER, clock_s=0.0, buffer_s=4.0, est_kbps=1000.0)
        with pytest.raises(AttributeError):
            scheme().decide(ctx)

    def test_start_targets_two_chunks(self):
        # t=0: x_r = 2*delta = 4, kp = 4*base; x = 4 -> u = 1 exactly
        scheme = PiaStartup(horizon=1, eta=0.0)
        scheme.reset(PIA_LADDER)
        ctx = ctx_for(PIA_LADDER, clock_s=0.0, buffer_s=4.0, est_kbps=1000.0)
        assert scheme.decide(ctx) == 2
        assert scheme.last_u == 1.0
        # plain PIA on the same state chases x_r=60 and picks the low rate
        plain = pia_beta1()
        assert plain.decide(ctx) == 1

    def test_midpoint_ramp_values(self):
        scheme = PiaStartup(horizon=1, eta=0.0)
        scheme.reset(PIA_LADDER)  # the ramp's floor
        ctx = ctx_for(PIA_LADDER, clock_s=150.0, buffer_s=30.0, est_kbps=1000.0)
        scheme.decide(ctx)
        # x_r(150) = 30, kp(150)*(30-30) = 0 -> u = ki*I + 1 with I = 0
        assert scheme.last_u == 1.0

    def test_explicit_schedule_floor(self):
        # the floor follows the session manifest's chunk duration
        ladder = cbr_manifest([500, 1000], duration_s=5.0, n_chunks=4)
        scheme = PiaStartup(horizon=1, eta=0.0)
        scheme.reset(ladder)
        ctx = ctx_for(ladder, clock_s=0.0, buffer_s=10.0, est_kbps=1000.0)
        scheme.decide(ctx)
        assert scheme.last_u == 1.0  # x_r(0) = 2*5 = 10 matches the buffer

    def test_integral_tracks_ramp_target(self):
        scheme = PiaStartup(horizon=1, eta=0.0)
        scheme.reset(PIA_LADDER)
        scheme.observe_interval(0.0, 1.0, 0.0)
        assert scheme.integral == 4.0  # target 2*delta at t=0
        scheme.observe_interval(150.0, 1.0, 0.0)
        assert scheme.integral == 34.0  # target 30 at t=150

    def test_matches_pia_after_ramp(self):
        for clock in (300.0 + 1e-9, 301.0, 1e4):
            piae = PiaStartup(horizon=3, eta=1.0)
            piae.reset(PIA_LADDER)
            pia = Pia(pid=PidParams(), horizon=3, eta=1.0)
            piae.integral = 1234.5
            pia.integral = 1234.5
            ctx = ctx_for(
                PIA_LADDER,
                chunk_index=2,
                clock_s=clock,
                buffer_s=17.0,
                est_kbps=777.0,
                last_level=1,
            )
            assert piae.decide(ctx) == pia.decide(ctx)
            assert piae.last_u == pia.last_u


# -------------------------------------------------------------------- cava

def cava_vbr(ref_sizes, lo_size=175000, hi_size=250000):
    return vbr_manifest(
        [[lo_size] * 4, list(ref_sizes), [hi_size] * 4],
        duration_s=2.0,
    )


# middle (reference) track rates 600/800/1200/1400 kbps, avg 1000
CAVA_M1 = cava_vbr([150000, 200000, 300000, 350000])
# same sizes permuted: position 1 becomes Q4, position 2 stays Q3
CAVA_M2 = cava_vbr([150000, 350000, 300000, 200000])


def cava_for(manifest, **kw):
    """A cava reset for `manifest`, ranking positions by level 2's chunk sizes."""
    scheme = Cava(reference_level=2, **kw)
    scheme.reset(manifest)
    return scheme


def cava_n1(manifest, **kw):
    return cava_for(manifest, horizon=1, inner_window=1, **kw)


def integral_for_unit_u(buffer_s, target_s=30.0):
    """Integral that cancels the proportional term so u = 1 at this buffer."""
    return -(DEFAULT_KP * (target_s - buffer_s)) / DEFAULT_KI


class TestCava:
    def test_quartile_drives_bandwidth_scaling(self):
        # same state, different position: Q1 deflates (alpha 0.8 -> target 720),
        # Q4 inflates (alpha 1.1 -> target 990); per-chunk rates 700/600|1400/1000
        i0 = integral_for_unit_u(8.0)
        q1 = cava_n1(CAVA_M1)
        q1.integral = i0
        ctx = ctx_for(CAVA_M1, chunk_index=0, buffer_s=8.0, est_kbps=900.0)
        assert q1.decide(ctx) == 1
        q4 = cava_n1(CAVA_M1)
        q4.integral = i0
        ctx = ctx_for(CAVA_M1, chunk_index=3, buffer_s=8.0, est_kbps=900.0)
        assert q4.decide(ctx) == 3

    def test_antiwindup_forces_top_allowed_level_and_freezes(self):
        # buffer 200 s against the 30 s base target: u = 0.0088 * -170 + 1 + 0.0018 < 0
        scheme = cava_for(CAVA_M1)
        scheme.integral = 50.0
        ctx = ctx_for(CAVA_M1, chunk_index=1, buffer_s=200.0, est_kbps=900.0, allowed=(1, 2))
        assert scheme.decide(ctx) == 2
        assert scheme.last_u == EPS
        assert scheme.freeze is True
        assert scheme.eval_count == 0
        scheme.observe_interval(2.0, 5.0, 200.0)
        assert scheme.integral == 50.0

    def test_low_level_exception_reinflates(self):
        # Q1 argmin under deflation is level 1, buffer 30 > 10 -> redo with alpha=1
        scheme = cava_n1(CAVA_M1)
        ctx = ctx_for(CAVA_M1, chunk_index=0, buffer_s=30.0, est_kbps=900.0)
        assert scheme.decide(ctx) == 3
        assert scheme.last_u == 1.0

    def test_change_penalty_toggles_with_quartile_membership(self):
        # position 2 is Q3 in both manifests and tracking costs are identical;
        # only the previous position's class differs (Q2 vs Q4)
        i0 = integral_for_unit_u(8.0)
        on = cava_n1(CAVA_M1)
        on.integral = i0
        ctx = ctx_for(CAVA_M1, chunk_index=2, buffer_s=8.0, est_kbps=900.0, last_level=3)
        assert on.decide(ctx) == 3  # change penalty active, keep the 1000 kbps track
        off = cava_n1(CAVA_M2)
        off.integral = i0
        ctx = ctx_for(CAVA_M2, chunk_index=2, buffer_s=8.0, est_kbps=900.0, last_level=3)
        assert off.decide(ctx) == 1  # penalty off, pure tracking wins

    def test_reference_level_defaults_to_the_middle_level(self):
        # level 2 puts position 3 in Q4, levels 1, 3 and 4 put position 0 there
        other, middle = [400000, 200000, 300000, 100000], [150000, 200000, 300000, 350000]
        m = vbr_manifest([other, middle, other, other])
        quartile_4 = {level: tuple(c == 4 for c in classify_chunks(m, level))
                      for level in (2, 3)}
        assert quartile_4[2] != quartile_4[3]
        for scheme, level in ((Cava(), 2), (Cava(reference_level=3), 3)):
            scheme.reset(m)
            assert scheme._q4 == quartile_4[level]

    @pytest.mark.parametrize("level", [0, -1, 1.5, True])
    def test_reference_level_must_be_a_level(self, level):
        with pytest.raises(ConfigError, match="reference_level"):
            Cava(reference_level=level)

    def test_reference_level_above_the_ladder_is_refused_at_reset(self):
        scheme = Cava(reference_level=4)
        with pytest.raises(ConfigError, match="reference_level 4"):
            scheme.reset(CAVA_M1)

    def test_q4_low_buffer_relief_flag(self):
        m = vbr_manifest(
            [[230000] * 4, [150000, 200000, 300000, 350000], [252500] * 4]
        )
        i0 = integral_for_unit_u(8.0)
        ctx = ctx_for(m, chunk_index=3, buffer_s=8.0, est_kbps=900.0)
        off = cava_n1(m)
        off.integral = i0
        assert off.decide(ctx) == 3  # target 990 -> 1010-rate track
        relief = cava_n1(m, q4_low_buffer_relief=True)
        relief.integral = i0
        assert relief.decide(ctx) == 1  # target 900 -> 920-rate track

    def test_outer_target_follows_upcoming_window(self):
        # last level 2 at position 2: next-2 window 1300 vs track avg 1000
        scheme = cava_n1(CAVA_M1, outer_window=2)
        ctx = ctx_for(CAVA_M1, chunk_index=2, buffer_s=39.0, est_kbps=900.0, last_level=2)
        scheme.decide(ctx)
        assert scheme.last_u == pytest.approx(1.0, abs=1e-12)  # x_r = 30*1.3 = 39

    def test_outer_target_clamps(self):
        # ratio below 1 clamps to the base target
        scheme = cava_n1(CAVA_M1, outer_window=2)
        ctx = ctx_for(CAVA_M1, chunk_index=0, buffer_s=30.0, est_kbps=900.0, last_level=2)
        scheme.decide(ctx)
        assert scheme.last_u == pytest.approx(1.0, abs=1e-12)
        # ratio 2.8 clamps to 2x
        m = vbr_manifest(
            [[100000] * 4, [100000, 100000, 100000, 700000], [700000] * 4]
        )
        scheme = cava_n1(m, outer_window=1)
        ctx = ctx_for(m, chunk_index=3, buffer_s=60.0, est_kbps=900.0, last_level=2)
        scheme.decide(ctx)
        assert scheme.last_u == pytest.approx(1.0, abs=1e-12)  # x_r = 60

    def test_outer_target_without_history_is_base(self):
        scheme = cava_n1(CAVA_M1)
        ctx = ctx_for(CAVA_M1, chunk_index=0, buffer_s=30.0, est_kbps=900.0)
        scheme.decide(ctx)
        assert scheme.last_u == 1.0  # x_r = base 30 and x = 30

    def test_integral_tracks_current_target(self):
        scheme = cava_n1(CAVA_M1, outer_window=2)
        scheme.observe_interval(0.0, 1.0, 10.0)
        assert scheme.integral == 20.0  # base target 30 before any decide
        ctx = ctx_for(CAVA_M1, chunk_index=2, buffer_s=39.0, est_kbps=900.0, last_level=2)
        scheme.decide(ctx)
        before = scheme.integral
        scheme.observe_interval(1.0, 1.0, 10.0)
        assert scheme.integral == pytest.approx(before + 29.0)  # target 39

    def test_params_validation(self):
        with pytest.raises(ConfigError):
            Cava(horizon=5, inner_window=3)
        with pytest.raises(ConfigError):
            Cava(alpha_q123=1.2)
        with pytest.raises(ConfigError):
            Cava(alpha_q4=0.9)
        with pytest.raises(ConfigError):
            Cava(base_target_buffer_s=0.0)

    @given(
        buf=st.floats(min_value=0.0, max_value=80.0),
        est=st.floats(min_value=300.0, max_value=4000.0),
        idx=st.integers(min_value=0, max_value=3),
        last=st.sampled_from([None, 1, 2, 3]),
    )
    @settings(max_examples=40)
    def test_decides_within_allowed(self, buf, est, idx, last):
        scheme = cava_for(CAVA_M1, horizon=2, inner_window=2)
        if last is not None and idx == 0:
            idx = 1
        ctx = ctx_for(CAVA_M1, chunk_index=idx, buffer_s=buf, est_kbps=est, last_level=last)
        assert scheme.decide(ctx) in ctx.allowed_levels


# -------------------------------------------------------------------- quad

QUAD_M = cbr_manifest([500, 1000, 2000], n_chunks=4, vmafs=[60.0, 80.0, 95.0])
QUAD_M2 = cbr_manifest([800, 1200], n_chunks=4, vmafs=[70.0, 85.0])


class TestQuad:
    def test_zero_cost_level_wins(self):
        scheme = Quad(target_quality=80.0)
        ctx = ctx_for(QUAD_M, chunk_index=1, buffer_s=60.0, est_kbps=1500.0, last_level=2)
        assert scheme.decide(ctx) == 2
        assert scheme.last_u == 1.0

    def test_low_buffer_caps_at_fair_level(self):
        scheme = Quad(target_quality=80.0)
        ctx = ctx_for(QUAD_M, buffer_s=6.0, est_kbps=1e9)  # 6 < 4*delta = 8
        assert scheme.decide(ctx) == 2
        scheme = Quad(target_quality=80.0, fair_level=1)
        assert scheme.decide(ctx) == 1

    def test_low_buffer_respects_rate_limit(self):
        # u*R must fit the estimate: at est 400 only the 500-level is plausible
        scheme = Quad(target_quality=80.0)
        ctx = ctx_for(QUAD_M, buffer_s=6.0, est_kbps=400.0)
        assert scheme.decide(ctx) == 1

    def test_overshoot_vs_quality_tradeoff(self):
        # level 1: 10 under target, feasible -> (10/80)^2 = 0.015625
        # level 2: 20% over budget and 5 over target -> 0.04 + 0.00390625
        scheme = Quad(target_quality=80.0)
        ctx = ctx_for(QUAD_M2, buffer_s=60.0, est_kbps=1000.0)
        assert scheme.decide(ctx) == 1
        # heavier quality weight flips the choice
        scheme = Quad(target_quality=80.0, alpha=10.0)
        assert scheme.decide(ctx) == 2

    def test_change_penalty_pins_previous_quality(self):
        ctx = ctx_for(QUAD_M2, chunk_index=1, buffer_s=60.0, est_kbps=1000.0, last_level=1)
        flip = Quad(target_quality=80.0, alpha=10.0, eta=0.0)
        assert flip.decide(ctx) == 2
        hold = Quad(target_quality=80.0, alpha=10.0, eta=100.0)
        assert hold.decide(ctx) == 1

    def test_missing_quality_metadata(self):
        m = cbr_manifest([500, 1000], n_chunks=4)
        with pytest.raises(ConfigError):
            Quad(target_quality=80.0).decide(ctx_for(m, buffer_s=60.0))

    def test_missing_quality_found_at_the_first_decision(self):
        # the low-buffer branch reads no quality value, yet the gap is reported
        m = vbr_manifest(
            [[125000] * 4, [250000] * 4],
            vmafs_by_level=[[60.0] * 4, [80.0, 80.0, None, 80.0]],
        )
        with pytest.raises(ConfigError, match="chunk 2 of level 2"):
            Quad(target_quality=80.0).decide(ctx_for(m, buffer_s=0.0))

    def test_params_validation(self):
        with pytest.raises(ConfigError):
            Quad(target_quality=0.0)
        with pytest.raises(ConfigError):
            Quad(target_quality=101.0)
        with pytest.raises(ConfigError):
            Quad(alpha=-1.0)
        with pytest.raises(ConfigError):
            Quad(fair_level=0)

    @given(
        buf=st.floats(min_value=8.0, max_value=100.0),
        est=st.floats(min_value=200.0, max_value=5000.0),
        scale=st.floats(min_value=0.1, max_value=10.0),
        last=st.sampled_from([None, 1, 2, 3]),
    )
    @settings(max_examples=60)
    def test_matches_objective_oracle_and_scale_invariance(self, buf, est, scale, last):
        scheme = Quad(target_quality=80.0)
        idx = 1 if last is not None else 0
        ctx = ctx_for(QUAD_M, chunk_index=idx, buffer_s=buf, est_kbps=est, last_level=last)
        got = scheme.decide(ctx)
        costs = _quad_costs(ctx, scheme, scheme.last_u)
        assert got == min(costs, key=lambda lvl: (costs[lvl], lvl))
        scaled = {lvl: c * scale for lvl, c in costs.items()}
        assert got == min(scaled, key=lambda lvl: (scaled[lvl], lvl))

    @given(
        buf=st.floats(min_value=0.0, max_value=100.0),
        est=st.floats(min_value=100.0, max_value=5000.0),
        allowed=st.sampled_from([(1,), (2,), (3,), (1, 2), (2, 3), (1, 3), (1, 2, 3)]),
    )
    @settings(max_examples=40)
    def test_decides_within_allowed(self, buf, est, allowed):
        scheme = Quad(target_quality=80.0)
        ctx = ctx_for(QUAD_M, buffer_s=buf, est_kbps=est, allowed=allowed)
        assert scheme.decide(ctx) in allowed


def _quad_costs(ctx, params, u):
    m = ctx.manifest
    qr = params.target_quality
    est = ctx.est_kbps
    prev_q = None
    if ctx.last_level is not None:
        prev_q = m.vmaf_rows[ctx.last_level - 1][ctx.chunk_index - 1]
    costs = {}
    for lvl in ctx.allowed_levels:
        vmaf = m.vmaf_rows[lvl - 1][ctx.chunk_index]
        rate = m.rate_rows[lvl - 1][ctx.chunk_index]
        cost = (max(0.0, u * rate - est) / est) ** 2
        cost += params.alpha * ((qr - vmaf) / qr) ** 2
        if prev_q is not None:
            cost += params.eta * ((vmaf - prev_q) / qr) ** 2
        costs[lvl] = cost
    return costs


# ------------------------------------------------------------------ filters

FILTER_M = cbr_manifest(
    [300, 600, 900, 1200, 1500, 1800],
    n_chunks=3,
    vmafs=[40.0, 60.0, 78.0, 86.0, 92.0, 96.0],
)
TBF_M = cbr_manifest(
    [300, 600, 900, 1200, 1500, 1800],
    n_chunks=3,
    vmafs=[50.0, 65.0, 79.0, 86.0, 93.0, 97.0],
)


class TestFilters:
    def test_cbf_caps_at_closest_quality(self):
        allowed = cbf_filter(FILTER_M, 80.0)
        assert allowed == ((1, 2, 3),) * 3  # |78-80| = 2 is minimal

    def test_cbf_tie_prefers_lower(self):
        m = cbr_manifest([500, 1000], n_chunks=2, vmafs=[70.0, 90.0])
        assert cbf_filter(m, 80.0) == ((1,), (1,))

    def test_cbf_target_100_keeps_top(self):
        allowed = cbf_filter(FILTER_M, 100.0)
        assert allowed == ((1, 2, 3, 4, 5, 6),) * 3

    def test_cbf_varies_per_position(self):
        m = vbr_manifest(
            [[100000, 100000], [100000, 100000]],
            vmafs_by_level=[[85.0, 40.0], [95.0, 80.0]],
        )
        assert cbf_filter(m, 80.0) == ((1,), (1, 2))

    def test_tbf_threshold_scan(self):
        assert tbf_filter(TBF_M, 80.0, "minus") == 3
        assert tbf_filter(TBF_M, 80.0, "plus") == 4

    def test_tbf_all_above_target(self):
        m = cbr_manifest([500, 1000], n_chunks=2, vmafs=[85.0, 90.0])
        assert tbf_filter(m, 80.0, "minus") == 1
        assert tbf_filter(m, 80.0, "plus") == 1

    def test_tbf_all_below_target(self):
        m = cbr_manifest([500, 1000], n_chunks=2, vmafs=[40.0, 50.0])
        assert tbf_filter(m, 80.0, "minus") == 2
        assert tbf_filter(m, 80.0, "plus") == 2

    def test_variant_must_be_known(self):
        with pytest.raises(ConfigError):
            tbf_filter(TBF_M, 80.0, "zero")

    def test_missing_quality_metadata(self):
        m = cbr_manifest([500, 1000], n_chunks=2)
        with pytest.raises(ConfigError):
            cbf_filter(m, 80.0)
        with pytest.raises(ConfigError):
            tbf_filter(m, 80.0, "minus")

    def test_filter_spec_validation(self):
        with pytest.raises(ConfigError):
            allowed_from_filter(FILTER_M, "cbf", None)
        with pytest.raises(ConfigError):
            allowed_from_filter(FILTER_M, "cbf", 0.0)
        with pytest.raises(ConfigError):
            allowed_from_filter(FILTER_M, "nope", 80.0)

    def test_allowed_from_filter(self):
        assert allowed_from_filter(FILTER_M, "none", None) is None
        assert allowed_from_filter(FILTER_M, "cbf", 80.0) == ((1, 2, 3),) * 3
        assert allowed_from_filter(TBF_M, "tbf-", 80.0) == ((1, 2, 3),) * 3
        assert allowed_from_filter(TBF_M, "tbf+", 80.0) == ((1, 2, 3, 4),) * 3

    @given(
        data=st.data(),
        n_levels=st.integers(min_value=2, max_value=6),
        n_chunks=st.integers(min_value=1, max_value=8),
        target=st.floats(min_value=1.0, max_value=100.0),
    )
    @settings(max_examples=60)
    def test_cbf_never_farther_from_target_than_tbf(self, data, n_levels, n_chunks, target):
        grid = data.draw(
            st.lists(
                st.lists(
                    st.floats(min_value=0.0, max_value=100.0),
                    min_size=n_chunks, max_size=n_chunks,
                ),
                min_size=n_levels, max_size=n_levels,
            )
        )
        m = vbr_manifest([[100000] * n_chunks] * n_levels, vmafs_by_level=grid)
        caps = [max(levels) for levels in cbf_filter(m, target)]
        for variant in ("minus", "plus"):
            tbf_cap = tbf_filter(m, target, variant)
            for i in range(n_chunks):
                dev_cbf = abs(m.vmaf_rows[caps[i] - 1][i] - target)
                dev_tbf = abs(m.vmaf_rows[tbf_cap - 1][i] - target)
                assert dev_cbf <= dev_tbf + 1e-12


# ----------------------------------------------------------------- registry

class TestRegistry:
    def test_registry_names(self):
        assert set(SCHEMES) == {
            "rb", "bba0", "rba", "mpc", "robustmpc", "pia", "piae", "cava", "quad",
        }

    # the cases of the former `make_scheme`, through `build_scheme`
    def test_make_scheme_builds_each(self):
        for name in SCHEMES:
            scheme = build_scheme(name)
            assert scheme.name == name

    def test_make_scheme_rejects_unknown(self):
        with pytest.raises(ConfigError):
            build_scheme("bola")

    def test_make_scheme_passes_params(self):
        scheme = build_scheme("pia", {"horizon": 3})
        assert scheme.horizon == 3


# ------------------------------------------------------- building from params

NAN = float("nan")
INF = float("inf")


class TestNonFiniteParams:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: Pia(eta=NAN),
            lambda: Pia(eta=INF),
            lambda: Cava(alpha_q4=INF),
            lambda: Cava(alpha_q123=NAN),
            lambda: Cava(safe_buffer_s=NAN),
            lambda: Cava(safe_buffer_s=INF),
            lambda: Cava(base_target_buffer_s=INF),
            lambda: Quad(target_quality=NAN),
            lambda: Quad(alpha=NAN),
            lambda: Quad(eta=INF),
            lambda: Quad(low_buffer_chunks=NAN),
            lambda: BufferBased(theta_low_s=NAN),
            lambda: BufferBased(theta_high_s=INF),
            lambda: Mpc(mu=NAN),
            lambda: Mpc(mu=INF),
            lambda: Mpc(lam=NAN),
            lambda: Mpc(lam=INF),
        ],
        ids=[
            "pia-eta-nan", "pia-eta-inf", "cava-alpha_q4-inf", "cava-alpha_q123-nan",
            "cava-safe-nan", "cava-safe-inf", "cava-base-inf", "quad-target-nan",
            "quad-alpha-nan", "quad-eta-inf", "quad-low-nan", "bba0-low-nan",
            "bba0-high-inf", "mpc-mu-nan", "mpc-mu-inf", "mpc-lam-nan", "mpc-lam-inf",
        ],
    )
    def test_rejected(self, build):
        with pytest.raises(ConfigError, match="finite"):
            build()


class TestWholeNumberParams:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: Pia(horizon=2.5),
            lambda: Pia(horizon=True),
            lambda: Cava(horizon=2.5),
            lambda: Cava(inner_window=5.5),
            lambda: Cava(outer_window=2.5),
            lambda: Cava(low_level_cutoff=1.5),
            lambda: Quad(fair_level=2.5),
            lambda: Mpc(horizon=2.5),
            lambda: Mpc(horizon=True),
            lambda: Mpc(error_window=2.5),
            lambda: RobustMpc(error_window="3"),
        ],
        ids=[
            "pia-horizon-frac", "pia-horizon-bool", "cava-horizon-frac", "cava-inner-frac",
            "cava-outer-frac", "cava-cutoff-frac", "quad-fair-frac", "mpc-horizon-frac",
            "mpc-horizon-bool", "mpc-error-window-frac", "robustmpc-error-window-text",
        ],
    )
    def test_rejected(self, build):
        with pytest.raises(ConfigError, match="whole number"):
            build()

    def test_integral_floats_become_ints(self):
        mpc = Mpc(horizon=3.0, error_window=4.0)
        assert (mpc.horizon, mpc.error_window) == (3, 4) and type(mpc.horizon) is int
        assert type(Cava(inner_window=8.0).inner_window) is int

    def test_flags_take_only_bools(self):
        with pytest.raises(ConfigError, match="q4_low_buffer_relief"):
            Cava(q4_low_buffer_relief="no")


class TestParamRanges:
    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: Mpc(error_window=0), "error window must be >= 1"),
            (lambda: Cava(horizon=0), "horizon must be >= 1"),
            (lambda: Cava(outer_window=0), "outer window must be >= 1"),
            (lambda: Cava(low_level_cutoff=0), "low level cutoff must be >= 1"),
            (lambda: Quad(low_buffer_chunks=0), "low buffer threshold must be positive"),
        ],
        ids=["mpc-error-window", "cava-horizon", "cava-outer-window", "cava-cutoff",
             "quad-low-buffer"],
    )
    def test_rejected(self, build, message):
        with pytest.raises(ConfigError, match=message):
            build()


def _params(scheme) -> dict:
    """A scheme's parameter fields by name."""
    return {f.name: getattr(scheme, f.name) for f in fields(scheme)}


class TestBuildScheme:
    def test_pid_keys_apply_over_the_schemes_own_default(self):
        pia = build_scheme("pia", {"kp": 0.006, "horizon": 3})
        assert _params(pia) == _params(Pia(pid=PidParams(kp=0.006, beta=0.2), horizon=3))
        piae = build_scheme("piae", {"ki": 2e-05})
        assert piae.pid == PidParams(ki=2e-05)
        cava = build_scheme("cava", {"beta": 0.5, "outer_window": 4})
        assert _params(cava) == _params(Cava(pid=PidParams(beta=0.5), outer_window=4))

    def test_piae_ramp_comes_from_params_and_manifest(self):
        m = cbr_manifest([500, 1000], duration_s=4.0, n_chunks=6)
        scheme = build_scheme("piae", {"alpha": 3.0, "tau": 120.0, "target_buffer": 40.0})
        scheme.reset(m)
        assert (scheme.alpha, scheme.tau) == (3.0, 120.0)
        assert (scheme.pid.kp, scheme.pid.target_buffer) == (DEFAULT_KP, 40.0)
        assert scheme._target(0.0) == 2 * 4.0

    def test_quad_falls_back_to_the_config_target(self):
        assert build_scheme("quad", target_quality=70.0).target_quality == 70.0
        own = build_scheme("quad", {"target_quality": 90.0}, target_quality=70.0)
        assert own.target_quality == 90.0
        assert _params(build_scheme("quad")) == _params(Quad())

    def test_job_values_reach_only_the_schemes_that_declare_them(self):
        assert build_scheme("cava", reference_level=3).reference_level == 3
        own = build_scheme("cava", {"reference_level": 1}, reference_level=3)
        assert own.reference_level == 1
        assert build_scheme("cava").reference_level is None
        # ignored where undeclared, as target_quality is for rb
        for name in ("rb", "pia", "piae", "quad"):
            assert build_scheme(name, reference_level=0).name == name
        assert build_scheme("rb", target_quality=70.0).name == "rb"

    def test_plain_schemes_take_their_constructor_keywords(self):
        scheme = build_scheme("bba0", {"theta_low_s": 5.0, "theta_high_s": 40.0})
        assert (scheme.theta_low_s, scheme.theta_high_s) == (5.0, 40.0)
        assert build_scheme("mpc", {"horizon": 3}).horizon == 3

    def test_robust_mpc_is_its_own_scheme(self):
        assert build_scheme("robustmpc", {}).robust is True
        assert build_scheme("mpc", {}).robust is False
        with pytest.raises(ConfigError, match="robust"):
            build_scheme("mpc", {"robust": True})

    @pytest.mark.parametrize(
        "name,raw",
        [
            ("pia", {"gain": 1.0}),
            ("pia", {"kd": 0.1}),
            ("pia", {"horizon": "abc"}),
            ("rb", {"horizon": 3}),
            ("cava", {"reference_level": 0}),
            # PidParams raises ControlError and the schemes ConfigError; build_scheme wraps both
            ("pia", {"kp": -1.0}),
            ("piae", {"alpha": 0.5}),
            ("piae", {"alpha": "abc"}),
        ],
    )
    def test_bad_parameters_are_config_errors(self, name, raw):
        with pytest.raises(ConfigError, match=f"scheme {name!r}") as caught:
            build_scheme(name, raw)
        # rb takes no parameters, so its error names the class instead of the key
        assert name == "rb" or all(key in str(caught.value) for key in raw)

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError, match="unknown scheme 'bola'"):
            build_scheme("bola", {})


# ------------------------------------------------------- engine integration

SMOKE_M = cbr_manifest(
    [400, 800, 1600], n_chunks=5, vmafs=[60.0, 75.0, 90.0]
)


class TestEngineIntegration:
    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_every_scheme_completes_a_session(self, name):
        trace = constant_trace(3000.0, 60)
        config = SimConfig(startup_kind="latency", startup_value=0.0)
        log = simulate_session(build_scheme(name, reference_level=2), trace, SMOKE_M, config)
        assert len(log.decisions) == 5
        assert all(1 <= d.level <= 3 for d in log.decisions)
        assert log.scheme_name == name

    def test_pia_session_reports_u_and_integral(self):
        trace = constant_trace(3000.0, 60)
        log = simulate_session(
            Pia(), trace, SMOKE_M, SimConfig(startup_kind="latency", startup_value=0.0)
        )
        assert all(d.u is not None for d in log.decisions)

    # reset rebuilds the controller state and piae's ramp, also when a fixed
    # first level skips decide at chunk 0
    @pytest.mark.parametrize("first_level", [None, 1])
    @pytest.mark.parametrize("name", ["pia", "piae", "cava", "quad"])
    def test_reused_instance_starts_each_session_fresh(self, name, first_level):
        trace = constant_trace(900.0, 60)
        config = SimConfig(startup_kind="latency", startup_value=0.0, first_chunk_level=first_level)
        scheme = build_scheme(name, reference_level=2)
        first = simulate_session(scheme, trace, SMOKE_M, config)
        evals = scheme.eval_count
        second = simulate_session(scheme, trace, SMOKE_M, config)
        assert second.to_csv() == first.to_csv()
        assert scheme.eval_count == 2 * evals  # a cumulative counter, not session state

    def test_piae_ramps_from_t0_however_it_is_built(self):
        # A fixed first level skips decide at chunk 0; chunk 0's intervals must
        # still integrate toward the ramp's floor, not the base target.
        m = cbr_manifest((300, 750, 1200, 1850, 2850, 4300), n_chunks=100)
        trace = noisy_bandwidth(2000.0, 1500.0, 300, seed=3)
        config = SimConfig(first_chunk_level=1)
        built = simulate_session(build_scheme("piae"), trace, m, config)
        assert simulate_session(PiaStartup(), trace, m, config) == built

    def test_built_piae_follows_each_sessions_chunk_duration(self):
        # A built instance reused on the same ladder at 2 s and then 4 s chunks
        # ramps from each session's own floor, as a fresh PiaStartup does.
        rates = (300, 750, 1200, 1850, 2850, 4300)
        trace = noisy_bandwidth(2000.0, 1500.0, 300, seed=3)
        scheme = build_scheme("piae")
        for delta in (2.0, 4.0):
            m = cbr_manifest(rates, duration_s=delta, n_chunks=60)
            got = simulate_session(scheme, trace, m, SimConfig())
            assert scheme._target(0.0) == 2 * delta
            assert got == simulate_session(PiaStartup(), trace, m, SimConfig())

    def test_reused_cava_classifies_each_sessions_manifest(self):
        # 40 and then 24 chunks: the instance ranks each manifest's own positions
        rng = random.Random(11)
        trace = noisy_bandwidth(1700.0, 600.0, 200, seed=4)
        scheme = build_scheme("cava", reference_level=1)
        for n in (40, 24):
            factors = [rng.uniform(0.55, 1.7) for _ in range(n)]
            sizes = [[round(rate * 250 * f) for f in factors] for rate in (400, 900, 1600, 2600)]
            m = vbr_manifest(sizes, duration_s=2.0)
            fresh = simulate_session(build_scheme("cava", reference_level=1), trace, m, SimConfig())
            assert simulate_session(scheme, trace, m, SimConfig()) == fresh

    def test_cbf_filter_restricts_session_levels(self):
        trace = constant_trace(5000.0, 60)
        allowed = allowed_from_filter(SMOKE_M, "cbf", 75.0)
        log = simulate_session(
            RateBased(), trace, SMOKE_M,
            SimConfig(startup_kind="latency", startup_value=0.0),
            allowed_levels=allowed,
        )
        caps = [max(levels) for levels in allowed]
        assert all(d.level <= caps[d.chunk] for d in log.decisions)
        # after the bootstrap estimate settles, rb rides the cap (vmaf 75 == target)
        assert all(d.level == 2 for d in log.decisions[1:])


# ------------------------------------------------------------ horizon limit

LADDER3_12 = cbr_manifest([500, 1000, 2000], n_chunks=12)


class TestHorizonLimit:
    """A horizon that would cost one decision over MAX_ROLLOUT_EVALS rollout
    evaluations is refused in `reset`, before the session walks anything."""

    @pytest.mark.parametrize("make, message", [
        (lambda: Mpc(horizon=12), "mpc horizon 12 "),
        (lambda: Pia(horizon=20_000), "pia horizon 20000 "),
    ], ids=["mpc", "pia"])
    def test_refused_before_any_interval(self, make, message):
        scheme = make()

        def walked(*args):
            raise AssertionError("an interval was walked")

        scheme.observe_interval = walked
        with pytest.raises(ConfigError, match=message + "needs more than 50000 rollout evaluations"):
            simulate_session(scheme, constant_trace(3000.0, 60), LADDER3_12, SimConfig())

    def test_limit_counts_each_schemes_evaluations(self):
        assert MAX_ROLLOUT_EVALS == 50_000
        six = cbr_manifest([350, 600, 1000, 2000, 3000, 5000], n_chunks=12)
        Mpc(horizon=6).reset(six)  # 6^6 = 46,656
        with pytest.raises(ConfigError, match="mpc horizon 7 "):
            Mpc(horizon=7).reset(six)
        # 6^6000 has more digits than the interpreter will print
        with pytest.raises(ConfigError, match="mpc horizon 1000000000 "):
            Mpc(horizon=10**9).reset(cbr_manifest([350, 600, 1000, 2000, 3000, 5000], n_chunks=6000))
        # only the chunks left count: 3^6 on a 6-chunk ladder
        RobustMpc(horizon=12).reset(cbr_manifest([500, 1000, 2000], n_chunks=6))
        with pytest.raises(ConfigError, match="robustmpc horizon 12 "):
            RobustMpc(horizon=12).reset(LADDER3_12)
        Pia(horizon=16_666).reset(LADDER3_12)  # 49,998
        with pytest.raises(ConfigError, match="piae horizon 16667 "):
            PiaStartup(horizon=16_667).reset(LADDER3_12)
        # cava may run its argmin twice
        Cava(horizon=8_333, inner_window=8_333).reset(LADDER3_12)
        with pytest.raises(ConfigError, match="cava horizon 8334 "):
            Cava(horizon=8_334, inner_window=8_334).reset(LADDER3_12)
