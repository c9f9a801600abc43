"""Control-core tests: PID law, saturation guard, analytics, PIA-E's startup ramp."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abrsim.control import (
    ControlError,
    PidParams,
    anti_windup,
    bitrate_from_u,
    damping_ratio,
    is_valid_gain_pair,
    natural_frequency,
    pid_output,
    velocity_constant,
)
from abrsim.media import MediaError, VideoManifest
from abrsim.schemes import ConfigError, Pia, PiaStartup

LADDER = ((1, 350.0), (2, 600.0), (3, 1000.0), (4, 2000.0), (5, 3000.0), (6, 5000.0))


def params(**kw) -> PidParams:
    base = dict(kp=8.8e-3, ki=3.6e-5, beta=1.0, target_buffer=60.0)
    base.update(kw)
    return PidParams(**base)


class TestPidOutput:
    def test_zero_error_gives_unity(self):
        assert pid_output(params(), x=60.0, integral=0.0, target=60.0, playing_indicator=1) == 1.0

    def test_empty_buffer_cold_start(self):
        u = pid_output(params(), x=0.0, integral=0.0, target=60.0, playing_indicator=0)
        assert u == 0.528

    def test_setpoint_weighting_scales_target(self):
        u = pid_output(params(beta=0.2), x=0.0, integral=0.0, target=60.0, playing_indicator=0)
        assert u == pytest.approx(0.1056, rel=1e-12)

    def test_integral_term(self):
        u = pid_output(params(), x=60.0, integral=1000.0, target=60.0, playing_indicator=1)
        assert u == pytest.approx(1.0 + 3.6e-5 * 1000.0, rel=1e-12)

    def test_negative_buffer_rejected(self):
        with pytest.raises(ControlError):
            pid_output(params(), x=-1.0, integral=0.0, target=60.0, playing_indicator=0)


class TestBitrateFromU:
    def test_tracks_bandwidth_at_unity(self):
        assert bitrate_from_u(1.0, 3000.0, LADDER) == 5

    def test_large_u_falls_to_lowest(self):
        assert bitrate_from_u(10.0, 3000.0, LADDER) == 1

    def test_small_u_reaches_higher_level(self):
        assert bitrate_from_u(0.5, 3000.0, LADDER) == 6

    def test_exact_threshold_included(self):
        assert bitrate_from_u(1.0, 600.0, LADDER) == 2

    def test_nonpositive_u_rejected(self):
        with pytest.raises(ControlError):
            bitrate_from_u(0.0, 3000.0, LADDER)

    def test_no_levels_rejected(self):
        with pytest.raises(ControlError, match="no levels to choose from"):
            bitrate_from_u(1.0, 3000.0, ())

    def test_subset_of_levels(self):
        assert bitrate_from_u(1.0, 3000.0, ((1, 350.0), (3, 1000.0))) == 3

    @given(
        st.floats(min_value=1e-6, max_value=1e3),
        st.floats(min_value=1e-6, max_value=1e3),
        st.floats(min_value=0.0, max_value=1e5),
    )
    def test_monotone_in_u_and_bandwidth(self, u1, u2, est):
        lo, hi = sorted((u1, u2))
        rates = dict(LADDER)
        # Larger u never picks a higher bitrate; larger bandwidth never a lower one.
        assert rates[bitrate_from_u(lo, est, LADDER)] >= rates[bitrate_from_u(hi, est, LADDER)]
        assert rates[bitrate_from_u(lo, est + 500.0, LADDER)] >= rates[bitrate_from_u(lo, est, LADDER)]


class TestAntiWindup:
    def test_negative_u_clamps_freezes_forces_max(self):
        assert anti_windup(-0.5, params()) == (1e-10, True, True)

    def test_positive_u_passes_through(self):
        assert anti_windup(0.7, params()) == (0.7, False, False)

    def test_threshold_is_inclusive(self):
        u_eff, freeze, force_max = anti_windup(1e-10, params())
        assert (u_eff, freeze, force_max) == (1e-10, True, True)

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_output_is_clamp_at_epsilon(self, u):
        p = params()
        u_eff, freeze, force_max = anti_windup(u, p)
        assert u_eff == max(u, p.epsilon)
        assert u_eff > 0
        assert freeze == force_max == (u <= p.epsilon)
        if abs(u) >= p.epsilon:
            assert abs(u_eff) <= abs(u)


class TestAnalytics:
    def test_critically_damped_identity(self):
        assert damping_ratio(2.0, 1.0) == 1.0
        assert natural_frequency(1.0) == 1.0

    def test_reference_gains(self):
        assert damping_ratio(8.8e-3, 3.6e-5) == pytest.approx(0.7333, abs=1e-4)
        assert natural_frequency(3.6e-5) == 0.006

    def test_underdamped_pair_outside_band(self):
        z = damping_ratio(1e-3, 6e-5)
        assert z == pytest.approx(0.0645, abs=2e-4)
        assert not is_valid_gain_pair(1e-3, 6e-5)

    def test_validity_band(self):
        assert is_valid_gain_pair(8.8e-3, 3.6e-5)
        assert not is_valid_gain_pair(2.0, 1.0)

    def test_band_low_edge_inclusive(self):
        # 1.2e-3 / (2*sqrt(1e-6)) evaluates to exactly 0.6 in floats.
        assert damping_ratio(1.2e-3, 1e-6) == 0.6
        assert is_valid_gain_pair(1.2e-3, 1e-6)

    def test_nonpositive_ki_rejected(self):
        with pytest.raises(ControlError):
            damping_ratio(1.0, 0.0)
        with pytest.raises(ControlError):
            natural_frequency(-1.0)

    @given(st.floats(min_value=0.05, max_value=1.0))
    def test_beta_never_enters_analytics(self, beta):
        a = params(beta=beta)
        b = params(beta=1.0)
        assert damping_ratio(a.kp, a.ki) == damping_ratio(b.kp, b.ki)
        assert natural_frequency(a.ki) == natural_frequency(b.ki)


def ramp(alpha=4.0, tau=300.0, base_kp=8.8e-3, base_xr=60.0, delta=2.0) -> PiaStartup:
    """A PiaStartup ramping from `base_kp` and `base_xr`, reset on a two-level ladder of
    `delta` s chunks."""
    scheme = PiaStartup(pid=PidParams(kp=base_kp, target_buffer=base_xr), alpha=alpha, tau=tau)
    sizes = [[125_000] * 3, [250_000] * 3]
    scheme.reset(VideoManifest("ramp", delta, False, [500.0, 1000.0], sizes, [[None] * 3] * 2))
    return scheme


# each ramp input is checked where it is declared
_RAMP_INPUT_ERRORS = {"alpha": ConfigError, "tau": ConfigError, "base_kp": ControlError,
                      "base_xr": ControlError, "delta": MediaError}


class TestRamps:
    RAMP = ramp()

    def test_kp_start_mid_end(self):
        assert self.RAMP._kp(0.0) == 0.0352
        assert self.RAMP._kp(150.0) == 0.022
        assert self.RAMP._kp(300.0) == 8.8e-3

    def test_kp_after_tau_is_base(self):
        assert self.RAMP._kp(300.0000001) == 8.8e-3
        assert self.RAMP._kp(1e6) == 8.8e-3

    def test_xr_start_floor_and_end(self):
        assert self.RAMP._target(0.0) == 4.0
        assert self.RAMP._target(20.0) == 4.0
        assert self.RAMP._target(300.0) == 60.0
        assert self.RAMP._target(400.0) == 60.0

    def test_negative_time_rejected(self):
        with pytest.raises(ControlError):
            self.RAMP._kp(-1.0)
        with pytest.raises(ControlError):
            self.RAMP._target(-1.0)

    @given(st.floats(min_value=0.0, max_value=300.0), st.floats(min_value=0.0, max_value=300.0))
    def test_monotone_on_ramp(self, t1, t2):
        lo, hi = sorted((t1, t2))
        assert self.RAMP._kp(lo) >= self.RAMP._kp(hi)
        assert self.RAMP._target(lo) <= self.RAMP._target(hi)

    def test_continuous_at_tau(self):
        eps = 1e-9
        assert self.RAMP._kp(300.0 - eps) == pytest.approx(8.8e-3, rel=1e-6)
        assert self.RAMP._target(300.0 - eps) == pytest.approx(60.0, rel=1e-6)

    def test_schedule_validation(self):
        with pytest.raises(ConfigError, match="^alpha must exceed 1$"):
            PiaStartup(alpha=1.0)
        with pytest.raises(ConfigError, match="^tau must be positive$"):
            PiaStartup(tau=0.0)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(alpha=float("nan")),
            dict(alpha=float("inf")),
            dict(tau=float("nan")),
            dict(tau=float("inf")),
            dict(base_kp=float("nan")),
            dict(base_xr=float("inf")),
            dict(delta=float("nan")),
            dict(alpha="abc"),
        ],
    )
    def test_schedule_rejects_non_finite(self, kw):
        [name] = kw
        with pytest.raises(_RAMP_INPUT_ERRORS[name], match="finite"):
            ramp(**kw)

    @pytest.mark.parametrize(
        "kw,message",
        [
            (dict(base_kp=0.0), "kp and ki must be positive"),
            (dict(base_xr=0.0), "target buffer must be positive"),
            (dict(delta=0.0), "chunk duration must be positive"),
        ],
        ids=["base_kp", "base_xr", "delta"],
    )
    def test_schedule_rejects_zero_bases(self, kw, message):
        [name] = kw
        with pytest.raises(_RAMP_INPUT_ERRORS[name], match=f"^{message}$"):
            ramp(**kw)


class TestVelocityConstant:
    def test_full_weighting_zeroes_ramp_error(self):
        assert velocity_constant(params(beta=1.0)) == 0.0

    def test_reference_pair(self):
        got = velocity_constant(params(beta=0.2))
        assert got == pytest.approx(195.5556, abs=1e-3)

    def test_direct(self):
        assert velocity_constant(PidParams(kp=1.0, ki=1.0, beta=0.5)) == 0.5


class TestPidParamsValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(kp=0.0),
            dict(ki=0.0),
            dict(kp=-1.0),
            dict(beta=0.0),
            dict(beta=1.5),
            dict(epsilon=0.0),
            dict(epsilon=1.0),
            dict(target_buffer=0.0),
            dict(kp=float("nan")),
            dict(kp=float("inf")),
            dict(ki=float("nan")),
            dict(ki=float("inf")),
            dict(target_buffer=float("nan")),
            dict(target_buffer=float("inf")),
            dict(kp="abc"),
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ControlError):
            params(**kw)


class TestPidIntegral:
    """The integral as the PID schemes' `observe_interval` feeds it."""

    def test_accumulates_left_endpoint(self):
        scheme = Pia(pid=PidParams(target_buffer=60.0))
        scheme.observe_interval(clock_s=0.0, dt_s=2.0, buffer_s=10.0)
        assert scheme.integral == 100.0
        scheme.observe_interval(clock_s=2.0, dt_s=1.0, buffer_s=70.0)
        assert scheme.integral == 90.0

    def test_freeze_suspends(self):
        scheme = Pia()
        scheme.integral, scheme.freeze = 5.0, True
        scheme.observe_interval(0.0, 10.0, 0.0)
        assert scheme.integral == 5.0


def _closed_loop_rk4(kp, ki, beta, x_r, t_end, dt):
    """Continuous relaxation of the loop: dx = kp*(beta*x_r - x) + ki*I, dI = x_r - x."""

    def deriv(x, i):
        return kp * (beta * x_r - x) + ki * i, x_r - x

    x, i = 0.0, 0.0
    t = 0.0
    while t < t_end:
        h = min(dt, t_end - t)
        k1x, k1i = deriv(x, i)
        k2x, k2i = deriv(x + 0.5 * h * k1x, i + 0.5 * h * k1i)
        k3x, k3i = deriv(x + 0.5 * h * k2x, i + 0.5 * h * k2i)
        k4x, k4i = deriv(x + h * k3x, i + h * k3i)
        x += h * (k1x + 2 * k2x + 2 * k3x + k4x) / 6.0
        i += h * (k1i + 2 * k2i + 2 * k3i + k4i) / 6.0
        t += h
    return x


class TestSteadyStateTracking:
    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=0.61, max_value=0.79),
        st.floats(min_value=2e-3, max_value=5e-2),
        st.floats(min_value=0.1, max_value=1.0),
    )
    def test_step_converges_to_target(self, zeta, omega_n, beta):
        kp = 2.0 * zeta * omega_n
        ki = omega_n * omega_n
        assert is_valid_gain_pair(kp, ki)
        x_r = 60.0
        x_end = _closed_loop_rk4(kp, ki, beta, x_r, t_end=10.0 / omega_n, dt=0.1 / omega_n)
        assert abs(x_end - x_r) < 0.01 * x_r
