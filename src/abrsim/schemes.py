"""ABR schemes: decision context, scheme base class, and the scheme registry."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from .control import (
    PidParams,
    PidState,
    RampSchedule,
    anti_windup,
    bitrate_from_u,
    pid_output,
    ramp_kp,
    ramp_xr,
)
from .media import ChunkClass, VideoManifest

if TYPE_CHECKING:
    from .engine import DownloadHistory

# floor for bandwidth estimates inside objectives, so divisions stay finite
_EST_FLOOR_KBPS = 1e-9


class ConfigError(ValueError):
    """Invalid simulation, scheme, or filter configuration."""


@dataclass(frozen=True)
class DecisionContext:
    """Everything a scheme may inspect when choosing the next chunk's level."""

    chunk_index: int
    buffer_s: float
    clock_s: float
    est_kbps: float
    last_level: int | None
    allowed_levels: tuple[int, ...]
    manifest: VideoManifest
    chunk_class: ChunkClass | None
    playing_indicator: int
    history: "DownloadHistory | None" = None

    def allowed_pairs(self, chunk_index: int | None = None) -> tuple[tuple[int, float], ...]:
        """(level, per-chunk bitrate kbps) pairs for the allowed levels."""
        i = self.chunk_index if chunk_index is None else chunk_index
        return tuple((lvl, self.manifest.bitrate_kbps(lvl, i)) for lvl in self.allowed_levels)

    def track_pairs(self) -> tuple[tuple[int, float], ...]:
        """(level, track average bitrate kbps) pairs for the allowed levels."""
        return tuple((lvl, self.manifest.avg_bitrate_kbps(lvl)) for lvl in self.allowed_levels)


class AbrScheme:
    """Per-session strategy consulted once per chunk; hooks observe elapsed time."""

    name = "base"
    last_u: float | None = None

    def decide(self, ctx: DecisionContext) -> int:
        raise NotImplementedError

    def observe_interval(self, clock_s: float, dt_s: float, buffer_s: float) -> None:
        """Called for every advanced sim interval (left endpoint), in order."""

    def observe_chunk(self, chunk_index: int, level: int, throughput_kbps: float) -> None:
        """Called after each completed chunk download."""


# ------------------------------------------------------------------ baselines


class RateBased(AbrScheme):
    """Highest track whose average bitrate fits the bandwidth estimate."""

    name = "rb"

    def decide(self, ctx: DecisionContext) -> int:
        fits = [lvl for lvl, rate in ctx.track_pairs() if rate <= ctx.est_kbps]
        return max(fits) if fits else min(ctx.allowed_levels)


class BufferBased(AbrScheme):
    """Map the buffer level linearly onto the rate ladder between two thresholds."""

    name = "bba0"

    def __init__(self, theta_low_s: float = 10.0, theta_high_s: float = 60.0) -> None:
        if theta_high_s <= theta_low_s:
            raise ConfigError("theta_high must exceed theta_low")
        self.theta_low_s = theta_low_s
        self.theta_high_s = theta_high_s

    def decide(self, ctx: DecisionContext) -> int:
        pairs = ctx.track_pairs()
        lo_lvl, lo_rate = min(pairs, key=lambda p: (p[1], p[0]))
        hi_lvl, hi_rate = max(pairs, key=lambda p: (p[1], -p[0]))
        if ctx.buffer_s < self.theta_low_s:
            return lo_lvl
        if ctx.buffer_s > self.theta_high_s:
            return hi_lvl
        frac = (ctx.buffer_s - self.theta_low_s) / (self.theta_high_s - self.theta_low_s)
        rate = lo_rate + (hi_rate - lo_rate) * frac
        under = [(r, lvl) for lvl, r in pairs if r <= rate]
        return max(under)[1] if under else lo_lvl


class BufferAwareRate(AbrScheme):
    """Highest track that keeps at least four chunks buffered after the download."""

    name = "rba"
    min_buffer_chunks = 4.0

    def decide(self, ctx: DecisionContext) -> int:
        est = max(ctx.est_kbps, _EST_FLOOR_KBPS)
        floor = self.min_buffer_chunks * ctx.manifest.chunk_duration_s
        fits = []
        for lvl in ctx.allowed_levels:
            size = ctx.manifest.chunk(lvl, ctx.chunk_index).size_bytes
            if ctx.buffer_s - size * 8.0 / 1000.0 / est >= floor:
                fits.append(lvl)
        return max(fits) if fits else min(ctx.allowed_levels)


class Mpc(AbrScheme):
    """Exhaustive lookahead maximizing bitrate minus switch and stall penalties.

    Scores every level sequence over the horizon on a buffer rollout that
    assumes the current bandwidth estimate persists; lam defaults to the top
    track's average bitrate in Mbps. The robust variant deflates the estimate
    by the worst relative over-estimate seen over recent chunks.
    """

    name = "mpc"

    def __init__(
        self,
        horizon: int = 5,
        mu: float = 1.0,
        lam: float | None = None,
        robust: bool = False,
        error_window: int = 5,
    ) -> None:
        if horizon < 1:
            raise ConfigError("mpc horizon must be >= 1")
        if mu < 0:
            raise ConfigError("mu must be >= 0")
        if lam is not None and lam < 0:
            raise ConfigError("lam must be >= 0")
        if error_window < 1:
            raise ConfigError("error window must be >= 1")
        self.horizon = horizon
        self.mu = mu
        self.lam = lam
        self.robust = robust
        self.error_window = error_window
        self.eval_count = 0

    def decide(self, ctx: DecisionContext) -> int:
        est = max(ctx.est_kbps, _EST_FLOOR_KBPS)
        if self.robust:
            est = est / (1.0 + self._worst_overestimate(ctx.history))
        if self.lam is not None:
            lam = self.lam
        else:
            lam = max(ctx.manifest.avg_kbps) / 1000.0
        i = ctx.chunk_index
        h = min(self.horizon, ctx.manifest.n_chunks - i)
        prev_rate = None
        if ctx.last_level is not None:
            prev_rate = ctx.manifest.bitrate_kbps(ctx.last_level, i - 1)
        delta = ctx.manifest.chunk_duration_s
        mu = self.mu
        levels = sorted(ctx.allowed_levels)
        # (level, rate, download seconds) per horizon step, in sorted level order
        steps = []
        for k in range(h):
            rates = [(lvl, ctx.manifest.bitrate_kbps(lvl, i + k)) for lvl in levels]
            steps.append([(lvl, rate, rate * delta / est) for lvl, rate in rates])
        best = best_first = None

        # Depth-first over the horizon in itertools.product order: each prefix's
        # running (buffer, total, change, stall) is computed once and shared by
        # every sequence that extends it. Each sequence still adds its terms in
        # the same left-to-right order, so scores are those of a per-sequence
        # rollout; the strict > keeps the first of tied sequences.
        def walk(k, x, total, change, stall, last_rate, first):
            nonlocal best, best_first
            leaf = k == h - 1
            for lvl, rate, dl in steps[k]:
                s = stall + max(0.0, dl - x)
                t = total + rate
                c = change if last_rate is None else change + abs(rate - last_rate)
                f = lvl if first is None else first
                if leaf:
                    score = t / 1000.0 - mu * c / 1000.0 - lam * s
                    if best is None or score > best:
                        best, best_first = score, f
                else:
                    walk(k + 1, max(x - dl, 0.0) + delta, t, c, s, rate, f)
            if leaf:
                self.eval_count += len(levels)

        walk(0, ctx.buffer_s, 0.0, 0.0, 0.0, prev_rate, None)
        return best_first

    def _worst_overestimate(self, history) -> float:
        if history is None:
            return 0.0
        pairs = list(zip(history.estimates, history.chunk_samples))
        worst = 0.0
        for est, actual in pairs[-self.error_window:]:
            if actual > 0:
                worst = max(worst, (est - actual) / actual)
        return worst


class RobustMpc(Mpc):
    """Mpc with the conservative bandwidth estimate enabled."""

    name = "robustmpc"

    def __init__(
        self,
        horizon: int = 5,
        mu: float = 1.0,
        lam: float | None = None,
        error_window: int = 5,
    ) -> None:
        super().__init__(horizon, mu, lam, robust=True, error_window=error_window)


# ---------------------------------------------------------------- pid schemes


@dataclass
class PiaParams:
    """Lookahead shape for the PID-driven scheme."""

    pid: PidParams = field(default_factory=lambda: PidParams(beta=0.2))
    horizon: int = 5
    eta: float = 1.0

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if self.eta < 0:
            raise ConfigError("eta must be >= 0")


def _rollout_tracking_cost(pid, kp, horizon, u0, integral0, x0, ind0, xr, rate, target, est, delta):
    """Sum of (u_k*rate - target)^2 stepping the closed loop one chunk at a time."""
    cost = 0.0
    x, integral, u, ind = x0, integral0, u0, float(ind0)
    d = rate * delta / est
    for _ in range(horizon):
        cost += (u * rate - target) ** 2
        nx = max(x + delta - (d if ind else 0.0), 0.0)
        integral += (xr - x) * d
        ind = 1.0 if nx >= delta else 0.0
        u = max(kp * (pid.beta * xr - nx) + pid.ki * integral + ind, pid.epsilon)
        x = nx
    return cost


class Pia(AbrScheme):
    """PID controller on the buffer plus a short smoothing lookahead."""

    name = "pia"

    def __init__(self, params: PiaParams | None = None) -> None:
        self.params = params if params is not None else PiaParams()
        self.pid_state = PidState()
        self.eval_count = 0
        self.last_u: float | None = None

    def observe_interval(self, clock_s: float, dt_s: float, buffer_s: float) -> None:
        self.pid_state.accumulate(self._target(clock_s), buffer_s, dt_s)

    def _target(self, clock_s: float) -> float:
        return self.params.pid.target_buffer

    def _kp(self, clock_s: float) -> float:
        return self.params.pid.kp

    def decide(self, ctx: DecisionContext) -> int:
        pid = self.params.pid
        kp = self._kp(ctx.clock_s)
        xr = self._target(ctx.clock_s)
        eff = pid if kp == pid.kp else replace(pid, kp=kp)
        u_raw = pid_output(eff, ctx.buffer_s, self.pid_state.integral, xr, ctx.playing_indicator)
        u, freeze, force_max = anti_windup(u_raw, pid)
        self.pid_state.freeze = freeze
        self.last_u = u
        if force_max:
            return max(ctx.allowed_levels)
        est = max(ctx.est_kbps, _EST_FLOOR_KBPS)
        delta = ctx.manifest.chunk_duration_s
        prev_rate = None
        if ctx.last_level is not None:
            prev_rate = ctx.manifest.avg_bitrate_kbps(ctx.last_level)
        best = best_lvl = None
        for lvl in sorted(ctx.allowed_levels):
            rate = ctx.manifest.avg_bitrate_kbps(lvl)
            cost = _rollout_tracking_cost(
                pid, kp, self.params.horizon, u, self.pid_state.integral,
                ctx.buffer_s, ctx.playing_indicator, xr, rate, est, est, delta,
            )
            self.eval_count += self.params.horizon
            if prev_rate is not None:
                cost += self.params.eta * (rate - prev_rate) ** 2
            if best is None or cost < best:
                best, best_lvl = cost, lvl
        return best_lvl


class PiaStartup(Pia):
    """Pia with ramped gain and buffer target for a faster startup phase."""

    name = "piae"

    def __init__(self, params: PiaParams | None = None, schedule: RampSchedule | None = None):
        super().__init__(params if params is not None else PiaParams(pid=PidParams()))
        if self.params.pid.beta != 1.0:
            raise ConfigError("piae requires beta = 1")
        self.schedule = schedule

    def _target(self, clock_s: float) -> float:
        if self.schedule is None:
            return self.params.pid.target_buffer
        return ramp_xr(self.schedule, clock_s)

    def _kp(self, clock_s: float) -> float:
        if self.schedule is None:
            return self.params.pid.kp
        return ramp_kp(self.schedule, clock_s)

    def decide(self, ctx: DecisionContext) -> int:
        if self.schedule is None:
            pid = self.params.pid
            self.schedule = RampSchedule(
                base_kp=pid.kp,
                base_xr=pid.target_buffer,
                delta=ctx.manifest.chunk_duration_s,
            )
        return super().decide(ctx)


@dataclass
class CavaParams:
    """Windows and thresholds for the size-aware PID scheme."""

    pid: PidParams = field(default_factory=PidParams)
    horizon: int = 5
    inner_window: int = 10
    outer_window: int = 10
    alpha_q4: float = 1.1
    alpha_q123: float = 0.8
    low_level_cutoff: int = 2
    safe_buffer_s: float = 10.0
    base_target_buffer_s: float = 30.0
    q4_low_buffer_relief: bool = False

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if self.inner_window < self.horizon:
            raise ConfigError("inner window must cover the horizon")
        if self.outer_window < 1:
            raise ConfigError("outer window must be >= 1")
        if not self.alpha_q4 > 1.0 > self.alpha_q123 > 0.0:
            raise ConfigError("need alpha_q4 > 1 > alpha_q123 > 0")
        if self.low_level_cutoff < 1:
            raise ConfigError("low level cutoff must be >= 1")
        if self.safe_buffer_s <= 0 or self.base_target_buffer_s <= 0:
            raise ConfigError("buffer thresholds must be positive")


class Cava(AbrScheme):
    """PID scheme for VBR ladders: windowed chunk sizes, class-aware targets."""

    name = "cava"

    def __init__(self, params: CavaParams | None = None) -> None:
        self.params = params if params is not None else CavaParams()
        self.pid_state = PidState()
        self.eval_count = 0
        self.last_u: float | None = None
        self._target_buffer = self.params.base_target_buffer_s

    def observe_interval(self, clock_s: float, dt_s: float, buffer_s: float) -> None:
        self.pid_state.accumulate(self._target_buffer, buffer_s, dt_s)

    def decide(self, ctx: DecisionContext) -> int:
        if ctx.chunk_class is None:
            raise ConfigError("cava needs a chunk classification")
        p = self.params
        self._target_buffer = self._outer_target(ctx)
        xr = self._target_buffer
        u_raw = pid_output(p.pid, ctx.buffer_s, self.pid_state.integral, xr, ctx.playing_indicator)
        u, freeze, force_max = anti_windup(u_raw, p.pid)
        self.pid_state.freeze = freeze
        self.last_u = u
        if force_max:
            return max(ctx.allowed_levels)
        i = ctx.chunk_index
        is_q4 = ctx.chunk_class.quartile(i) == 4
        alpha = p.alpha_q4 if is_q4 else p.alpha_q123
        if is_q4 and p.q4_low_buffer_relief and ctx.buffer_s <= p.safe_buffer_s:
            alpha = 1.0
        eta = 1.0
        if i > 0 and (ctx.chunk_class.quartile(i - 1) == 4) != is_q4:
            eta = 0.0  # class switch: do not penalize the level change
        level = self._argmin(ctx, u, xr, alpha, eta)
        if (
            not is_q4
            and level <= p.low_level_cutoff
            and ctx.buffer_s > p.safe_buffer_s
        ):
            level = self._argmin(ctx, u, xr, 1.0, eta)
        return level

    def _outer_target(self, ctx: DecisionContext) -> float:
        p = self.params
        if ctx.last_level is None:
            return p.base_target_buffer_s
        manifest = ctx.manifest
        upcoming = manifest.windowed_bitrate_kbps(ctx.last_level, ctx.chunk_index, p.outer_window)
        ratio = upcoming / max(manifest.avg_bitrate_kbps(ctx.last_level), _EST_FLOOR_KBPS)
        return p.base_target_buffer_s * min(max(ratio, 1.0), 2.0)

    def _argmin(self, ctx, u, xr, alpha, eta):
        p = self.params
        est = max(ctx.est_kbps, _EST_FLOOR_KBPS)
        delta = ctx.manifest.chunk_duration_s
        target = alpha * est
        prev_rate = None
        if ctx.last_level is not None:
            prev_rate = ctx.manifest.avg_bitrate_kbps(ctx.last_level)
        best = best_lvl = None
        for lvl in sorted(ctx.allowed_levels):
            rate = ctx.manifest.windowed_bitrate_kbps(lvl, ctx.chunk_index, p.inner_window)
            cost = _rollout_tracking_cost(
                p.pid, p.pid.kp, p.horizon, u, self.pid_state.integral,
                ctx.buffer_s, ctx.playing_indicator, xr, rate, target, est, delta,
            )
            self.eval_count += p.horizon
            if prev_rate is not None:
                cost += eta * (ctx.manifest.avg_bitrate_kbps(lvl) - prev_rate) ** 2
            if best is None or cost < best:
                best, best_lvl = cost, lvl
        return best_lvl


@dataclass
class QuadParams:
    """Quality-target weights for the quality-aware PID scheme."""

    pid: PidParams = field(default_factory=PidParams)
    target_quality: float = 80.0
    alpha: float = 1.0
    eta: float = 1.0
    fair_level: int = 2
    low_buffer_chunks: float = 4.0

    def __post_init__(self) -> None:
        if not 0.0 < self.target_quality <= 100.0:
            raise ConfigError("target quality must lie in (0, 100]")
        if self.alpha < 0 or self.eta < 0:
            raise ConfigError("alpha and eta must be >= 0")
        if self.fair_level < 1:
            raise ConfigError("fair level must be >= 1")
        if self.low_buffer_chunks <= 0:
            raise ConfigError("low buffer threshold must be positive")


class Quad(AbrScheme):
    """PID scheme that targets a quality value instead of maximal bitrate."""

    name = "quad"

    def __init__(self, params: QuadParams | None = None) -> None:
        self.params = params if params is not None else QuadParams()
        self.pid_state = PidState()
        self.last_u: float | None = None

    def observe_interval(self, clock_s: float, dt_s: float, buffer_s: float) -> None:
        self.pid_state.accumulate(self.params.pid.target_buffer, buffer_s, dt_s)

    def decide(self, ctx: DecisionContext) -> int:
        p = self.params
        u_raw = pid_output(
            p.pid, ctx.buffer_s, self.pid_state.integral,
            p.pid.target_buffer, ctx.playing_indicator,
        )
        u, freeze, _ = anti_windup(u_raw, p.pid)
        self.pid_state.freeze = freeze
        self.last_u = u
        est = max(ctx.est_kbps, _EST_FLOOR_KBPS)
        if ctx.buffer_s < p.low_buffer_chunks * ctx.manifest.chunk_duration_s:
            want = min(p.fair_level, bitrate_from_u(u, est, ctx.allowed_pairs()))
            fits = [lvl for lvl in ctx.allowed_levels if lvl <= want]
            return max(fits) if fits else min(ctx.allowed_levels)
        qr = p.target_quality
        prev_q = None
        if ctx.last_level is not None:
            prev_q = self._vmaf(ctx, ctx.last_level, ctx.chunk_index - 1)
        best = best_lvl = None
        for lvl in sorted(ctx.allowed_levels):
            rate = ctx.manifest.bitrate_kbps(lvl, ctx.chunk_index)
            q = self._vmaf(ctx, lvl, ctx.chunk_index)
            cost = (max(0.0, u * rate - est) / est) ** 2
            cost += p.alpha * ((qr - q) / qr) ** 2
            if prev_q is not None:
                cost += p.eta * ((q - prev_q) / qr) ** 2
            if best is None or cost < best:
                best, best_lvl = cost, lvl
        return best_lvl

    @staticmethod
    def _vmaf(ctx: DecisionContext, level: int, index: int) -> float:
        vmaf = ctx.manifest.chunk(level, index).vmaf
        if vmaf is None:
            raise ConfigError(f"quad needs a quality value on every chunk (level {level}, chunk {index})")
        return vmaf


# ------------------------------------------------------------------- filters


@dataclass(frozen=True)
class FilterSpec:
    """Quality prefilter selection: none, per-chunk cap, or track cap."""

    kind: str = "none"
    target_quality: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("none", "cbf", "tbf-", "tbf+"):
            raise ConfigError(f"unknown filter kind {self.kind!r}")
        if self.kind != "none":
            q = self.target_quality
            if q is None or not 0.0 < q <= 100.0:
                raise ConfigError("filter needs a target quality in (0, 100]")


def _require_vmaf(manifest: VideoManifest, level: int, index: int) -> float:
    vmaf = manifest.chunk(level, index).vmaf
    if vmaf is None:
        raise ConfigError(f"filter needs a quality value on every chunk (level {level}, chunk {index})")
    return vmaf


def cbf_filter(manifest: VideoManifest, target_quality: float) -> tuple[tuple[int, ...], ...]:
    """Per-position allowed sets {1..cap} where cap's quality is closest to target."""
    allowed = []
    for i in range(manifest.n_chunks):
        best = cap = None
        for lvl in manifest.levels:
            dev = abs(_require_vmaf(manifest, lvl, i) - target_quality)
            if best is None or dev < best:
                best, cap = dev, lvl
        allowed.append(tuple(range(1, cap + 1)))
    return tuple(allowed)


def tbf_filter(manifest: VideoManifest, target_quality: float, variant: str) -> int:
    """Uniform top level from per-track mean quality: minus stays at or below
    the target, plus is one level above it."""
    if variant not in ("minus", "plus"):
        raise ConfigError(f"unknown tbf variant {variant!r}")
    means = {}
    for lvl in manifest.levels:
        track = manifest.track(lvl)
        means[lvl] = sum(
            _require_vmaf(manifest, lvl, i) for i in range(len(track.chunks))
        ) / len(track.chunks)
    below = [lvl for lvl in manifest.levels if means[lvl] <= target_quality]
    if not below:
        return 1  # every track overshoots: keep only the lowest
    if variant == "minus":
        return max(below)
    return min(max(below) + 1, manifest.n_levels)


def allowed_from_filter(spec: FilterSpec, manifest: VideoManifest):
    """Per-position allowed level sets for a filter spec; None when unfiltered."""
    if spec.kind == "none":
        return None
    if spec.kind == "cbf":
        return cbf_filter(manifest, spec.target_quality)
    variant = "minus" if spec.kind == "tbf-" else "plus"
    cap = tbf_filter(manifest, spec.target_quality, variant)
    return tuple(tuple(range(1, cap + 1)) for _ in range(manifest.n_chunks))


# ------------------------------------------------------------------ registry

SCHEMES: dict[str, type[AbrScheme]] = {
    "rb": RateBased,
    "bba0": BufferBased,
    "rba": BufferAwareRate,
    "mpc": Mpc,
    "robustmpc": RobustMpc,
    "pia": Pia,
    "piae": PiaStartup,
    "cava": Cava,
    "quad": Quad,
}


def make_scheme(name: str, **kwargs) -> AbrScheme:
    """Instantiate a registered scheme by name."""
    try:
        factory = SCHEMES[name]
    except KeyError:
        raise ConfigError(f"unknown scheme {name!r}; choose from {sorted(SCHEMES)}") from None
    return factory(**kwargs)
