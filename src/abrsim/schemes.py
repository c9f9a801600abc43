"""ABR schemes: decision context, scheme base class, and the scheme registry."""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .control import (
    ControlError,
    Field,
    PidParams,
    Record,
    anti_windup,
    bitrate_from_u,
    fields,
    pid_output,
    read_value,
    replace,
    spec,
)
from .media import VideoManifest, classify_chunks

if TYPE_CHECKING:
    from .engine import DownloadHistory

# floor for bandwidth estimates inside objectives, so divisions stay finite
_EST_FLOOR_KBPS = 1e-9

# The most rollout evaluations one decision may make: MPC scores |L|^min(h, N)
# sequences, a PID argmin h*|L| steps. MPC horizon 6 on 6 levels (46,656) is
# admitted; a 600-chunk session takes about 18 s (2-core Xeon VM, Python 3.11).
MAX_ROLLOUT_EVALS = 50_000


class ConfigError(ValueError):
    """Invalid simulation, scheme, or filter configuration."""


def _check_rollouts(scheme, evals: int) -> None:
    """Refuse a horizon that costs a decision over MAX_ROLLOUT_EVALS evaluations.
    `evals` is not printed: MPC's count on a long manifest can pass the
    interpreter's limit on int-to-string digits."""
    if evals > MAX_ROLLOUT_EVALS:
        raise ConfigError(f"{scheme.name} horizon {scheme.horizon} needs more than "
                          f"{MAX_ROLLOUT_EVALS} rollout evaluations per decision")


def require_quality(manifest: VideoManifest) -> tuple[tuple[float, ...], ...]:
    """Per-level, per-chunk quality values; ConfigError if any chunk lacks one."""
    if manifest.quality_rows is None:
        level, index = next(
            (level, row.index(None))
            for level, row in enumerate(manifest.vmaf_rows, 1) if None in row
        )
        raise ConfigError(
            f"chunk {index} of level {level} has no quality value; quality-aware schemes, "
            "filters and the offline objective need one on every chunk"
        )
    return manifest.quality_rows


class DecisionContext(NamedTuple):
    """Everything a scheme may inspect when choosing the next chunk's level; a
    named tuple, so it is immutable and cheap to build once per chunk."""

    chunk_index: int
    buffer_s: float
    clock_s: float
    est_kbps: float
    last_level: int | None
    allowed_levels: tuple[int, ...]
    manifest: VideoManifest
    playing_indicator: int
    history: "DownloadHistory | None" = None

    def allowed_pairs(self) -> tuple[tuple[int, float], ...]:
        """(level, bitrate kbps of this chunk) pairs for the allowed levels."""
        levels, manifest, i = self.allowed_levels, self.manifest, self.chunk_index
        manifest.check_levels(levels)
        rows = manifest.rate_rows
        return tuple([(lvl, rows[lvl - 1][i]) for lvl in levels])

    def track_pairs(self) -> tuple[tuple[int, float], ...]:
        """(level, track average bitrate kbps) pairs for the allowed levels."""
        levels, manifest = self.allowed_levels, self.manifest
        manifest.check_levels(levels)
        avg = manifest.avg_kbps
        return tuple([(lvl, avg[lvl - 1]) for lvl in levels])


class AbrScheme:
    """Per-session strategy consulted once per chunk; hooks observe elapsed time."""

    name = "base"
    last_u: float | None = None

    def reset(self, manifest: VideoManifest) -> None:
        """Drop per-session state and derive what the scheme needs from the
        session's manifest; the engine calls this before chunk 0."""

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
        est = ctx.est_kbps
        fits = [lvl for lvl, rate in ctx.track_pairs() if rate <= est]
        return max(fits) if fits else min(ctx.allowed_levels)


class BufferBased(AbrScheme, Record, frozen=False, error=ConfigError):
    """Map the buffer level linearly onto the rate ladder between two thresholds."""

    name = "bba0"

    theta_low_s: float = spec(10.0, float)
    theta_high_s: float = spec(60.0, float)

    def __post_init__(self) -> None:
        if self.theta_high_s <= self.theta_low_s:
            raise ConfigError("theta_high must exceed theta_low")

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
        manifest, i, x = ctx.manifest, ctx.chunk_index, ctx.buffer_s
        floor = self.min_buffer_chunks * manifest.chunk_duration_s
        manifest.check_levels(ctx.allowed_levels)
        sizes = manifest.size_rows
        fits = [
            lvl for lvl in ctx.allowed_levels
            if x - sizes[lvl - 1][i] * 8.0 / 1000.0 / est >= floor
        ]
        return max(fits) if fits else min(ctx.allowed_levels)


class Mpc(AbrScheme, Record, frozen=False, error=ConfigError):
    """Exhaustive lookahead maximizing bitrate minus switch and stall penalties.

    Scores every level sequence over the horizon on a buffer rollout that
    assumes the current bandwidth estimate persists; lam defaults to the top
    track's average bitrate in Mbps. The robust variant deflates the estimate
    by the worst relative over-estimate seen over recent chunks.
    """

    name = "mpc"
    robust = False
    eval_count = 0

    horizon: int = spec(5, int, lambda v: v >= 1, "mpc horizon must be >= 1")
    mu: float = spec(1.0, float, lambda v: v >= 0, "mu must be >= 0")
    lam: float | None = spec(None, float, lambda v: v >= 0, "lam must be >= 0")
    error_window: int = spec(5, int, lambda v: v >= 1, "error window must be >= 1")

    def reset(self, manifest: VideoManifest) -> None:
        _check_rollouts(self, manifest.n_levels ** min(self.horizon, manifest.n_chunks))

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
            ctx.manifest.check_levels((ctx.last_level,))
            prev_rate = ctx.manifest.rate_rows[ctx.last_level - 1][i - 1]
        delta = ctx.manifest.chunk_duration_s
        mu = self.mu
        levels = sorted(ctx.allowed_levels)
        ctx.manifest.check_levels(levels)
        rows = ctx.manifest.rate_rows
        # (level, rate, download seconds) per horizon step, in sorted level order
        steps = []
        for k in range(h):
            rates = [(lvl, rows[lvl - 1][i + k]) for lvl in levels]
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
    robust = True


# ---------------------------------------------------------------- pid schemes

_PID_KEYS = tuple(f.name for f in fields(PidParams))


class _PidScheme(AbrScheme, Record, frozen=False, error=ConfigError):
    """Buffer-driven PI controller shared by the PID schemes: the integral fed by
    `observe_interval` toward `_target` (`freeze` suspends it), the PI step with
    setpoint weighting and anti-windup, and the rollout argmin. Subclasses supply
    `decide` and declare their other parameters as spec'd fields."""

    pid: PidParams = Field(default_factory=PidParams)

    def __post_init__(self) -> None:
        if not isinstance(self.pid, PidParams):
            raise ConfigError(f"pid must be a PidParams, got {type(self.pid).__name__}")
        self.eval_count = 0
        self.integral, self.freeze = 0.0, False

    def reset(self, manifest: VideoManifest) -> None:
        self.integral, self.freeze = 0.0, False
        self.last_u = None

    def _target(self, clock_s: float) -> float:
        return self.pid.target_buffer

    def observe_interval(self, clock_s: float, dt_s: float, buffer_s: float) -> None:
        # left-endpoint rule: integral += (target - x) * dt unless frozen
        if not self.freeze:
            self.integral += (self._target(clock_s) - buffer_s) * dt_s

    def _control(self, ctx: DecisionContext, kp: float, xr: float) -> tuple[float, bool]:
        """PI output after anti-windup and whether it forces the top level; sets freeze, last_u."""
        pid = self.pid
        u_raw = pid_output(pid, ctx.buffer_s, self.integral, xr, ctx.playing_indicator, kp)
        u, self.freeze, force_max = anti_windup(u_raw, pid)
        self.last_u = u
        return u, force_max

    def _rollout_rate(self, ctx: DecisionContext, level: int) -> float:
        """The rate `_argmin` rolls `level` out at; `_argmin` has range-checked it."""
        return ctx.manifest.avg_kbps[level - 1]

    def _argmin(self, ctx: DecisionContext, u, kp, xr, alpha, eta) -> int:
        """Allowed level with the least cost: the sum of (u_k * rate - alpha * est)^2
        stepping the closed loop one chunk at a time over the horizon, plus eta
        times the squared change in track average from the last level.

        Every level scores all H steps in ascending level order, and a later
        level must cost strictly less to win; the state after the last step is
        never read, so it is not computed. The step invariants are read once
        per call; `b if b > a else a` is what `max(a, b)` returns, signed zeros
        and NaN included, so the costs are the floats of the plain rollout."""
        pid, horizon = self.pid, self.horizon
        ki, epsilon = pid.ki, pid.epsilon
        bxr = pid.beta * xr
        manifest = ctx.manifest
        delta = manifest.chunk_duration_s
        est = max(ctx.est_kbps, _EST_FLOOR_KBPS)
        target = alpha * est
        x0, integral0 = ctx.buffer_s, self.integral
        ind0 = float(ctx.playing_indicator)
        avg = manifest.avg_kbps
        prev_rate = None
        if ctx.last_level is not None:
            manifest.check_levels((ctx.last_level,))
            prev_rate = avg[ctx.last_level - 1]
        levels = sorted(ctx.allowed_levels)
        manifest.check_levels(levels)
        best = best_lvl = None
        for lvl in levels:
            rate = self._rollout_rate(ctx, lvl)
            d = rate * delta / est
            cost = 0.0
            x, integral, uk, ind = x0, integral0, u, ind0
            for _ in range(horizon - 1):
                cost += (uk * rate - target) ** 2
                nx = x + delta - (d if ind else 0.0)
                nx = 0.0 if 0.0 > nx else nx
                integral += (xr - x) * d
                ind = 1.0 if nx >= delta else 0.0
                uk = kp * (bxr - nx) + ki * integral + ind
                uk = epsilon if epsilon > uk else uk
                x = nx
            cost += (uk * rate - target) ** 2
            if prev_rate is not None:
                cost += eta * (avg[lvl - 1] - prev_rate) ** 2
            if best is None or cost < best:
                best, best_lvl = cost, lvl
        self.eval_count += horizon * len(levels)
        return best_lvl


class Pia(_PidScheme):
    """PID controller on the buffer plus a short smoothing lookahead."""

    name = "pia"

    pid: PidParams = Field(default_factory=lambda: PidParams(beta=0.2))
    horizon: int = spec(5, int, lambda v: v >= 1, "horizon must be >= 1")
    eta: float = spec(1.0, float, lambda v: v >= 0, "eta must be >= 0")

    def reset(self, manifest: VideoManifest) -> None:
        super().reset(manifest)
        _check_rollouts(self, self.horizon * manifest.n_levels)

    def _kp(self, clock_s: float) -> float:
        return self.pid.kp

    def decide(self, ctx: DecisionContext) -> int:
        kp, xr = self._kp(ctx.clock_s), self._target(ctx.clock_s)
        u, force_max = self._control(ctx, kp, xr)
        if force_max:
            return max(ctx.allowed_levels)
        return self._argmin(ctx, u, kp, xr, 1.0, self.eta)


class PiaStartup(Pia):
    """Pia with ramped gain and buffer target for a faster startup phase: over the
    first tau seconds kp falls linearly from alpha*kp to kp and the target rises
    linearly to target_buffer, floored at two chunks of the session manifest,
    which `reset` reads. The ramp needs beta = 1."""

    name = "piae"

    pid: PidParams = Field(default_factory=PidParams)
    alpha: float = spec(4.0, float, lambda v: v > 1, "alpha must exceed 1")
    tau: float = spec(300.0, float, lambda v: v > 0, "tau must be positive")

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.pid.beta != 1.0:
            raise ConfigError("piae requires beta = 1")

    def reset(self, manifest: VideoManifest) -> None:
        super().reset(manifest)
        self._floor = 2.0 * manifest.chunk_duration_s

    def _target(self, clock_s: float) -> float:
        if clock_s < 0:
            raise ControlError("t must be >= 0")
        if clock_s > self.tau:
            return self.pid.target_buffer
        return max(self._floor, self.pid.target_buffer * clock_s / self.tau)

    def _kp(self, clock_s: float) -> float:
        if clock_s < 0:
            raise ControlError("t must be >= 0")
        kp = self.pid.kp
        if clock_s > self.tau:
            return kp
        # anchored at kp so the t=tau endpoint equals the base gain exactly
        return kp + (self.alpha * kp - kp) * (1.0 - clock_s / self.tau)


class Cava(_PidScheme):
    """PID scheme for VBR ladders: windowed chunk sizes, class-aware targets; `reset`
    ranks the session manifest's positions into size quartiles."""

    name = "cava"

    horizon: int = spec(5, int, lambda v: v >= 1, "horizon must be >= 1")
    inner_window: int = spec(10, int)
    outer_window: int = spec(10, int, lambda v: v >= 1, "outer window must be >= 1")
    alpha_q4: float = spec(1.1, float, lambda v: v > 1.0, "need alpha_q4 > 1 > alpha_q123 > 0")
    alpha_q123: float = spec(0.8, float, lambda v: 0 < v < 1, "need alpha_q4 > 1 > alpha_q123 > 0")
    low_level_cutoff: int = spec(2, int, lambda v: v >= 1, "low level cutoff must be >= 1")
    safe_buffer_s: float = spec(10.0, float, lambda v: v > 0, "buffer thresholds must be positive")
    base_target_buffer_s: float = spec(30.0, float, lambda v: v > 0,
                                       "buffer thresholds must be positive")
    q4_low_buffer_relief: bool = spec(False, bool)
    # track whose chunk sizes rank the positions; None is the middle level
    reference_level: int | None = spec(None, int, lambda v: v >= 1, "reference_level must be >= 1")

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.inner_window < self.horizon:
            raise ConfigError("inner window must cover the horizon")

    def reset(self, manifest: VideoManifest) -> None:
        super().reset(manifest)
        _check_rollouts(self, 2 * self.horizon * manifest.n_levels)  # the argmin may run twice
        self._target_buffer = self.base_target_buffer_s
        n = manifest.n_levels
        ref = self.reference_level or (n + 1) // 2  # the spec refuses 0
        if ref > n:
            raise ConfigError(f"reference_level {ref} is above the manifest's top level {n}")
        # per position: is its reference-track chunk in the top size quartile
        self._q4 = tuple(c == 4 for c in classify_chunks(manifest, ref))

    def _target(self, clock_s: float) -> float:
        return self._target_buffer

    def _rollout_rate(self, ctx: DecisionContext, level: int) -> float:
        return ctx.manifest.windowed_bitrate_kbps(level, ctx.chunk_index, self.inner_window)

    def decide(self, ctx: DecisionContext) -> int:
        kp = self.pid.kp
        xr = self._target_buffer = self._outer_target(ctx)
        u, force_max = self._control(ctx, kp, xr)
        if force_max:
            return max(ctx.allowed_levels)
        i = ctx.chunk_index
        is_q4 = self._q4[i]
        alpha = self.alpha_q4 if is_q4 else self.alpha_q123
        if is_q4 and self.q4_low_buffer_relief and ctx.buffer_s <= self.safe_buffer_s:
            alpha = 1.0
        eta = 1.0
        if i > 0 and self._q4[i - 1] != is_q4:
            eta = 0.0  # class switch: do not penalize the level change
        level = self._argmin(ctx, u, kp, xr, alpha, eta)
        if not is_q4 and level <= self.low_level_cutoff and ctx.buffer_s > self.safe_buffer_s:
            level = self._argmin(ctx, u, kp, xr, 1.0, eta)
        return level

    def _outer_target(self, ctx: DecisionContext) -> float:
        if ctx.last_level is None:
            return self.base_target_buffer_s
        manifest = ctx.manifest
        # the window range-checks the last level
        upcoming = manifest.windowed_bitrate_kbps(ctx.last_level, ctx.chunk_index,
                                                  self.outer_window)
        ratio = upcoming / max(manifest.avg_kbps[ctx.last_level - 1], _EST_FLOOR_KBPS)
        return self.base_target_buffer_s * min(max(ratio, 1.0), 2.0)


class Quad(_PidScheme):
    """PID scheme that targets a quality value instead of maximal bitrate; it never
    forces the top level, so at saturation it still weighs quality."""

    name = "quad"

    target_quality: float = spec(80.0, float, lambda v: 0.0 < v <= 100.0,
                                 "target quality must lie in (0, 100]")
    alpha: float = spec(1.0, float, lambda v: v >= 0, "alpha and eta must be >= 0")
    eta: float = spec(1.0, float, lambda v: v >= 0, "alpha and eta must be >= 0")
    fair_level: int = spec(2, int, lambda v: v >= 1, "fair level must be >= 1")
    low_buffer_chunks: float = spec(4.0, float, lambda v: v > 0,
                                    "low buffer threshold must be positive")

    def decide(self, ctx: DecisionContext) -> int:
        quality = require_quality(ctx.manifest)
        u, _ = self._control(ctx, self.pid.kp, self.pid.target_buffer)
        est = max(ctx.est_kbps, _EST_FLOOR_KBPS)
        if ctx.buffer_s < self.low_buffer_chunks * ctx.manifest.chunk_duration_s:
            want = min(self.fair_level, bitrate_from_u(u, est, ctx.allowed_pairs()))
            fits = [lvl for lvl in ctx.allowed_levels if lvl <= want]
            return max(fits) if fits else min(ctx.allowed_levels)
        i = ctx.chunk_index
        qr = self.target_quality
        manifest, last = ctx.manifest, ctx.last_level
        prev_q = None
        if last is not None:
            manifest.check_levels((last,))
            prev_q = quality[last - 1][i - 1]
        levels = sorted(ctx.allowed_levels)
        manifest.check_levels(levels)
        rows = manifest.rate_rows
        best = best_lvl = None
        for lvl in levels:
            rate = rows[lvl - 1][i]
            q = quality[lvl - 1][i]
            cost = (max(0.0, u * rate - est) / est) ** 2
            cost += self.alpha * ((qr - q) / qr) ** 2
            if prev_q is not None:
                cost += self.eta * ((q - prev_q) / qr) ** 2
            if best is None or cost < best:
                best, best_lvl = cost, lvl
        return best_lvl


# ------------------------------------------------------------------- filters

FILTER_KINDS = ("none", "cbf", "tbf-", "tbf+")


def cbf_filter(manifest: VideoManifest, target_quality: float) -> tuple[tuple[int, ...], ...]:
    """Per-position allowed sets {1..cap} where cap's quality is closest to target."""
    quality = require_quality(manifest)
    # one shared tuple per cap, so the engine sorts and checks each cap's set once
    prefixes = [tuple(range(1, cap + 1)) for cap in manifest.levels]
    allowed = []
    for i in range(manifest.n_chunks):
        best = cap = None
        for lvl in manifest.levels:
            dev = abs(quality[lvl - 1][i] - target_quality)
            if best is None or dev < best:
                best, cap = dev, lvl
        allowed.append(prefixes[cap - 1])
    return tuple(allowed)


def tbf_filter(manifest: VideoManifest, target_quality: float, variant: str) -> int:
    """Uniform top level from per-track mean quality: minus stays at or below
    the target, plus is one level above it."""
    if variant not in ("minus", "plus"):
        raise ConfigError(f"unknown tbf variant {variant!r}")
    rows = require_quality(manifest)
    means = {lvl: sum(row) / len(row) for lvl, row in zip(manifest.levels, rows)}
    below = [lvl for lvl in manifest.levels if means[lvl] <= target_quality]
    if not below:
        return 1  # every track overshoots: keep only the lowest
    if variant == "minus":
        return max(below)
    return min(max(below) + 1, manifest.n_levels)


def allowed_from_filter(manifest: VideoManifest, kind: str, target_quality: float | None):
    """Per-position allowed level sets for the prefilter `kind` (one of
    FILTER_KINDS); None when unfiltered. A filter needs a target in (0, 100]."""
    kind = read_value(ConfigError, "kind", kind, str)
    if target_quality is not None:
        target_quality = read_value(ConfigError, "target_quality", target_quality, float)
    if kind not in FILTER_KINDS:
        raise ConfigError(f"unknown filter kind {kind!r}")
    if kind == "none":
        return None
    if target_quality is None or not 0.0 < target_quality <= 100.0:
        raise ConfigError("filter needs a target quality in (0, 100]")
    if kind == "cbf":
        return cbf_filter(manifest, target_quality)
    cap = tbf_filter(manifest, target_quality, "minus" if kind == "tbf-" else "plus")
    return (tuple(range(1, cap + 1)),) * manifest.n_chunks


# ------------------------------------------------------------------ registry

SCHEMES: dict[str, type[AbrScheme]] = {cls.name: cls for cls in (
    RateBased, BufferBased, BufferAwareRate, Mpc, RobustMpc, Pia, PiaStartup, Cava, Quad)}


def scheme_class(name: str) -> type[AbrScheme]:
    """The registered scheme class for `name`."""
    try:
        return SCHEMES[name]
    except KeyError:
        choices = ", ".join(sorted(SCHEMES))
        raise ConfigError(f"unknown scheme {name!r}; choose from {choices}") from None


def build_scheme(name: str, raw: dict | None = None, *, target_quality: float | None = None,
                 reference_level: int | None = None) -> AbrScheme:
    """A registered scheme built from a job's raw `scheme_params`: its keys are the
    class's fields, with the PidParams keys in place of `pid`. Each job-level
    value that is set reaches the schemes that declare it, and `raw` wins."""
    cls = scheme_class(name)
    own = [f.name for f in fields(cls)] if issubclass(cls, Record) else []
    keys = [key for key in own if key != "pid"] + (list(_PID_KEYS) if "pid" in own else [])
    job = {"target_quality": target_quality, "reference_level": reference_level}
    params = {key: value for key, value in job.items() if key in keys and value is not None}
    params.update(raw or {})
    try:
        unknown = sorted(map(str, set(params) - set(keys)))
        if unknown:
            raise ConfigError(f"unknown keys {', '.join(unknown)} "
                              f"(expected any of: {', '.join(keys) or 'none'})")
        if "pid" in own:
            gains = {key: params.pop(key) for key in _PID_KEYS if key in params}
            params["pid"] = replace(cls().pid, **gains)
        return cls(**params)
    except (ConfigError, ControlError) as exc:
        raise ConfigError(f"bad parameters for scheme {name!r}: {exc}") from None
