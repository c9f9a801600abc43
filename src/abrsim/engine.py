"""Discrete-event playback simulator: downloads, buffer dynamics, startup, stalls, caps."""

from __future__ import annotations

import json
import math
from .control import Field, Record, spec
from .media import BandwidthTrace, VideoManifest
from .schemes import AbrScheme, ConfigError, DecisionContext

CSV_HEADER = "chunk,level,bitrate_kbps,vmaf,dl_start_s,dl_end_s,buffer_s,est_kbps,u"
_TINY = 1e-12


class SimulationError(RuntimeError):
    """Session cannot proceed or violated an internal invariant."""


class SimConfig(Record, error=ConfigError):
    """Session-level knobs. Playback starts after a fixed latency of
    `startup_value` seconds, or once `startup_value` chunks are fully buffered.
    The estimator is a harmonic mean over the last `estimator_window` per-second
    samples or per-chunk throughputs. resume_margin_s of None means one chunk
    duration."""

    startup_kind: str = spec("latency", str, lambda v: v in ("latency", "chunks_buffered"),
                             "unknown startup rule {!r}")
    startup_value: float = spec(5.0, float)
    max_buffer_s: float = spec(120.0, float, lambda v: v > 0, "max buffer must be positive")
    resume_margin_s: float | None = spec(None, float)
    rtt_s: float = spec(0.07, float, lambda v: v >= 0, "rtt must be >= 0")
    estimator_kind: str = spec("harmonic_seconds", str,
                               lambda v: v in ("harmonic_seconds", "harmonic_chunks"),
                               "unknown estimator kind {!r}")
    estimator_window: int = spec(20, int, lambda v: v >= 1, "estimator window must be >= 1")
    first_chunk_level: int | None = spec(None, int)

    def __post_init__(self) -> None:
        kind, value = self.startup_kind, self.startup_value
        if kind == "latency" and value < 0:
            raise ConfigError("startup delay must be >= 0")
        if kind == "chunks_buffered" and (value < 1 or value != int(value)):
            raise ConfigError("chunks_buffered needs a whole count >= 1")
        if self.resume_margin_s is not None and not 0 < self.resume_margin_s < self.max_buffer_s:
            raise ConfigError("resume margin must lie in (0, max_buffer)")

    def resume_level(self, delta: float) -> float:
        """Level the request gate drains to: the cap less the margin, at least one chunk."""
        margin = self.resume_margin_s if self.resume_margin_s is not None else delta
        return max(self.max_buffer_s - margin, delta)


class DownloadHistory(Record, frozen=False):
    """Observed throughput: per-second trace samples plus per-chunk means.

    Beside each sample list it keeps the samples' reciprocals (`inf` for a
    zero), so the harmonic estimator sums a slice instead of dividing anew."""

    second_samples: list[float] = Field(default_factory=list)
    chunk_samples: list[float] = Field(default_factory=list)
    estimates: list[float] = Field(default_factory=list)
    _last_second: int = -1

    def __post_init__(self) -> None:
        self._second_recips = [_recip(v) for v in self.second_samples]
        self._chunk_recips = [_recip(v) for v in self.chunk_samples]

    def add_second_sample(self, second: int, kbps: float) -> None:
        if second > self._last_second:
            self.second_samples.append(kbps)
            self._second_recips.append(_recip(kbps))
            self._last_second = second

    def add_chunk_sample(self, kbps: float) -> None:
        self.chunk_samples.append(kbps)
        self._chunk_recips.append(_recip(kbps))

    def add_estimate(self, kbps: float) -> None:
        self.estimates.append(kbps)


def _recip(kbps: float) -> float:
    return 1.0 / kbps if kbps else math.inf


def estimate_bandwidth(history: DownloadHistory, kind: str, window: int) -> float:
    """Harmonic mean of the most recent `window` samples of the `kind` estimator's
    list; any non-positive sample -> 0."""
    if kind == "harmonic_seconds":
        samples, recips = history.second_samples, history._second_recips
    else:
        samples, recips = history.chunk_samples, history._chunk_recips
    if not samples:
        raise SimulationError("no throughput history yet; caller must bootstrap")
    recent = samples[-window:]
    if min(recent) <= 0.0:
        return 0.0
    # the reciprocals of `recent`, summed in the same order
    return len(recent) / sum(recips[-window:])


# Passes over its repeating trace that one download, or one request's RTT, may
# span. The heaviest download the tests can draw needs about 43 (a 6,400 kbit
# chunk over a one-second 150 kbps trace); the golden, acceptance and bench
# sessions need under 3.
_MAX_DOWNLOAD_PERIODS = 1000


def _check_download_span(trace: BandwidthTrace, kilobits: float) -> None:
    """Refuse a download that needs more than _MAX_DOWNLOAD_PERIODS passes over
    the trace, so a vanishing link fails at once instead of being walked second
    by second. An all-zero trace carries nothing, so it is refused before any
    second is walked; any other trace carries data within each pass, so no walk
    meets a run of zero samples longer than one period."""
    per_period = trace.kilobits_per_period
    if per_period == 0.0:
        raise SimulationError("zero bandwidth over a full trace period")
    if per_period * _MAX_DOWNLOAD_PERIODS < kilobits:
        raise SimulationError(
            f"link too slow: a {kilobits:g} kbit download needs over {_MAX_DOWNLOAD_PERIODS} "
            f"passes over trace {trace.name!r}, which carries {per_period:g} kbit per pass"
        )


def advance_download(trace: BandwidthTrace, start_clock: float, size_bytes: int) -> float:
    """Earliest clock at which size_bytes have arrived over the zero-order-hold
    trace, which repeats past its end."""
    if size_bytes <= 0:
        raise SimulationError("download size must be positive")
    remaining = size_bytes * 8.0 / 1000.0
    _check_download_span(trace, remaining)
    t = float(start_clock)
    n = trace.duration_s
    while True:
        # A clock a hair under an integer counts as that second (float dust).
        sec = int(math.floor(t + _TINY))
        c = trace.samples[sec % n]
        span = float(sec + 1) - t
        if c > 0.0:
            if c * span >= remaining:
                return t + remaining / c
            remaining -= c * span
        t = float(sec + 1)


class Decision:
    """One chunk's row of the session log, in `CSV_HEADER` order plus its stall time.
    The engine builds one per chunk, so it is a slotted class written out, not a
    `Record`: mutable, unhashable, and equal to a `Decision` of equal fields."""

    __slots__ = ("chunk", "level", "bitrate_kbps", "vmaf", "dl_start_s", "dl_end_s",
                 "buffer_s", "est_kbps", "u", "stall_s")
    __hash__ = None

    def __init__(self, chunk: int, level: int, bitrate_kbps: float, vmaf: float | None,
                 dl_start_s: float, dl_end_s: float, buffer_s: float, est_kbps: float,
                 u: float | None, stall_s: float) -> None:
        self.chunk = chunk
        self.level = level
        self.bitrate_kbps = bitrate_kbps
        self.vmaf = vmaf
        self.dl_start_s = dl_start_s
        self.dl_end_s = dl_end_s
        self.buffer_s = buffer_s
        self.est_kbps = est_kbps
        self.u = u
        self.stall_s = stall_s

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    __eq__, __repr__ = Record.__eq__, Record.__repr__  # both read `as_dict`


class SessionLog(Record):
    """Complete deterministic record of one simulated session."""

    scheme_name: str
    trace_name: str
    manifest_name: str
    chunk_duration_s: float
    decisions: tuple[Decision, ...]
    stalls: tuple[tuple[float, float], ...]
    startup_latency_s: float
    end_clock_s: float
    play_time_s: float
    final_buffer_s: float
    stall_total_s: float
    bytes_downloaded: int

    def to_csv(self) -> str:
        rows = [CSV_HEADER]
        for d in self.decisions:
            rows.append(
                ",".join(
                    (
                        str(d.chunk),
                        str(d.level),
                        repr(float(d.bitrate_kbps)),
                        "" if d.vmaf is None else repr(float(d.vmaf)),
                        repr(float(d.dl_start_s)),
                        repr(float(d.dl_end_s)),
                        repr(float(d.buffer_s)),
                        repr(float(d.est_kbps)),
                        "" if d.u is None else repr(float(d.u)),
                    )
                )
            )
        return "\n".join(rows) + "\n"

    def to_json(self) -> str:
        data = self.as_dict()
        data["decisions"] = [d.as_dict() for d in self.decisions]
        return json.dumps(data, sort_keys=True, indent=2)


class _Session:
    """Event walker for one session and the one home of its state; all floats
    advance via explicit events. Playback has started iff `startup_latency` is set."""

    def __init__(self, scheme, trace, manifest, config, allowed):
        self.scheme = scheme
        self.trace = trace
        self.samples, self.period = trace.samples, len(trace.samples)
        self.manifest = manifest
        self.config = config
        self.allowed = allowed
        self.delta = manifest.chunk_duration_s
        self.resume_level = config.resume_level(self.delta)
        self.history = DownloadHistory()
        self.clock = 0.0
        self.buffer = 0.0
        self.last_level: int | None = None
        self.bytes_downloaded = 0
        self.play_accum = 0.0
        self.chunk_stall = 0.0
        self.stalls: list[tuple[float, float]] = []
        self._stall_start: float | None = None
        self._stall_acc = 0.0
        self.startup_latency: float | None = None
        self.decisions: list[Decision] = []

    # -- playback/stall regime ------------------------------------------------

    def _start_if_due(self, clock: float) -> tuple[float, float | None]:
        """Apply the latency startup rule at `clock`, within float dust of its due
        time. Returns the clock, raised to the due time if playback started
        there, and the due time while playback still waits for it."""
        config = self.config
        if self.startup_latency is not None or config.startup_kind != "latency":
            return clock, None
        due = config.startup_value
        if clock < due - _TINY:
            return clock, due
        self.startup_latency = due
        return max(clock, due), None

    def _close_stall(self) -> None:
        if self._stall_start is not None:
            if self._stall_acc >= 1e-9:
                self.stalls.append((self._stall_start, self._stall_acc))
            self._stall_start, self._stall_acc = None, 0.0

    # -- the event walk -----------------------------------------------------------

    def _walk(self, leg: str, amount: float, rate_kbps: float = 0.0, rtt_s: float = 0.0) -> float:
        """Advance the session through one leg, one interval at a time.

        A leg is "gate" (the buffer drains to `amount`, the resume level) or
        "fetch" (`rtt_s` seconds pass with no bytes flowing, then `amount`
        kilobits of a `rate_kbps` chunk arrive over the trace and fill the
        buffer fluidly; returns the clock at which data began). Each interval
        runs to the nearest event: the next trace second, the end of the RTT or
        leg, the startup time or the buffer reaching one chunk. Over it the
        buffer slope, play rate and stall rate are constant; `observe_interval`
        sees its left endpoint. Clock, buffer and played time live in locals.
        """
        delta = self.delta
        upper, lower = delta + _TINY, delta - _TINY
        samples, period = self.samples, self.period
        observe = self.scheme.observe_interval
        add_sample = self.history.add_second_sample
        idle = leg == "fetch" and rtt_s > 0.0
        download = leg == "fetch" and not idle
        data_start, end = self.clock, self.clock + rtt_s
        clock, due = self._start_if_due(self.clock)
        x, played = self.buffer, self.play_accum
        playing = self.startup_latency is not None
        remaining = amount
        # run while data is due, the RTT runs (it ends below) or the gate drains
        while remaining > 0.0 if download else idle or x > amount + _TINY:
            if due is not None:
                clock, due = self._start_if_due(clock)
                playing = due is None
            if idle:
                left = end - clock
                if left <= _TINY:
                    # data flows from the RTT's end; the startup check above runs there next
                    clock = data_start = end
                    idle, download = False, True
                    continue
            sec = math.floor(clock + _TINY)
            c = fill = 0.0
            if download:
                c = samples[sec % period]
                if c > 0.0:
                    fill = c / rate_kbps
            # regime: (buffer slope, play rate, stall rate)
            if not playing:
                slope, play, stall = fill, 0.0, 0.0
            elif x > upper or (x >= lower and fill >= 1.0):
                # above one chunk, or at it (within float dust) and filling as fast as it plays
                slope, play, stall = fill - 1.0, 1.0, 0.0
            elif x >= lower:
                # sliding at one chunk: drain matches fill, the deficit is stalled time
                slope, play, stall = 0.0, fill, 1.0 - fill
            else:
                slope, play, stall = fill, 0.0, 1.0
            # the nearest event; the leg's own end wins a tie with the trace second
            h, snap, done = sec + 1.0 - clock, None, False
            if download:
                if c > 0.0:
                    hc = remaining / c
                    if hc <= h:
                        h, done = hc, True
            elif idle:
                if left <= h:
                    h = left
            else:
                if slope >= 0.0:
                    raise SimulationError("buffer cap deadlock: buffer is not draining")
                hr = (x - amount) / -slope
                if hr <= h:
                    h, snap = hr, amount
            if due is not None and due - clock < h:
                h, snap, done = due - clock, None, False
            if slope < 0.0 and x > delta:
                hd = (x - delta) / -slope
                if hd < h:
                    h, snap, done = hd, delta, False
            elif slope > 0.0 and playing and x < delta:
                hd = (delta - x) / slope
                if hd < h:
                    h, snap, done = hd, delta, False
            if download and h > 0.0 and c > 0.0:
                add_sample(sec, c)
            # advance over [clock, clock + h)
            if h < 0:
                raise SimulationError("negative interval")
            observe(clock, h, x)
            start = clock
            clock = start + h
            x = x + slope * h if snap is None else snap
            played += play * h
            if stall > 0.0 and h > 0.0:
                lost = stall * h
                self.chunk_stall += lost
                if self._stall_start is None:
                    self._stall_start = start
                self._stall_acc += lost
            elif h > 0.0 and self._stall_start is not None:
                self._close_stall()
            if done:
                remaining = 0.0
            elif c > 0.0:
                remaining -= c * h
        self.clock, self.buffer, self.play_accum = clock, x, played
        return data_start

    # -- chunk lifecycle --------------------------------------------------

    def _estimate(self) -> float:
        """The configured estimate; before any sample, the lowest track's average."""
        config, history = self.config, self.history
        kind = config.estimator_kind
        if (history.second_samples if kind == "harmonic_seconds" else history.chunk_samples):
            return estimate_bandwidth(history, kind, config.estimator_window)
        return self.manifest.avg_kbps[0]

    def run_chunk(self, i: int) -> None:
        if self.buffer >= self.config.max_buffer_s:
            # The gate drains by playing, so like the oracle's request model
            # it holds requests only once playback has started.
            self.clock = self._start_if_due(self.clock)[0]
            if self.startup_latency is not None:
                self._walk("gate", self.resume_level)
        est = self._estimate()
        allowed = self.allowed[i]
        buffer = self.buffer
        playing = int(self.startup_latency is not None and buffer >= self.delta)
        # positional, in field order: chunk_index, buffer_s, clock_s, est_kbps,
        # last_level, allowed_levels, manifest, playing_indicator, history
        ctx = DecisionContext(
            i, buffer, self.clock, est, self.last_level, allowed, self.manifest, playing, self.history
        )
        first = self.config.first_chunk_level
        if i == 0 and first is not None:
            # the highest allowed level at or below `first`, else the lowest allowed
            level, u = max((lvl for lvl in allowed if lvl <= first), default=min(allowed)), None
        else:
            try:
                level = self.scheme.decide(ctx)
            except OverflowError:
                raise SimulationError(f"link too fast: scheme {self.scheme.name!r} overflowed "
                                      f"deciding chunk {i} on trace {self.trace.name!r}") from None
            if level not in allowed:
                raise SimulationError(
                    f"scheme {self.scheme.name!r} chose level {level} for chunk {i}; "
                    f"allowed levels are {allowed}"
                )
            u = self.scheme.last_u
        # `level` is one of `allowed`, which `_normalize_allowed` range-checked
        manifest = self.manifest
        size = manifest.size_rows[level - 1][i]
        bitrate = manifest.rate_rows[level - 1][i]
        vmaf = manifest.vmaf_rows[level - 1][i]
        self.chunk_stall = 0.0
        dl_start = self.clock
        kilobits = size * 8.0 / 1000.0
        _check_download_span(self.trace, kilobits)
        data_start = self._walk("fetch", kilobits, bitrate, self.config.rtt_s)
        dl_end = self.clock
        if dl_end == data_start:  # shorter than the clock's float resolution
            raise SimulationError(f"link too fast: chunk {i} of scheme {self.scheme.name!r} on "
                                  f"trace {self.trace.name!r} downloads in no time at {dl_end:g} s")
        throughput = kilobits / (dl_end - data_start)
        self.history.add_chunk_sample(throughput)
        self.history.add_estimate(est)
        self.scheme.observe_chunk(i, level, throughput)
        self.bytes_downloaded += size
        self.last_level = level
        config = self.config
        if config.startup_kind == "chunks_buffered" and i + 1 == int(config.startup_value):
            self.startup_latency = dl_end
        # positional, in field order: chunk, level, bitrate_kbps, vmaf, dl_start_s,
        # dl_end_s, buffer_s, est_kbps, u, stall_s
        self.decisions.append(
            Decision(i, level, bitrate, vmaf, dl_start, dl_end, buffer, est, u, self.chunk_stall)
        )


def _normalize_allowed(manifest: VideoManifest, allowed_levels) -> tuple[tuple[int, ...], ...]:
    """Per position, the sorted allowed levels: `allowed_levels` is one collection
    of int levels for every position or one per position, and None allows all."""
    n = manifest.n_chunks
    all_levels = manifest.levels
    if allowed_levels is None:
        return (all_levels,) * n
    seq = _read_levels(allowed_levels, "allowed_levels")
    if seq and isinstance(seq[0], int):
        seq = (seq,) * n
    if len(seq) != n:
        raise ConfigError("allowed_levels must cover every chunk position")
    # A filter repeats a few tuples over every position, so each distinct
    # tuple is read, checked and sorted once. The memo keys on identity (the
    # positions keep every set alive), so no level is ever hashed.
    sorted_by_id = {}
    rows = []
    for pos, s in enumerate(seq):
        levels = sorted_by_id.get(id(s))
        if levels is None:
            levels = _read_levels(s, f"allowed levels for chunk {pos}")
            if not levels:
                raise ConfigError(f"no allowed levels for chunk {pos}")
            for lvl in levels:
                if type(lvl) is not int or lvl not in all_levels:
                    raise ConfigError(f"allowed level {lvl!r} not in manifest at chunk {pos}")
            levels = tuple(sorted(levels))
            if type(s) is tuple:  # an iterator may not be read twice
                sorted_by_id[id(s)] = levels
        rows.append(levels)
    return tuple(rows)


def _read_levels(levels, name: str) -> tuple:
    """`levels` as a tuple; ConfigError naming `name` if it cannot be iterated."""
    try:
        return tuple(levels)
    except TypeError:
        raise ConfigError(f"{name} must be a collection, got {type(levels).__name__}") from None


def simulate_session(
    scheme: AbrScheme,
    trace: BandwidthTrace,
    manifest: VideoManifest,
    config: SimConfig,
    allowed_levels=None,
) -> SessionLog:
    """Run one deterministic session; raises SimulationError on invariant breaks.

    The scheme is reset with the manifest first, so a reused instance starts
    without the previous session's controller state and with this manifest's
    per-session data.
    """
    delta = manifest.chunk_duration_s
    if config.max_buffer_s <= delta:
        raise ConfigError("max buffer must exceed one chunk duration")
    if config.startup_kind == "chunks_buffered" and int(config.startup_value) > manifest.n_chunks:
        raise ConfigError("chunks_buffered exceeds the video's chunk count")
    if config.first_chunk_level is not None and not 1 <= config.first_chunk_level <= manifest.n_levels:
        raise ConfigError("first_chunk_level outside manifest levels")
    if config.rtt_s > _MAX_DOWNLOAD_PERIODS * trace.duration_s:
        raise SimulationError(
            f"rtt too long: {config.rtt_s:g} s spans over {_MAX_DOWNLOAD_PERIODS} passes "
            f"over trace {trace.name!r}, and idle time is walked second by second"
        )
    allowed = _normalize_allowed(manifest, allowed_levels)
    scheme.reset(manifest)
    session = _Session(scheme, trace, manifest, config, allowed)
    for i in range(manifest.n_chunks):
        session.run_chunk(i)
    session._close_stall()
    end = session.clock
    startup = session.startup_latency if session.startup_latency is not None else end
    wall_stall = max(0.0, end - startup - session.play_accum)
    # every stalled interval lies in some chunk's fetch leg; fsum rounds the total
    # once, so its error does not grow with the number of chunks
    stall_total = math.fsum(d.stall_s for d in session.decisions)
    if abs(stall_total - wall_stall) > 1e-9:
        raise SimulationError(
            f"stall accounting mismatch: accumulated {stall_total!r} vs wall {wall_stall!r}"
        )
    delivered = manifest.n_chunks * delta
    tol = max(1e-9, delivered * 1e-12)
    if abs(session.play_accum + session.buffer - delivered) > tol:
        raise SimulationError(
            f"content conservation mismatch: played {session.play_accum!r} + buffered "
            f"{session.buffer!r} != delivered {delivered!r}"
        )
    sizes = manifest.size_rows  # every logged level is an allowed one, so in range
    expected_bytes = sum(sizes[d.level - 1][d.chunk] for d in session.decisions)
    if session.bytes_downloaded != expected_bytes:
        raise SimulationError("byte conservation mismatch")
    return SessionLog(
        scheme_name=getattr(scheme, "name", type(scheme).__name__),
        trace_name=trace.name,
        manifest_name=manifest.name,
        chunk_duration_s=delta,
        decisions=tuple(session.decisions),
        stalls=tuple(session.stalls),
        startup_latency_s=startup,
        end_clock_s=end,
        play_time_s=session.play_accum,
        final_buffer_s=session.buffer,
        stall_total_s=stall_total,
        bytes_downloaded=session.bytes_downloaded,
    )
