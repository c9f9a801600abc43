"""The engine's event walk against the walk it replaced, on fuzzed small sessions.

`_ReferenceSession` and `_reference_simulate` are the engine's session walk and
`simulate_session` as first written (one method call per regime, interval and
event; the estimator summing reciprocals on every call), kept here as the
reference. On small finite traces (zeros included), 2-8 chunk CBR and VBR
manifests and configs that reach every startup rule, RTT and request-gate
branch, `simulate_session` must return a `SessionLog` equal to the
reference's after the same `observe_interval` calls, or raise the same
`SimulationError`. `_reference_normalize_allowed` is the allowed-set check as
first written, one sort and check per position; the engine's memoized check
must return or raise the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from hypothesis import example, given, settings
from hypothesis import strategies as st

from _builders import cbr_manifest, vbr_manifest
from abrsim.engine import (
    _TINY,
    ConfigError,
    Decision,
    SessionLog,
    SimConfig,
    SimulationError,
    _normalize_allowed,
    _Session,
    simulate_session,
)
from abrsim.media import BandwidthTrace
from abrsim.schemes import DecisionContext, build_scheme


@dataclass
class _ReferenceHistory:
    second_samples: list[float] = field(default_factory=list)
    chunk_samples: list[float] = field(default_factory=list)
    estimates: list[float] = field(default_factory=list)
    _last_second: int = -1

    def add_second_sample(self, second: int, kbps: float) -> None:
        if second > self._last_second:
            self.second_samples.append(kbps)
            self._last_second = second

    def add_chunk_sample(self, kbps: float) -> None:
        self.chunk_samples.append(kbps)

    def add_estimate(self, kbps: float) -> None:
        self.estimates.append(kbps)


def _reference_estimate(history: _ReferenceHistory, kind: str, window_size: int) -> float:
    if kind == "harmonic_seconds":
        samples = history.second_samples
    else:
        samples = history.chunk_samples
    if not samples:
        raise SimulationError("no throughput history yet; caller must bootstrap")
    window = samples[-window_size:]
    if min(window) <= 0.0:
        return 0.0
    return len(window) / sum(1.0 / v for v in window)


@dataclass
class _ReferenceState:
    """The engine's mutable per-session state as first written, apart from the walker."""

    clock: float = 0.0
    buffer: float = 0.0
    playing: bool = False
    last_level: int | None = None
    bytes_downloaded: int = 0


class _ReferenceSession:
    """`engine._Session` as first written: a method call per regime, interval and event."""

    def __init__(self, scheme, trace, manifest, config, allowed):
        self.scheme = scheme
        self.trace = trace
        self.manifest = manifest
        self.config = config
        self.allowed = allowed
        self.delta = manifest.chunk_duration_s
        self.cap = config.max_buffer_s
        margin = config.resume_margin_s if config.resume_margin_s is not None else self.delta
        # Drain stops at one chunk, so the resume level can never sit below it.
        self.resume_level = max(self.cap - margin, self.delta)
        self.st = _ReferenceState()
        self.history = _ReferenceHistory()
        self.play_accum = 0.0
        self.chunk_stall = 0.0
        self.stalls: list[tuple[float, float]] = []
        self._stall_start: float | None = None
        self._stall_acc = 0.0
        self.startup_latency: float | None = None
        self.decisions: list[Decision] = []
        if config.startup_kind == "latency" and config.startup_value == 0.0:
            self._enable_playback(0.0)

    # -- playback/stall regime ------------------------------------------------

    def _enable_playback(self, clock: float) -> None:
        if not self.st.playing:
            self.st.playing = True
            self.startup_latency = clock

    def _startup_pending_at(self) -> float | None:
        if self.st.playing or self.config.startup_kind != "latency":
            return None
        return self.config.startup_value

    def _regime(self, fill: float) -> tuple[float, float, float]:
        """(buffer slope, play rate, stall rate) for the current state and fill rate."""
        x = self.st.buffer
        if not self.st.playing:
            return fill, 0.0, 0.0
        if x > self.delta + _TINY:
            return fill - 1.0, 1.0, 0.0
        if x >= self.delta - _TINY:
            # At the one-chunk boundary (within float dust of it).
            if fill >= 1.0:
                return fill - 1.0, 1.0, 0.0
            # Sliding regime: drain matches fill, the deficit is stalled time.
            return 0.0, fill, 1.0 - fill
        return fill, 0.0, 1.0

    def _apply(self, h: float, slope: float, play: float, stall: float, snap: float | None) -> None:
        if h < 0:
            raise SimulationError("negative interval")
        start = self.st.clock
        self.scheme.observe_interval(start, h, self.st.buffer)
        self.st.clock = start + h
        self.st.buffer = self.st.buffer + slope * h if snap is None else snap
        self.play_accum += play * h
        if stall > 0.0 and h > 0.0:
            self.chunk_stall += stall * h
            if self._stall_start is None:
                self._stall_start = start
            self._stall_acc += stall * h
        elif h > 0.0 and self._stall_start is not None:
            self._close_stall()

    def _close_stall(self) -> None:
        if self._stall_start is not None:
            if self._stall_acc >= 1e-9:
                self.stalls.append((self._stall_start, self._stall_acc))
            self._stall_start = None
            self._stall_acc = 0.0

    def _current_second(self) -> int:
        return int(math.floor(self.st.clock + _TINY))

    def _next_boundary_h(self) -> float:
        return self._current_second() + 1.0 - self.st.clock

    def _fire_startup_if_due(self) -> None:
        due = self._startup_pending_at()
        if due is not None and self.st.clock >= due - _TINY:
            self.st.clock = max(self.st.clock, due)
            self._enable_playback(due)

    # -- advancing phases -----------------------------------------------------

    def _advance_idle(self, duration: float) -> None:
        """Time passes with no bytes flowing (request latency)."""
        end = self.st.clock + duration
        while True:
            self._fire_startup_if_due()
            left = end - self.st.clock
            if left <= _TINY:
                self.st.clock = end
                break
            slope, play, stall = self._regime(0.0)
            h, snap = min(left, self._next_boundary_h()), None
            due = self._startup_pending_at()
            if due is not None and due - self.st.clock < h:
                h = due - self.st.clock
            if slope < 0.0 and self.st.buffer > self.delta:
                hd = (self.st.buffer - self.delta) / -slope
                if hd < h:
                    h, snap = hd, self.delta
            self._apply(h, slope, play, stall, snap)

    def _wait_for_gate(self) -> None:
        """Drain until the buffer falls to the resume level before a new request."""
        while self.st.buffer > self.resume_level + _TINY:
            self._fire_startup_if_due()
            slope, play, stall = self._regime(0.0)
            if slope >= 0.0:
                raise SimulationError("buffer cap deadlock: buffer is not draining")
            h, snap = self._next_boundary_h(), None
            hr = (self.st.buffer - self.resume_level) / -slope
            if hr <= h:
                h, snap = hr, self.resume_level
            self._apply(h, slope, play, stall, snap)

    def _download(self, rate_kbps: float, kilobits: float) -> None:
        """Advance until the chunk's bytes have arrived, filling the buffer fluidly."""
        remaining = kilobits
        dry = 0.0
        while remaining > 0.0:
            self._fire_startup_if_due()
            sec = self._current_second()
            c = self.trace.samples[sec % self.trace.duration_s]
            fill = c / rate_kbps if c > 0.0 else 0.0
            slope, play, stall = self._regime(fill)
            h, event, snap = self._next_boundary_h(), "boundary", None
            if c > 0.0:
                hc = remaining / c
                if hc <= h:
                    h, event, snap = hc, "complete", None
            due = self._startup_pending_at()
            if due is not None and due - self.st.clock < h:
                h, event, snap = due - self.st.clock, "startup", None
            if slope < 0.0 and self.st.buffer > self.delta:
                hd = (self.st.buffer - self.delta) / -slope
                if hd < h:
                    h, event, snap = hd, "delta", self.delta
            elif slope > 0.0 and self.st.playing and self.st.buffer < self.delta:
                hd = (self.delta - self.st.buffer) / slope
                if hd < h:
                    h, event, snap = hd, "delta", self.delta
            if h > 0.0:
                if c > 0.0:
                    self.history.add_second_sample(sec, c)
                    dry = 0.0
                else:
                    dry += h
                    if dry > self.trace.duration_s + 1.0:
                        raise SimulationError("zero bandwidth over a full trace period")
            self._apply(h, slope, play, stall, snap)
            if event == "complete":
                remaining = 0.0
            elif c > 0.0:
                remaining -= c * h

    # -- chunk lifecycle --------------------------------------------------

    def _estimate(self) -> float:
        if self.config.estimator_kind == "harmonic_seconds":
            have = bool(self.history.second_samples)
        else:
            have = bool(self.history.chunk_samples)
        if not have:
            return self.manifest.avg_kbps[0]
        return _reference_estimate(
            self.history, self.config.estimator_kind, self.config.estimator_window
        )

    def _clamp_to_allowed(self, level: int, allowed: tuple[int, ...]) -> int:
        below = [lvl for lvl in allowed if lvl <= level]
        return max(below) if below else min(allowed)

    def run_chunk(self, i: int) -> None:
        if self.st.buffer >= self.cap:
            # The gate drains by playing, so like the oracle's request model
            # it holds requests only once playback has started.
            self._fire_startup_if_due()
            if self.st.playing:
                self._wait_for_gate()
        est = self._estimate()
        allowed = self.allowed[i]
        ctx = DecisionContext(
            chunk_index=i,
            buffer_s=self.st.buffer,
            clock_s=self.st.clock,
            est_kbps=est,
            last_level=self.st.last_level,
            allowed_levels=allowed,
            manifest=self.manifest,
            playing_indicator=int(self.st.playing and self.st.buffer >= self.delta),
            history=self.history,
        )
        if i == 0 and self.config.first_chunk_level is not None:
            level = self._clamp_to_allowed(self.config.first_chunk_level, allowed)
            u = None
        else:
            level = self.scheme.decide(ctx)
            if level not in allowed:
                raise SimulationError(
                    f"scheme {self.scheme.name!r} chose level {level} for chunk {i}; "
                    f"allowed levels are {allowed}"
                )
            u = self.scheme.last_u
        buffer_at_decision = self.st.buffer
        size = self.manifest.size_rows[level - 1][i]
        vmaf = self.manifest.vmaf_rows[level - 1][i]
        bitrate = size * 8.0 / 1000.0 / self.manifest.chunk_duration_s
        self.chunk_stall = 0.0
        dl_start = self.st.clock
        if self.config.rtt_s > 0:
            self._advance_idle(self.config.rtt_s)
        data_start = self.st.clock
        kilobits = size * 8.0 / 1000.0
        self._download(bitrate, kilobits)
        dl_end = self.st.clock
        throughput = kilobits / (dl_end - data_start)
        self.history.add_chunk_sample(throughput)
        self.history.add_estimate(est)
        self.scheme.observe_chunk(i, level, throughput)
        self.st.bytes_downloaded += size
        self.st.last_level = level
        config = self.config
        if (config.startup_kind == "chunks_buffered" and not self.st.playing
                and i + 1 >= int(config.startup_value)):
            self._enable_playback(self.st.clock)
        self.decisions.append(
            Decision(
                chunk=i,
                level=level,
                bitrate_kbps=bitrate,
                vmaf=vmaf,
                dl_start_s=dl_start,
                dl_end_s=dl_end,
                buffer_s=buffer_at_decision,
                est_kbps=est,
                u=u,
                stall_s=self.chunk_stall,
            )
        )


def _reference_simulate(
    scheme: AbrScheme,
    trace: BandwidthTrace,
    manifest: VideoManifest,
    config: SimConfig,
    allowed_levels=None,
) -> SessionLog:
    """`engine.simulate_session` as first written, over `_ReferenceSession`."""
    delta = manifest.chunk_duration_s
    if config.max_buffer_s <= delta:
        raise ConfigError("max buffer must exceed one chunk duration")
    if config.startup_kind == "chunks_buffered" and int(config.startup_value) > manifest.n_chunks:
        raise ConfigError("chunks_buffered exceeds the video's chunk count")
    if config.first_chunk_level is not None and not 1 <= config.first_chunk_level <= manifest.n_levels:
        raise ConfigError("first_chunk_level outside manifest levels")
    allowed = _normalize_allowed(manifest, allowed_levels)
    scheme.reset(manifest)
    session = _ReferenceSession(scheme, trace, manifest, config, allowed)
    for i in range(manifest.n_chunks):
        session.run_chunk(i)
    session._close_stall()
    st = session.st
    end = st.clock
    startup = session.startup_latency if session.startup_latency is not None else end
    wall_stall = max(0.0, end - startup - session.play_accum)
    # the total is summed per chunk, as the engine sums it
    stall_total = math.fsum(d.stall_s for d in session.decisions)
    if abs(stall_total - wall_stall) > 1e-9:
        raise SimulationError(
            f"stall accounting mismatch: accumulated {stall_total!r} vs wall {wall_stall!r}"
        )
    delivered = manifest.n_chunks * delta
    tol = max(1e-9, delivered * 1e-12)
    if abs(session.play_accum + st.buffer - delivered) > tol:
        raise SimulationError(
            f"content conservation mismatch: played {session.play_accum!r} + buffered "
            f"{st.buffer!r} != delivered {delivered!r}"
        )
    expected_bytes = sum(
        manifest.size_rows[d.level - 1][d.chunk] for d in session.decisions
    )
    if st.bytes_downloaded != expected_bytes:
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
        final_buffer_s=st.buffer,
        stall_total_s=stall_total,
        bytes_downloaded=st.bytes_downloaded,
    )


# -- fuzzing ---------------------------------------------------------------------

# Link rates that equal, double or halve ladder rates, and whole or half-second
# RTTs, make exact ties between events (a fill rate of exactly 1, a download or
# drain ending on a trace second) common rather than rare.
_RATES = (150.0, 400.0, 800.0, 1000.0, 1600.0, 3200.0)
_SCHEMES = ("rb", "bba0", "rba", "mpc", "robustmpc", "pia", "piae", "cava", "quad")


@st.composite
def _manifests(draw):
    n_levels = draw(st.integers(2, 4))
    n_chunks = draw(st.integers(2, 8))
    delta = draw(st.sampled_from((1.0, 2.0, 4.0)))
    vmafs = [[float(30 + 15 * lvl + (i % 3)) for i in range(n_chunks)] for lvl in range(n_levels)]
    if draw(st.booleans()):
        rates = sorted(draw(st.lists(st.sampled_from((300, 400, 500, 800, 1600)),
                                     min_size=n_levels, max_size=n_levels)))
        return cbr_manifest(rates, duration_s=delta, n_chunks=n_chunks,
                            vmafs=[row[0] for row in vmafs])
    base = draw(st.lists(st.integers(20_000, 160_000), min_size=n_chunks, max_size=n_chunks))
    steps = draw(st.lists(st.sampled_from((0, 30_000, 120_000)),
                          min_size=n_levels - 1, max_size=n_levels - 1))
    sizes = [base]
    for step in steps:
        sizes.append([size + step for size in sizes[-1]])
    return vbr_manifest(sizes, duration_s=delta, vmafs_by_level=vmafs)


@st.composite
def _configs(draw, manifest):
    delta = manifest.chunk_duration_s
    if draw(st.booleans()):
        startup = ("latency", draw(st.sampled_from((0.0, 0.5, 3.0, 9.0))))
    else:
        startup = ("chunks_buffered", float(draw(st.integers(1, manifest.n_chunks))))
    margin = None
    if draw(st.booleans()):
        cap = draw(st.sampled_from((1.5, 2.5, 4.0))) * delta
        if draw(st.booleans()):
            margin = draw(st.sampled_from((0.25, 0.5, 0.9))) * cap
    else:
        cap = 120.0
    return SimConfig(
        startup_kind=startup[0],
        startup_value=startup[1],
        max_buffer_s=cap,
        resume_margin_s=margin,
        rtt_s=draw(st.sampled_from((0.0, 0.07, 0.5, 1.0))),
        estimator_kind=draw(st.sampled_from(("harmonic_seconds", "harmonic_chunks"))),
        estimator_window=draw(st.integers(1, 6)),
        first_chunk_level=draw(st.none() | st.sampled_from(manifest.levels)),
    )


@st.composite
def _sessions(draw):
    manifest = draw(_manifests())
    samples = draw(st.lists(st.sampled_from((0.0,) + _RATES), min_size=1, max_size=8))
    trace = BandwidthTrace("fuzz", tuple(samples))
    config = draw(_configs(manifest))
    # cava's chunk classification needs at least four chunks
    name = draw(st.sampled_from([s for s in _SCHEMES if manifest.n_chunks >= 4 or s != "cava"]))
    allowed = None
    if draw(st.booleans()):
        allowed = [
            draw(st.lists(st.sampled_from(manifest.levels), min_size=1, unique=True))
            for _ in range(manifest.n_chunks)
        ]
    return name, trace, manifest, config, allowed


def _outcome(run, name, trace, manifest, config, allowed):
    """The run's log or its `SimulationError`, and its `observe_interval` calls in order."""
    raw = {"horizon": 3} if "mpc" in name else {}
    scheme = build_scheme(name, raw, target_quality=80.0, reference_level=1)
    calls, observe = [], scheme.observe_interval
    scheme.observe_interval = lambda *args: calls.append(args) or observe(*args)
    try:
        return run(scheme, trace, manifest, config, allowed), calls
    except SimulationError as exc:
        return (SimulationError, str(exc)), calls


# Startup at 0.5 s falls inside the first download's last trace second: the
# startup event ends that interval, and the download goes on to 0.8 s.
_STARTUP_MID_DOWNLOAD = (
    "rb",
    BandwidthTrace("one", (1000.0,)),
    cbr_manifest((800, 1600), duration_s=1.0, n_chunks=2),
    SimConfig(startup_kind="latency", startup_value=0.5, rtt_s=0.0),
    None,
)


# Chunk 1's download ends exactly at the 2 s latency startup with the buffer
# past the 1.5 s cap: the leg's own end wins the tie, so the request gate's
# pre-check starts playback, and chunk 2 waits 1 s for the drain.
_STARTUP_AT_THE_GATE = (
    "rb",
    BandwidthTrace("one", (1000.0,)),
    cbr_manifest((500, 1000), duration_s=1.0, n_chunks=4),
    SimConfig(
        startup_kind="latency", startup_value=2.0, max_buffer_s=1.5, rtt_s=0.0, first_chunk_level=2
    ),
    None,
)


# Chunk 1's RTT runs from 0.9 s to 1.4 s across the trace's second boundary:
# the boundary splits the RTT, and its data then flows at second 1's rate.
_RTT_ACROSS_A_SECOND = (
    "rb",
    BandwidthTrace("two", (2000.0, 1000.0)),
    cbr_manifest((800, 1600), duration_s=1.0, n_chunks=2),
    SimConfig(startup_kind="latency", startup_value=0.0, rtt_s=0.5),
    None,
)


# The 1.5 s latency startup falls inside chunk 1's RTT (1.3 s to 1.8 s), with
# one chunk buffered: the startup event splits the RTT, and playback begins.
_STARTUP_MID_RTT = (
    "rb",
    BandwidthTrace("one", (1000.0,)),
    cbr_manifest((800, 1600), duration_s=1.0, n_chunks=3),
    SimConfig(startup_kind="latency", startup_value=1.5, rtt_s=0.5),
    None,
)


# Chunk 1's 0.07 s RTT starts at 0.9299999999999999 s and ends at exactly 1.0 s,
# tied with the trace second: the RTT's end wins, and data flows from second 1.
_RTT_ENDS_ON_A_SECOND = (
    "rb",
    BandwidthTrace("one", (1000.0,)),
    cbr_manifest((860, 1720), duration_s=1.0, n_chunks=2),
    SimConfig(startup_kind="latency", startup_value=0.0, rtt_s=0.07),
    None,
)


@settings(max_examples=200, deadline=None)
@example(session=_STARTUP_MID_DOWNLOAD)
@example(session=_STARTUP_AT_THE_GATE)
@example(session=_RTT_ACROSS_A_SECOND)
@example(session=_STARTUP_MID_RTT)
@example(session=_RTT_ENDS_ON_A_SECOND)
@given(session=_sessions())
def test_walk_matches_reference_walk(session):
    got, calls = _outcome(simulate_session, *session)
    want, want_calls = _outcome(_reference_simulate, *session)
    assert got == want
    if isinstance(got, SessionLog):
        # the scheme saw the same intervals; a failed session's calls may differ,
        # since the engine refuses a too-slow download before walking its RTT
        assert calls == want_calls


def test_startup_at_the_gate_example_starts_playback_in_the_precheck():
    name, trace, manifest, config, allowed = _STARTUP_AT_THE_GATE
    session = _Session(
        build_scheme(name), trace, manifest, config, _normalize_allowed(manifest, allowed)
    )
    session.run_chunk(0)
    session.run_chunk(1)
    assert (session.clock, session.startup_latency) == (2.0, None)
    assert session.buffer >= config.max_buffer_s
    session.run_chunk(2)
    assert session.startup_latency == 2.0
    assert session.decisions[2].dl_start_s == 3.0


@settings(max_examples=200, deadline=None)
@given(session=_sessions())
def test_session_work_is_bounded_by_its_clock_and_chunks(session):
    """A completed session makes at most 2·(⌈end⌉ + 1) + 6·n + 1 interval calls.

    Every interval has positive length and ends at one event: a trace second, a
    leg's own end, the latency startup, or the buffer reaching one chunk. Clock
    only advances, so each whole second up to ⌈end⌉ ends at most one interval.
    Each of the n chunks has at most three leg ends (gate, RTT, download), and
    startup happens at most once: at most ⌈end⌉ + 3n + 1 of these other events.
    Between two of them the fill rate and the regime are fixed, so the buffer
    meets one chunk at most once: having met it, it stays there or moves away
    from it. So at most other + 1 intervals end there, and the total is at most
    2·(⌈end⌉ + 3n + 1) + 1.
    """
    got, calls = _outcome(simulate_session, *session)
    assert all(dt > 0.0 for _, dt, _ in calls)
    if isinstance(got, SessionLog):
        n_chunks = session[2].n_chunks
        assert len(calls) <= 2 * (math.ceil(got.end_clock_s) + 1) + 6 * n_chunks + 1


def test_all_zero_trace_is_refused_before_any_interval():
    got, calls = _outcome(simulate_session, "pia", BandwidthTrace("dead", (0.0,) * 5),
                          cbr_manifest((300, 800), n_chunks=4), SimConfig(), None)
    assert got == (SimulationError, "zero bandwidth over a full trace period")
    assert calls == []


# -- allowed-level sets -------------------------------------------------------------


def _reference_normalize_allowed(manifest, allowed_levels):
    """`_normalize_allowed` without its memo: every position read, checked and sorted."""
    n = manifest.n_chunks
    all_levels = manifest.levels
    if allowed_levels is None:
        return (all_levels,) * n
    seq = tuple(allowed_levels)
    if seq and isinstance(seq[0], int):
        seq = (seq,) * n
    if len(seq) != n:
        raise ConfigError("allowed_levels must cover every chunk position")
    per_position = []
    for pos, s in enumerate(seq):
        levels = tuple(s)
        if not levels:
            raise ConfigError(f"no allowed levels for chunk {pos}")
        for lvl in levels:
            if type(lvl) is not int or lvl not in all_levels:
                raise ConfigError(f"allowed level {lvl!r} not in manifest at chunk {pos}")
        per_position.append(tuple(sorted(levels)))
    return tuple(per_position)


def _normalized(normalize, manifest, allowed):
    try:
        return normalize(manifest, allowed)
    except Exception as exc:  # both must fail alike
        return type(exc), str(exc)


# shared tuples, as a filter repeats them, plus sets that fail each check
_SHARED_SETS = ((1,), (2, 1), (1, 2, 3), (3, 2.0), (), (1, 4), (0,), ([1],), (1, "a"), (True,))
# a position holds a shared tuple itself, an equal fresh tuple or an equal list
_COPIES = {"shared": lambda s: s, "fresh": lambda s: tuple(list(s)), "list": list}


@settings(max_examples=200, deadline=None)
@given(picks=st.lists(st.tuples(st.sampled_from(_SHARED_SETS), st.sampled_from(sorted(_COPIES))),
                      min_size=1, max_size=6))
def test_allowed_sets_normalize_as_reference(picks):
    manifest = cbr_manifest((500, 1000, 1500), n_chunks=len(picks))
    allowed = [_COPIES[copy](levels) for levels, copy in picks]
    got = _normalized(_normalize_allowed, manifest, allowed)
    assert got == _normalized(_reference_normalize_allowed, manifest, allowed)


def test_shared_bad_set_fails_at_its_first_position():
    manifest = cbr_manifest((500, 1000), n_chunks=4)
    bad = (1, 3)
    allowed = ((1,), (1, 2), bad, bad)
    assert _normalized(_normalize_allowed, manifest, allowed) == (
        ConfigError, "allowed level 3 not in manifest at chunk 2")
    unhashable = ([1],)
    assert _normalized(_normalize_allowed, manifest, (unhashable,) * 4) == (
        ConfigError, "allowed level [1] not in manifest at chunk 0")
    # one iterator at every position is read once, so chunk 1 finds it empty
    once = iter((1, 2))
    assert _normalized(_normalize_allowed, manifest, (once,) * 4) == (
        ConfigError, "no allowed levels for chunk 1")
