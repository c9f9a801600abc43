"""Engine tests: download integration, estimator, buffer dynamics, stalls, caps."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abrsim.engine import (
    CSV_HEADER,
    ConfigError,
    DownloadHistory,
    _MAX_DOWNLOAD_PERIODS,
    SimConfig,
    SimulationError,
    advance_download,
    estimate_bandwidth,
    simulate_session,
)
from abrsim.media import BandwidthTrace
from abrsim.schemes import AbrScheme, RateBased

from _builders import cbr_manifest, constant_trace, vbr_manifest


class FixedScheme(AbrScheme):
    name = "fixed"

    def __init__(self, level: int):
        self.level = level
        self.calls = 0

    def decide(self, ctx):
        self.calls += 1
        return self.level


class CycleScheme(AbrScheme):
    name = "cycle"

    def decide(self, ctx):
        return ctx.allowed_levels[ctx.chunk_index % len(ctx.allowed_levels)]


def fast_config(**kw) -> SimConfig:
    base = dict(
        startup_kind="latency", startup_value=0.0,
        max_buffer_s=1e9,
        rtt_s=0.0,
        estimator_kind="harmonic_seconds", estimator_window=20,
    )
    base.update(kw)
    return SimConfig(**base)


class TestAdvanceDownload:
    def test_one_megabyte_at_8mbps(self):
        trace = constant_trace(8000, 3)
        assert advance_download(trace, 0.0, 1_000_000) == 1.0

    def test_piecewise_two_seconds(self):
        trace = BandwidthTrace("step", (1000.0, 3000.0))
        assert advance_download(trace, 0.0, 31_250) == 0.25
        assert advance_download(trace, 0.0, 62_500) == 0.5
        assert advance_download(trace, 0.0, 125_000) == 1.0
        assert advance_download(trace, 0.0, 156_250) == pytest.approx(1.0 + 250.0 / 3000.0)

    def test_fractional_start(self):
        trace = BandwidthTrace("step", (1000.0, 3000.0))
        assert advance_download(trace, 0.5, 62_500) == 1.0

    def test_zero_bytes_rejected(self):
        with pytest.raises(SimulationError):
            advance_download(constant_trace(1000, 2), 0.0, 0)

    def test_download_wraps_past_trace_end(self):
        trace = constant_trace(1000, 1)
        assert advance_download(trace, 0.0, 250_000) == 2.0

    def test_all_zero_trace_raises(self):
        trace = BandwidthTrace("dead", (0.0, 0.0))
        with pytest.raises(SimulationError, match="zero bandwidth"):
            advance_download(trace, 0.0, 1000)

    def test_vanishing_link_raises_at_once(self):
        trace = BandwidthTrace("tiny", (1e-300,) * 10)
        with pytest.raises(SimulationError, match="link too slow"):
            advance_download(trace, 0.0, 100_000)

    def test_download_span_guard_sits_at_the_period_limit(self):
        # one pass carries 1000 kbit; a download may need _MAX_DOWNLOAD_PERIODS passes
        trace = constant_trace(100.0, 10)
        limit = 1000.0 * _MAX_DOWNLOAD_PERIODS
        assert advance_download(trace, 0.0, round(limit * 125)) == 10.0 * _MAX_DOWNLOAD_PERIODS
        with pytest.raises(SimulationError, match="link too slow"):
            advance_download(trace, 0.0, round(limit * 125) + 1)

    def test_zero_gap_then_resume(self):
        trace = BandwidthTrace("gap", (1000.0, 0.0, 1000.0))
        assert advance_download(trace, 0.0, 250_000) == 3.0


class TestEstimateBandwidth:
    def test_constant_series(self):
        hist = DownloadHistory(second_samples=[1000.0, 1000.0, 1000.0])
        assert estimate_bandwidth(hist, "harmonic_seconds", 20) == 1000.0

    def test_harmonic_mean_two_values(self):
        hist = DownloadHistory(second_samples=[1000.0, 4000.0])
        got = estimate_bandwidth(hist, "harmonic_seconds", 20)
        assert got == pytest.approx(1600.0, rel=1e-12)

    def test_window_takes_most_recent(self):
        hist = DownloadHistory(second_samples=[99999.0, 1000.0, 4000.0])
        got = estimate_bandwidth(hist, "harmonic_seconds", 2)
        assert got == pytest.approx(1600.0, rel=1e-12)

    def test_chunks_mode(self):
        hist = DownloadHistory(chunk_samples=[2000.0] * 5)
        assert estimate_bandwidth(hist, "harmonic_chunks", 5) == 2000.0

    def test_zero_sample_gives_zero(self):
        hist = DownloadHistory(second_samples=[1000.0, 0.0])
        assert estimate_bandwidth(hist, "harmonic_seconds", 20) == 0.0

    def test_empty_history_raises(self):
        with pytest.raises(SimulationError):
            estimate_bandwidth(DownloadHistory(), "harmonic_seconds", 20)

    @given(st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=30))
    def test_harmonic_at_most_arithmetic(self, samples):
        hist = DownloadHistory(second_samples=list(samples))
        got = estimate_bandwidth(hist, "harmonic_seconds", len(samples))
        assert got <= sum(samples) / len(samples) + 1e-9


class TestBufferDynamics:
    def test_net_gain_one_second_per_chunk(self):
        # C=2000, R=1000, chunk downloads in 1 s; fill 2/s, drain 1/s while playing.
        manifest = cbr_manifest([500, 1000], duration_s=2.0, n_chunks=10)
        log = simulate_session(FixedScheme(2), constant_trace(2000, 30), manifest, fast_config())
        buffers = [d.buffer_s for d in log.decisions]
        assert buffers[0] == 0.0
        assert buffers[1] == pytest.approx(2.0)
        for k in range(2, 10):
            assert buffers[k] == pytest.approx(buffers[k - 1] + 1.0)
        assert log.startup_latency_s == 0.0
        assert log.stalls == ((0.0, pytest.approx(1.0)),)
        assert log.end_clock_s == pytest.approx(10.0)
        assert log.play_time_s == pytest.approx(9.0)
        assert log.final_buffer_s == pytest.approx(11.0)

    def test_bandwidth_equals_bitrate_holds_buffer_flat(self):
        manifest = cbr_manifest([1000, 2000], duration_s=2.0, n_chunks=5)
        log = simulate_session(FixedScheme(2), constant_trace(2000, 30), manifest, fast_config())
        for d in log.decisions[1:]:
            assert d.buffer_s == pytest.approx(2.0)
        assert log.final_buffer_s == pytest.approx(2.0)
        assert log.stall_total_s == pytest.approx(2.0)  # initial fill with latency 0

    def test_outage_stalls_at_one_chunk_floor(self):
        # 3 s of 2000, 10 s dead air, then recovery: buffer drains to one chunk and slides.
        samples = (2000.0,) * 3 + (0.0,) * 10 + (2000.0,) * 20
        manifest = cbr_manifest([500, 1000], duration_s=2.0, n_chunks=14)
        log = simulate_session(
            FixedScheme(2), BandwidthTrace("outage", samples), manifest, fast_config()
        )
        assert len(log.stalls) == 2
        start, dur = log.stalls[1]
        assert start == pytest.approx(5.0)
        assert dur == pytest.approx(8.0)
        assert log.decisions[3].stall_s == pytest.approx(8.0)
        assert log.end_clock_s == pytest.approx(24.0)
        assert log.final_buffer_s == pytest.approx(13.0)

    def test_rtt_delays_data_not_accounting(self):
        manifest = cbr_manifest([500, 1000], duration_s=2.0, n_chunks=2)
        config = fast_config(startup_kind="latency", startup_value=5.0, rtt_s=0.07)
        log = simulate_session(FixedScheme(2), constant_trace(8000, 10), manifest, config)
        d0, d1 = log.decisions
        assert d0.dl_start_s == 0.0
        assert d0.dl_end_s == pytest.approx(0.32)
        assert d1.dl_start_s == pytest.approx(0.32)
        assert d1.dl_end_s == pytest.approx(0.64)
        # Playback never enabled: latency exceeds the session span.
        assert log.startup_latency_s == log.end_clock_s
        assert log.play_time_s == 0.0
        assert log.stall_total_s == 0.0
        assert log.final_buffer_s == pytest.approx(4.0)

    def test_startup_latency_mid_fill_counts_stall(self):
        manifest = cbr_manifest([500, 1000], duration_s=2.0, n_chunks=3)
        config = fast_config(startup_kind="latency", startup_value=1.0)
        log = simulate_session(FixedScheme(1), constant_trace(500, 30), manifest, config)
        assert log.startup_latency_s == 1.0
        assert log.stalls == ((1.0, pytest.approx(1.0)),)

    def test_chunks_buffered_startup(self):
        manifest = cbr_manifest([500, 1000], duration_s=2.0, n_chunks=4)
        config = fast_config(startup_kind="chunks_buffered", startup_value=2)
        log = simulate_session(FixedScheme(2), constant_trace(8000, 10), manifest, config)
        assert log.startup_latency_s == pytest.approx(0.5)
        assert log.stalls == ()
        assert [d.buffer_s for d in log.decisions][:3] == [0.0, pytest.approx(2.0), pytest.approx(4.0)]


class TestBufferCap:
    def test_requests_wait_for_resume_level(self):
        manifest = cbr_manifest([500, 1000], duration_s=2.0, n_chunks=8)
        config = fast_config(max_buffer_s=6.0)  # resume margin defaults to one chunk
        log = simulate_session(FixedScheme(2), constant_trace(8000, 40), manifest, config)
        buffers = [d.buffer_s for d in log.decisions]
        expected = [0.0, 2.0, 3.75, 5.5, 4.0, 5.75, 4.0, 5.75]
        assert buffers == [pytest.approx(b) for b in expected]
        assert log.end_clock_s == pytest.approx(8.75)
        assert log.final_buffer_s == pytest.approx(7.5)
        assert log.stalls == ((0.0, pytest.approx(0.25)),)  # initial fill, latency 0
        # In-flight chunks may pass the cap but never by more than one chunk.
        assert log.final_buffer_s <= 6.0 + 2.0 + 1e-9

    def test_decision_buffers_never_at_cap(self):
        manifest = cbr_manifest([500, 1000], duration_s=2.0, n_chunks=30)
        config = fast_config(max_buffer_s=6.0)
        log = simulate_session(FixedScheme(2), constant_trace(8000, 60), manifest, config)
        for d in log.decisions:
            assert d.buffer_s < 6.0

    # Before playback nothing drains the buffer, so the gate would wait for
    # ever; like the oracle's request model, it holds requests only once
    # playback has started. `simulate_session` checks stall, content and byte
    # conservation before it returns a log.
    @staticmethod
    def cap_fill_session(**config):
        manifest = cbr_manifest([400, 800], duration_s=2.0, n_chunks=8)
        return simulate_session(RateBased(), constant_trace(3000.0, 60), manifest, SimConfig(**config))

    def test_latency_startup_after_the_cap_fills(self):
        log = self.cap_fill_session(startup_kind="latency", startup_value=30.0, max_buffer_s=10.0)
        assert log.final_buffer_s == 16.0
        assert log.play_time_s == 0.0 and log.stall_total_s == 0.0
        # The last chunk arrives at 4.56 s, before the 30 s startup, and a
        # session that never starts playing reports its end clock, exactly as
        # one whose cap is never reached does.
        assert log.startup_latency_s == log.end_clock_s == pytest.approx(4.56)
        uncapped = self.cap_fill_session(startup_kind="latency", startup_value=30.0)
        assert log.decisions == uncapped.decisions

    def test_chunk_count_startup_past_the_cap(self):
        log = self.cap_fill_session(startup_kind="chunks_buffered", startup_value=6.0, max_buffer_s=10.0)
        buffers = [d.buffer_s for d in log.decisions]
        # 12 s are buffered when the sixth chunk starts playback; the gate then
        # drains to the resume level (cap minus one chunk) before chunk 6.
        assert buffers[:6] == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
        assert buffers[6] == pytest.approx(8.0)
        assert log.play_time_s + log.final_buffer_s == pytest.approx(16.0)
        assert log.stall_total_s == 0.0


class TestSchemeInterface:
    def test_invalid_level_aborts_with_diagnostic(self):
        manifest = cbr_manifest([500, 1000], n_chunks=3)
        with pytest.raises(SimulationError, match="level 99"):
            simulate_session(FixedScheme(99), constant_trace(2000, 10), manifest, fast_config())

    def test_first_chunk_override_bypasses_scheme(self):
        manifest = cbr_manifest([500, 1000], n_chunks=4)
        scheme = FixedScheme(1)
        config = fast_config(first_chunk_level=2)
        log = simulate_session(scheme, constant_trace(2000, 10), manifest, config)
        assert log.decisions[0].level == 2
        assert log.decisions[0].u is None
        assert scheme.calls == 3
        assert [d.level for d in log.decisions[1:]] == [1, 1, 1]

    def test_first_chunk_override_clamps_to_allowed(self):
        manifest = cbr_manifest([500, 1000], n_chunks=3)
        config = fast_config(first_chunk_level=2)
        log = simulate_session(
            FixedScheme(1), constant_trace(2000, 10), manifest, config, allowed_levels=(1,)
        )
        assert log.decisions[0].level == 1

    def test_allowed_levels_enforced(self):
        manifest = cbr_manifest([500, 1000], n_chunks=3)
        with pytest.raises(SimulationError, match="allowed"):
            simulate_session(
                FixedScheme(2), constant_trace(2000, 10), manifest, fast_config(), allowed_levels=(1,)
            )

    def test_observe_interval_covers_session_contiguously(self):
        seen = []

        class Recorder(FixedScheme):
            def observe_interval(self, clock_s, dt_s, buffer_s):
                seen.append((clock_s, dt_s))

        manifest = cbr_manifest([500, 1000], n_chunks=5)
        config = fast_config(rtt_s=0.07)
        log = simulate_session(Recorder(2), constant_trace(1500, 30), manifest, config)
        total = sum(dt for _, dt in seen)
        assert total == pytest.approx(log.end_clock_s, abs=1e-9)
        clock = 0.0
        for start, dt in seen:
            assert start == pytest.approx(clock, abs=1e-9)
            clock = start + dt

    # A tracer wraps the hooks by setting attributes on the scheme instance, so
    # the engine must look them up through the instance during the session.
    @pytest.mark.parametrize("first_level", [None, 1])
    def test_hooks_set_on_the_instance_are_called(self, first_level):
        intervals = []

        class Recorder(FixedScheme):
            def observe_interval(self, clock_s, dt_s, buffer_s):
                intervals.append((clock_s, dt_s, buffer_s))

        manifest = cbr_manifest([500, 1000], n_chunks=6)
        trace = BandwidthTrace("steps", (1500.0, 400.0, 2600.0) * 10)
        config = fast_config(rtt_s=0.07, first_chunk_level=first_level)
        log = simulate_session(Recorder(2), trace, manifest, config)

        scheme = FixedScheme(2)
        decided, seen, chunks = [], [], []
        decide = scheme.decide
        scheme.decide = lambda ctx: decided.append(ctx.chunk_index) or decide(ctx)
        scheme.observe_interval = lambda *args: seen.append(args)
        scheme.observe_chunk = lambda *args: chunks.append(args)
        assert simulate_session(scheme, trace, manifest, config) == log
        assert decided == list(range(0 if first_level is None else 1, 6))
        assert scheme.calls == len(decided)
        assert seen == intervals  # once per interval, in order
        assert [(i, level) for i, level, _ in chunks] == [(d.chunk, d.level) for d in log.decisions]


class TestEstimatorIntegration:
    def make(self):
        sizes = [[100_000] * 6, [375_000] * 6]
        return vbr_manifest(sizes, duration_s=2.0)

    def test_bootstrap_is_lowest_track(self):
        manifest = self.make()
        log = simulate_session(FixedScheme(2), constant_trace(1000, 60), manifest, fast_config())
        assert log.decisions[0].est_kbps == pytest.approx(400.0)  # 100000 B over 2 s

    def test_seconds_mode_harmonic(self):
        manifest = self.make()
        trace = BandwidthTrace("ramp", (1000.0,) + (4000.0,) * 40)
        log = simulate_session(FixedScheme(2), trace, manifest, fast_config())
        # Chunk 0 spans seconds 0 and 1: samples 1000 and 4000.
        assert log.decisions[0].dl_end_s == pytest.approx(1.5)
        assert log.decisions[1].est_kbps == pytest.approx(1600.0, rel=1e-12)

    def test_chunks_mode_uses_chunk_throughput(self):
        manifest = self.make()
        trace = BandwidthTrace("ramp", (1000.0,) + (4000.0,) * 40)
        config = fast_config(estimator_kind="harmonic_chunks", estimator_window=5)
        log = simulate_session(FixedScheme(2), trace, manifest, config)
        assert log.decisions[1].est_kbps == pytest.approx(2000.0)  # 3000 kb / 1.5 s

    def test_rtt_excluded_from_chunk_throughput(self):
        manifest = self.make()
        config = fast_config(estimator_kind="harmonic_chunks", estimator_window=5, rtt_s=0.5)
        log = simulate_session(FixedScheme(2), constant_trace(3000, 60), manifest, config)
        assert log.decisions[1].est_kbps == pytest.approx(3000.0)


class TestLogOutputs:
    def make_log(self):
        manifest = cbr_manifest([500, 1000], n_chunks=4, vmafs=[60.0, 80.0])
        return simulate_session(FixedScheme(2), constant_trace(2000, 20), manifest, fast_config())

    def test_csv_shape(self):
        log = self.make_log()
        lines = log.to_csv().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "2"
        assert first[3] == "80.0"
        assert first[8] == ""  # baselines carry no controller output

    def test_json_complete(self):
        import json

        log = self.make_log()
        data = json.loads(log.to_json())
        assert len(data["decisions"]) == 4
        assert data["startup_latency_s"] == 0.0
        assert data["scheme_name"] == "fixed"

    def test_determinism_byte_identical(self):
        a = self.make_log()
        b = self.make_log()
        assert a.to_csv() == b.to_csv()
        assert a.to_json() == b.to_json()

    def test_stall_intervals_disjoint_within_span(self):
        samples = (2000.0,) * 3 + (0.0,) * 10 + (2000.0,) * 20
        manifest = cbr_manifest([500, 1000], duration_s=2.0, n_chunks=14)
        log = simulate_session(
            FixedScheme(2), BandwidthTrace("outage", samples), manifest, fast_config()
        )
        prev_end = 0.0
        for start, dur in log.stalls:
            assert start >= prev_end - 1e-9
            assert dur > 0
            prev_end = start + dur
        assert prev_end <= log.end_clock_s + 1e-9
        assert sum(d for _, d in log.stalls) == pytest.approx(log.stall_total_s, abs=1e-6)


class TestConfigValidation:
    def test_bad_configs(self):
        with pytest.raises(ConfigError):
            SimConfig(max_buffer_s=0.0)
        with pytest.raises(ConfigError):
            SimConfig(resume_margin_s=200.0, max_buffer_s=100.0)
        with pytest.raises(ConfigError):
            SimConfig(rtt_s=-0.1)
        with pytest.raises(ConfigError):
            SimConfig(estimator_kind="median", estimator_window=5)
        with pytest.raises(ConfigError):
            SimConfig(estimator_kind="harmonic_seconds", estimator_window=0)
        with pytest.raises(ConfigError):
            SimConfig(startup_kind="latency", startup_value=-1.0)
        with pytest.raises(ConfigError):
            SimConfig(startup_kind="chunks_buffered", startup_value=0)
        with pytest.raises(ConfigError):
            SimConfig(startup_kind="warp", startup_value=1.0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SimConfig(estimator_kind="harmonic_seconds", estimator_window=2.5),
            lambda: SimConfig(estimator_kind="harmonic_seconds", estimator_window=True),
            lambda: SimConfig(first_chunk_level=1.5),
            lambda: SimConfig(first_chunk_level=True),
        ],
        ids=["window-frac", "window-bool", "first-level-frac", "first-level-bool"],
    )
    def test_int_fields_take_whole_numbers(self, build):
        with pytest.raises(ConfigError, match="whole number"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SimConfig(max_buffer_s=float("nan")),
            lambda: SimConfig(max_buffer_s=float("inf")),
            lambda: SimConfig(rtt_s=float("nan")),
            lambda: SimConfig(rtt_s=float("inf")),
            lambda: SimConfig(startup_kind="latency", startup_value=float("nan")),
            lambda: SimConfig(startup_kind="latency", startup_value=float("inf")),
            lambda: SimConfig(startup_kind="chunks_buffered", startup_value=float("nan")),
        ],
        ids=[
            "max_buffer-nan",
            "max_buffer-inf",
            "rtt-nan",
            "rtt-inf",
            "latency-nan",
            "latency-inf",
            "chunks_buffered-nan",
        ],
    )
    def test_non_finite_values_rejected(self, build):
        with pytest.raises(ConfigError, match="finite"):
            build()

    @pytest.mark.parametrize(
        "allowed,message",
        [
            ((1.0, 2.0), "allowed levels for chunk 0 must be a collection, got float"),
            (5, "allowed_levels must be a collection, got int"),
            ((None,) * 2, "allowed levels for chunk 0 must be a collection, got NoneType"),
            (((1.0,),) * 2, "allowed level 1.0 not in manifest at chunk 0"),
            ((True,), "allowed level True not in manifest at chunk 0"),
        ],
        ids=["float-levels", "number", "none-positions", "float-positions", "bool-level"],
    )
    def test_malformed_allowed_levels_are_config_errors(self, allowed, message):
        manifest = cbr_manifest([500, 1000], n_chunks=2)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            simulate_session(RateBased(), constant_trace(2000, 10), manifest, fast_config(),
                             allowed_levels=allowed)

    def test_simulate_validation(self):
        manifest = cbr_manifest([500, 1000], duration_s=2.0, n_chunks=3)
        trace = constant_trace(2000, 10)
        with pytest.raises(ConfigError, match="chunk duration"):
            simulate_session(FixedScheme(1), trace, manifest, fast_config(max_buffer_s=1.0))
        with pytest.raises(ConfigError, match="chunk count"):
            simulate_session(
                FixedScheme(1), trace, manifest, fast_config(startup_kind="chunks_buffered", startup_value=5)
            )
        with pytest.raises(ConfigError, match="first_chunk_level"):
            simulate_session(FixedScheme(1), trace, manifest, fast_config(first_chunk_level=9))
        with pytest.raises(ConfigError, match="allowed"):
            simulate_session(FixedScheme(1), trace, manifest, fast_config(), allowed_levels=((1,),))

    def test_vanishing_link_guard(self):
        manifest = cbr_manifest([500, 1000], n_chunks=4)
        trace = BandwidthTrace("tiny", (1e-300,) * 10)
        with pytest.raises(SimulationError, match="link too slow"):
            simulate_session(RateBased(), trace, manifest, fast_config())

    def test_rtt_guard_sits_at_the_period_limit(self):
        # one pass over a 1 s trace; an RTT may span _MAX_DOWNLOAD_PERIODS passes
        manifest = cbr_manifest([500, 1000], duration_s=1.0, n_chunks=2)
        trace = constant_trace(2000, 1)
        limit = float(_MAX_DOWNLOAD_PERIODS)
        log = simulate_session(FixedScheme(1), trace, manifest, fast_config(rtt_s=limit))
        assert log.decisions[0].dl_end_s == limit + 0.25
        with pytest.raises(SimulationError, match="rtt too long"):
            simulate_session(FixedScheme(1), trace, manifest, fast_config(rtt_s=limit + 0.5))

    def test_zero_progress_guard(self):
        manifest = cbr_manifest([500, 1000], n_chunks=3)
        with pytest.raises(SimulationError, match="zero bandwidth"):
            simulate_session(FixedScheme(1), constant_trace(0, 5), manifest, fast_config())


class TestNoStallWithAmpleBandwidth:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=200, max_value=3000), min_size=2, max_size=4, unique=True),
        st.sampled_from([2.0, 5.0]),
        st.integers(min_value=3, max_value=10),
        st.floats(min_value=1.01, max_value=3.0),
    )
    def test_never_stalls(self, bitrates, delta, n_chunks, headroom):
        bitrates = sorted(bitrates)
        manifest = cbr_manifest(bitrates, duration_s=delta, n_chunks=n_chunks)
        trace = constant_trace(max(bitrates) * headroom, 10)
        config = fast_config(startup_kind="chunks_buffered", startup_value=1)
        log = simulate_session(CycleScheme(), trace, manifest, config)
        assert log.stall_total_s == 0.0
        assert log.stalls == ()
