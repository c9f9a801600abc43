"""Media-model tests: trace parsing, manifest validation, classification, level stats."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abrsim.control import read_value
from abrsim.media import (
    TRACE_HEADER,
    BandwidthTrace,
    MediaError,
    VideoManifest,
    _field,
    classify_chunks,
    parse_manifest,
    parse_trace,
)

from _builders import JSON_VALUES, cbr_manifest, vbr_manifest


def manifest_json(bitrates, duration=2.0, n_chunks=3, is_vbr=False, sizes=None, vmaf=None):
    tracks = []
    for idx, rate in enumerate(bitrates):
        chunk_sizes = sizes[idx] if sizes else [round(rate * 125 * duration)] * n_chunks
        tracks.append(
            {
                "level": idx + 1,
                "declared_bitrate_kbps": rate,
                "chunks": [{"size_bytes": s, "vmaf": vmaf} for s in chunk_sizes],
            }
        )
    return json.dumps(
        {"name": "test", "chunk_duration_s": duration, "is_vbr": is_vbr, "tracks": tracks}
    )


# arbitrary text, or rows of trace-like characters so the fuzz reaches the row parser
TRACE_TEXT = st.text() | st.text(alphabet="0123456789,.-+_eEinfa \t\r\n")


class TestParseTrace:
    def test_echoes_samples(self):
        trace = parse_trace("t_s,bandwidth_kbps\n0,1000\n1,2000")
        assert trace.samples == (1000.0, 2000.0)

    def test_timestamp_gap_names_line(self):
        with pytest.raises(MediaError, match=r"line 3.*t=1"):
            parse_trace("t_s,bandwidth_kbps\n0,1000\n2,2000")

    def test_non_monotone_timestamp(self):
        with pytest.raises(MediaError, match="line 3"):
            parse_trace("t_s,bandwidth_kbps\n0,1000\n0,2000")

    def test_negative_bandwidth_names_line(self):
        with pytest.raises(MediaError, match="line 2"):
            parse_trace("t_s,bandwidth_kbps\n0,-5")

    def test_malformed_value_names_line(self):
        with pytest.raises(MediaError, match="line 3"):
            parse_trace("t_s,bandwidth_kbps\n0,1000\n1,abc")

    def test_missing_column(self):
        with pytest.raises(MediaError, match="line 2"):
            parse_trace("t_s,bandwidth_kbps\n0")

    @pytest.mark.parametrize("value", ["inf", "nan", "1e400", "-inf"])
    def test_non_finite_bandwidth_names_line(self, value):
        with pytest.raises(MediaError, match="line 2"):
            parse_trace(f"t_s,bandwidth_kbps\n0,{value}\n1,1000\n")

    def test_bad_header(self):
        with pytest.raises(MediaError, match="header"):
            parse_trace("time,bw\n0,1000")

    def test_empty_body(self):
        with pytest.raises(MediaError):
            parse_trace("t_s,bandwidth_kbps\n")

    def test_constant_half_hour(self):
        text = "t_s,bandwidth_kbps\n" + "\n".join(f"{t},5000" for t in range(1800))
        trace = parse_trace(text)
        assert len(trace.samples) == 1800
        assert sum(trace.samples) / len(trace.samples) == 5000.0

    def test_round_trip_fixed(self):
        trace = BandwidthTrace("rt", (0.0, 1234.5678, 3.1e-3, 987654.0))
        assert parse_trace(trace.to_csv(), name="rt") == trace

    def test_zero_bandwidth_allowed(self):
        assert parse_trace("t_s,bandwidth_kbps\n0,0").samples == (0.0,)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=1, max_size=60))
    def test_round_trip_property(self, values):
        trace = BandwidthTrace("t", tuple(values))
        assert parse_trace(trace.to_csv(), name="t") == trace

    @settings(max_examples=300, deadline=None)
    @given(body=TRACE_TEXT, header=st.booleans())
    def test_fuzzed_trace_is_valid_or_a_media_error(self, body, header):
        text = f"{TRACE_HEADER}\n{body}" if header else body
        try:
            trace = parse_trace(text)
        except MediaError:
            return
        assert isinstance(trace, BandwidthTrace)

    def test_concat_counts_add(self):
        a = BandwidthTrace("a", (1.0, 2.0))
        b = BandwidthTrace("b", (3.0,))
        joined = BandwidthTrace("ab", a.samples + b.samples)
        assert len(joined.samples) == len(a.samples) + len(b.samples)


class TestBandwidthTrace:
    def test_rejects_empty(self):
        with pytest.raises(MediaError):
            BandwidthTrace("x", ())

    def test_rejects_negative(self):
        with pytest.raises(MediaError):
            BandwidthTrace("x", (5.0, -1.0))

    def test_rejects_non_finite(self):
        with pytest.raises(MediaError, match="t=1"):
            BandwidthTrace("x", (5.0, float("inf")))




_MANIFEST_FIELDS = (
    *(("top", key) for key in ("name", "chunk_duration_s", "is_vbr", "tracks")),
    *(("track", key) for key in ("level", "declared_bitrate_kbps", "chunks")),
    *(("chunk", key) for key in ("size_bytes", "vmaf")),
)
# edits to a valid manifest: (where, field) set to a value of any JSON type
MANIFEST_EDITS = st.lists(
    st.tuples(st.sampled_from(_MANIFEST_FIELDS), JSON_VALUES | st.integers(1, 10**6)),
    max_size=2,
)


class TestParseManifest:
    @settings(max_examples=150, deadline=None)
    @given(edits=MANIFEST_EDITS, whole=JSON_VALUES)
    def test_fuzzed_manifest_is_valid_or_a_media_error(self, edits, whole):
        raw = json.loads(manifest_json([350, 600], vmaf=80.0))
        target = {"top": raw, "track": raw["tracks"][1], "chunk": raw["tracks"][1]["chunks"][2]}
        for (where, field), value in edits:
            target[where][field] = value
        for text in (json.dumps(raw), json.dumps(whole)):
            try:
                manifest = parse_manifest(text)
            except MediaError:
                continue
            assert isinstance(manifest, VideoManifest)

    def test_cbr_sizes(self):
        m = parse_manifest(manifest_json([350, 600]))
        assert [row[0] for row in m.size_rows] == [87500, 150000]
        assert m.n_chunks == 3 and m.n_levels == 2

    def test_cbr_tolerates_one_byte(self):
        text = manifest_json([350, 600], sizes=[[87501, 87499, 87500], [150000] * 3])
        parse_manifest(text)

    def test_cbr_rejects_two_bytes_off(self):
        text = manifest_json([350, 600], sizes=[[87502, 87500, 87500], [150000] * 3])
        with pytest.raises(MediaError, match="CBR"):
            parse_manifest(text)

    def test_ragged_chunk_counts(self):
        text = manifest_json([350, 600], sizes=[[87500] * 3, [150000] * 4])
        with pytest.raises(MediaError, match="ragged"):
            parse_manifest(text)

    def test_non_contiguous_levels(self):
        raw = json.loads(manifest_json([350, 600]))
        raw["tracks"][1]["level"] = 3
        with pytest.raises(MediaError, match="contiguous"):
            parse_manifest(json.dumps(raw))

    def test_levels_start_at_one(self):
        raw = json.loads(manifest_json([350, 600]))
        for t in raw["tracks"]:
            t["level"] += 1
        with pytest.raises(MediaError, match="contiguous"):
            parse_manifest(json.dumps(raw))

    def test_missing_duration(self):
        raw = json.loads(manifest_json([350, 600]))
        del raw["chunk_duration_s"]
        with pytest.raises(MediaError, match="chunk_duration_s"):
            parse_manifest(json.dumps(raw))

    def test_single_track_rejected(self):
        with pytest.raises(MediaError, match="2 tracks"):
            parse_manifest(manifest_json([350]))

    def test_bitrate_order_enforced(self):
        text = manifest_json(
            [350, 600], is_vbr=True, sizes=[[90000, 90000, 90000], [10000, 10000, 10000]]
        )
        with pytest.raises(MediaError, match="increasing"):
            parse_manifest(text)

    def test_vbr_sizes_free(self):
        text = manifest_json(
            [350, 600], is_vbr=True, sizes=[[1000, 90000, 5000], [2000, 95000, 70000]]
        )
        m = parse_manifest(text)
        assert m.is_vbr

    def test_vmaf_passthrough_and_range(self):
        m = parse_manifest(manifest_json([350, 600], vmaf=93.5))
        assert m.vmaf_rows[0][0] == 93.5
        with pytest.raises(MediaError, match="vmaf"):
            parse_manifest(manifest_json([350, 600], vmaf=101.0))

    def test_null_vmaf_is_none(self):
        m = parse_manifest(manifest_json([350, 600]))
        assert m.vmaf_rows[0][0] is None

    def test_six_track_ladder_accepted(self):
        m = parse_manifest(manifest_json([350, 600, 1000, 2000, 3000, 5000]))
        assert m.n_levels == 6

    def test_not_json(self):
        with pytest.raises(MediaError, match="JSON"):
            parse_manifest("not json {")

    @pytest.mark.parametrize("text", ["[" * 5000 + "]" * 5000, '{"a": ' * 5000 + "1" + "}" * 5000],
                             ids=["arrays", "objects"])
    def test_nested_too_deep_is_not_json(self, text):
        with pytest.raises(MediaError, match="manifest is not valid JSON"):
            parse_manifest(text)

    @pytest.mark.parametrize(
        "where,field,value",
        [
            ("chunk", "vmaf", "abc"),
            ("chunk", "size_bytes", "abc"),
            ("chunk", "size_bytes", float("inf")),
            ("track", "declared_bitrate_kbps", "abc"),
            ("track", "declared_bitrate_kbps", float("nan")),
            ("track", "level", "abc"),
            ("top", "chunk_duration_s", "abc"),
            ("top", "chunk_duration_s", float("inf")),
            ("chunk", "size_bytes", 150000.7),
            ("track", "level", 2.5),
            ("chunk", "size_bytes", True),
            ("track", "level", True),
            ("chunk", "vmaf", True),
            ("top", "is_vbr", "no"),
            ("top", "name", 5),
        ],
    )
    def test_non_numeric_field_is_named(self, where, field, value):
        raw = json.loads(manifest_json([350, 600], vmaf=80.0))
        target = {"top": raw, "track": raw["tracks"][1], "chunk": raw["tracks"][1]["chunks"][2]}
        target[where][field] = value
        with pytest.raises(MediaError, match=field):
            parse_manifest(json.dumps(raw))

    def test_integral_float_fields_parse_as_ints(self):
        raw = json.loads(manifest_json([350, 600], vmaf=80.0))
        raw["tracks"][1]["level"] = 2.0
        raw["tracks"][1]["chunks"][2]["size_bytes"] = 150000.0
        # level 2.0 reads as level 2, so the contiguity check passes
        size = parse_manifest(json.dumps(raw)).size_rows[1][2]
        assert size == 150000 and type(size) is int


# -- one-pass chunk reader ----------------------------------------------------------


def _reference_parse_manifest(text: str) -> VideoManifest:
    """The manifest reader as first written: every chunk field through `_field`,
    all sizes of a track before any of its vmafs."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MediaError(f"manifest is not valid JSON: {exc}") from None
    raw = read_value(MediaError, "manifest", raw, dict)
    duration = _field(raw, "chunk_duration_s", float)
    declared, size_rows, vmaf_rows = [], [], []
    for idx, track in enumerate(_field(raw, "tracks", [dict])):
        if _field(track, "level", int) != idx + 1:
            raise MediaError("track levels must be contiguous 1..L in order")
        declared.append(_field(track, "declared_bitrate_kbps", float))
        chunks = _field(track, "chunks", [dict])
        size_rows.append([_field(c, "size_bytes", int) for c in chunks])
        vmaf_rows.append([_field(c, "vmaf", float, None) for c in chunks])
    return VideoManifest(
        name=_field(raw, "name", str, "video"),
        chunk_duration_s=duration,
        is_vbr=_field(raw, "is_vbr", bool),
        declared_kbps=declared,
        size_rows=size_rows,
        vmaf_rows=vmaf_rows,
    )


def _outcome(parse, text):
    """A parse's manifest with its derived tables (repr keeps 80 apart from
    80.0), or its exception's type and message."""
    try:
        m = parse(text)
    except Exception as exc:  # the two readers must fail alike, whatever the type
        return type(exc), str(exc)
    return m, repr(m), m.avg_kbps, m.rate_rows, m.quality_rows


def _assert_reads_as_reference(text):
    got = _outcome(parse_manifest, text)
    assert got == _outcome(_reference_parse_manifest, text)
    return got


class TestChunkFastPath:
    @settings(max_examples=200, deadline=None)
    @given(edits=MANIFEST_EDITS, vbr=st.booleans())
    def test_fuzzed_manifest_reads_as_reference(self, edits, vbr):
        sizes = [[87500, 90000, 60000], [150000, 160000, 140000]] if vbr else None
        raw = json.loads(manifest_json([350, 600], is_vbr=vbr, sizes=sizes, vmaf=80.0))
        target = {"top": raw, "track": raw["tracks"][1], "chunk": raw["tracks"][1]["chunks"][2]}
        for (where, field), value in edits:
            target[where][field] = value
        _assert_reads_as_reference(json.dumps(raw))

    @staticmethod
    def _edited(edit, vmaf=80.0):
        raw = json.loads(manifest_json([350, 600], is_vbr=True, vmaf=vmaf))
        edit(raw["tracks"][1]["chunks"])
        return json.dumps(raw)

    def test_int_vmaf_reads_as_float(self):
        m = _assert_reads_as_reference(manifest_json([350, 600], vmaf=80))[0]
        assert all(v == 80.0 and type(v) is float for row in m.vmaf_rows for v in row)

    def test_integral_float_size_reads_as_int(self):
        text = self._edited(lambda chunks: chunks[0].update(size_bytes=100000.0))
        size = _assert_reads_as_reference(text)[0].size_rows[1][0]
        assert size == 100000 and type(size) is int

    @pytest.mark.parametrize(
        "case,field,value,message",
        [
            ("bool size", "size_bytes", True, "size_bytes must be a whole number, got True"),
            ("bool vmaf", "vmaf", False, "vmaf must be a finite number, got False"),
            ("size past float range", "size_bytes", 10**400, "size_bytes must be a whole number"),
            ("NaN vmaf", "vmaf", float("nan"), "vmaf must be a finite number, got nan"),
            ("Infinity vmaf", "vmaf", float("inf"), "vmaf must be a finite number, got inf"),
        ],
    )
    def test_refused_value_fails_as_reference(self, case, field, value, message):
        text = self._edited(lambda chunks: chunks[1].update({field: value}))
        kind, got = _assert_reads_as_reference(text)
        assert kind is MediaError and message in got

    def test_missing_size_fails_as_reference(self):
        text = self._edited(lambda chunks: chunks[2].pop("size_bytes"))
        assert _assert_reads_as_reference(text) == (MediaError, "manifest missing field 'size_bytes'")

    def test_bad_size_before_bad_vmaf_fails_on_the_size(self):
        def edit(chunks):
            chunks[0]["vmaf"] = "abc"
            chunks[2]["size_bytes"] = 2.5

        kind, got = _assert_reads_as_reference(self._edited(edit))
        assert "size_bytes" in got

    def test_non_object_after_a_bad_size_fails_on_the_object(self):
        def edit(chunks):
            chunks[0]["size_bytes"] = 2.5
            chunks.append(7)

        kind, got = _assert_reads_as_reference(self._edited(edit))
        assert "each item of chunks must be an object, got 7" in got


class TestClassifyChunks:
    def test_ordered_sizes_split_in_quartiles(self):
        sizes = [[1000 * k for k in range(1, 9)]] * 2
        m = vbr_manifest([sizes[0], [2 * s for s in sizes[1]]])
        assert classify_chunks(m, reference_level=1) == (1, 1, 2, 2, 3, 3, 4, 4)

    def test_two_blocks_split_by_rank(self):
        sizes = [10000] * 4 + [100000] * 4
        m = vbr_manifest([sizes, [2 * s for s in sizes]])
        assert classify_chunks(m, 1) == (1, 1, 2, 2, 3, 3, 4, 4)

    def test_all_equal_splits_by_position(self):
        # Stable rank on (size, position): ties fall back to playback order.
        sizes = [5000] * 8
        m = vbr_manifest([sizes, [2 * s for s in sizes]])
        assert classify_chunks(m, 1) == (1, 1, 2, 2, 3, 3, 4, 4)

    def test_needs_four_chunks(self):
        m = vbr_manifest([[100, 200, 300], [200, 400, 600]])
        with pytest.raises(MediaError, match="4 chunks"):
            classify_chunks(m, 1)

    def test_invalid_reference_level(self):
        m = vbr_manifest([[100, 200, 300, 400], [200, 400, 600, 800]])
        with pytest.raises(MediaError):
            classify_chunks(m, 9)

    @given(
        st.lists(st.integers(min_value=1, max_value=10**6), min_size=4, max_size=41),
    )
    def test_quartile_counts_balanced(self, sizes):
        n = len(sizes)
        m = vbr_manifest([sizes, [s * 2 for s in sizes]])
        classes = classify_chunks(m, 1)
        for q in (1, 2, 3, 4):
            count = classes.count(q)
            assert n // 4 - 1 <= count <= -(-n // 4) + 1

    @given(
        st.lists(st.integers(min_value=1, max_value=10**6), min_size=4, max_size=30),
        st.integers(min_value=2, max_value=4),
    )
    def test_reference_invariance_under_shared_rank_order(self, sizes, n_levels):
        # Scaling sizes by a positive factor preserves per-position rank order.
        m = vbr_manifest([[s * k for s in sizes] for k in range(1, n_levels + 1)])
        first = classify_chunks(m, 1)
        for level in range(2, n_levels + 1):
            assert classify_chunks(m, level) == first


class TestTrackStats:
    def test_track_avg_bitrate(self):
        m = vbr_manifest([[250000] * 3, [500000] * 3])
        assert m.avg_kbps[0] == 1000.0

    def test_single_chunk_avg(self):
        m = vbr_manifest([[500000], [600000]])
        assert m.avg_kbps[0] == 2000.0

    def test_cbr_avg_matches_declared(self):
        m = cbr_manifest([350, 600, 1000], duration_s=2.0, n_chunks=5)
        for avg, declared in zip(m.avg_kbps, m.declared_kbps):
            assert avg == pytest.approx(declared, abs=1e-6)

    def test_windowed_avg(self):
        m = vbr_manifest([[250000, 750000], [500000, 1500000]])
        assert m.windowed_bitrate_kbps(1, 0, 2) == 2000.0
        assert m.windowed_bitrate_kbps(1, 0, 1) == 1000.0
        assert m.windowed_bitrate_kbps(1, 1, 5) == 3000.0

    def test_windowed_rejects_bad_args(self):
        m = vbr_manifest([[250000], [500000]])
        with pytest.raises(MediaError):
            m.windowed_bitrate_kbps(1, 1, 1)
        with pytest.raises(MediaError):
            m.windowed_bitrate_kbps(1, 0, 0)
        with pytest.raises(MediaError, match="level 3 outside 1..2"):
            m.windowed_bitrate_kbps(3, 0, 1)

    @given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=20))
    def test_window_of_one_is_chunk_bitrate(self, sizes):
        m = vbr_manifest([sizes, [2 * s for s in sizes]])
        for i, size in enumerate(m.size_rows[0]):
            assert m.windowed_bitrate_kbps(1, i, 1) == size * 8.0 / 1000.0 / m.chunk_duration_s


def _rows_manifest(duration=2.0, declared=(400.0, 800.0), sizes=((100, 100), (200, 200)),
                   vmafs=((None, None), (None, None)), is_vbr=True):
    return VideoManifest("rows", duration, is_vbr, declared, sizes, vmafs)


class TestChunkMeta:
    """Per-chunk values: one entry of `size_rows` and `vmaf_rows`."""

    def test_bitrate_kbps(self):
        assert vbr_manifest([[250000, 1], [500000, 1]]).rate_rows[0][0] == 1000.0

    def test_validation(self):
        with pytest.raises(MediaError, match="size"):
            vbr_manifest([[0, 100], [200, 200]])
        with pytest.raises(MediaError, match="duration"):
            _rows_manifest(duration=0.0)
        with pytest.raises(MediaError, match="vmaf"):
            vbr_manifest([[100, 100], [200, 200]], vmafs_by_level=[[-1.0, 50.0], [60.0, 70.0]])


class TestManifestRows:
    """A manifest built in Python gets the checks a parsed one does."""

    def test_builds_from_lists(self):
        m = _rows_manifest(declared=[400.0, 800.0], sizes=[[100, 100], [200, 200]])
        assert m == _rows_manifest()
        assert m.size_rows == ((100, 100), (200, 200)) and m.quality_rows is None

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), "2.0", True])
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(MediaError, match="chunk_duration_s"):
            _rows_manifest(duration=duration)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), "800"])
    def test_non_finite_declared_rate_rejected(self, rate):
        with pytest.raises(MediaError, match="declared rate of level 2"):
            _rows_manifest(declared=(400.0, rate))

    def test_non_positive_declared_rate_rejected(self):
        with pytest.raises(MediaError, match="declared bitrate must be positive"):
            _rows_manifest(declared=(0.0, 800.0))

    def test_bool_size_rejected(self):
        with pytest.raises(MediaError, match="positive integer byte count"):
            _rows_manifest(sizes=((True, 100), (200, 200)))

    @pytest.mark.parametrize("size", [0, -3, 100.0])
    def test_non_positive_or_fractional_size_rejected(self, size):
        with pytest.raises(MediaError, match="positive integer byte count"):
            _rows_manifest(sizes=((100, size), (200, 200)))

    @pytest.mark.parametrize("vmaf", [-1.0, 100.5])
    def test_vmaf_outside_range_rejected(self, vmaf):
        with pytest.raises(MediaError, match="vmaf"):
            _rows_manifest(vmafs=((50.0, 50.0), (60.0, vmaf)))

    @pytest.mark.parametrize("vmaf", [float("nan"), float("inf"), True, "80"])
    def test_non_finite_vmaf_rejected(self, vmaf):
        with pytest.raises(MediaError, match="vmaf"):
            _rows_manifest(vmafs=((50.0, 50.0), (60.0, vmaf)))

    def test_row_counts_must_match_the_levels(self):
        with pytest.raises(MediaError, match="one entry per level"):
            _rows_manifest(declared=(400.0, 800.0, 1200.0))
        with pytest.raises(MediaError, match="one entry per level"):
            _rows_manifest(vmafs=((None, None),))

    def test_ragged_vmaf_row_rejected(self):
        with pytest.raises(MediaError, match="ragged"):
            _rows_manifest(vmafs=((None, None), (None,)))

    def test_empty_rows_rejected(self):
        with pytest.raises(MediaError, match="no chunks"):
            _rows_manifest(sizes=((), ()), vmafs=((), ()))


class TestManifestAccessors:
    def test_track_and_chunk_lookup(self):
        m = cbr_manifest([350, 600], n_chunks=4)
        assert m.declared_kbps[1] == 600.0
        assert m.size_rows[0][0] == 87500
        assert m.rate_rows[1][3] == pytest.approx(600.0)
        assert m.levels == (1, 2)
        m.check_levels((1, 2))
        with pytest.raises(MediaError, match="level 0 outside 1..2"):
            m.check_levels((0,))
        with pytest.raises(MediaError, match="level 3 outside 1..2"):
            m.check_levels((1, 3))
