"""Bandwidth traces and video manifests held as per-level rows."""

from __future__ import annotations

import math
from .control import MISSING, Record, read_json, read_value, spec

TRACE_HEADER = "t_s,bandwidth_kbps"


class MediaError(ValueError):
    """Malformed or inconsistent trace/manifest input."""


def _sample(t: int, value) -> float:
    """A trace sample that is not a float, read as one; a bool is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MediaError(f"bandwidth at t={t} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int beyond float range fails the finite check
        return math.inf


class BandwidthTrace(Record, error=MediaError):
    """1 Hz bandwidth samples in kbps; zero-order hold between integer seconds.

    `kilobits_per_period`, the kilobits one pass over the samples carries, is
    computed once; it is an attribute, not a field."""

    name: str = spec(MISSING, str)
    samples: tuple[float, ...]

    def __post_init__(self) -> None:
        samples = tuple(self.samples)
        if not samples:
            raise MediaError("trace has no samples")
        if not all(type(value) is float for value in samples):  # parse_trace gives floats
            samples = tuple([_sample(t, value) for t, value in enumerate(samples)])
        for t, value in enumerate(samples):
            if not (value >= 0.0 and math.isfinite(value)):
                raise MediaError(f"bandwidth at t={t} must be finite and >= 0")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "kilobits_per_period", sum(samples))

    @property
    def duration_s(self) -> int:
        return len(self.samples)

    def to_csv(self) -> str:
        rows = [TRACE_HEADER]
        rows.extend(f"{t},{value!r}" for t, value in enumerate(self.samples))
        return "\n".join(rows) + "\n"


def parse_trace(text: str, name: str = "trace") -> BandwidthTrace:
    """Parse trace CSV: header t_s,bandwidth_kbps, one row per second from t=0."""
    lines = [line.rstrip("\r") for line in text.splitlines()]
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines or lines[0].strip() != TRACE_HEADER:
        raise MediaError(f"line 1: expected header '{TRACE_HEADER}'")
    samples: list[float] = []
    for row, line in enumerate(lines[1:]):
        lineno = row + 2
        parts = line.strip().split(",")
        if len(parts) != 2:
            raise MediaError(f"line {lineno}: expected 't,bandwidth'")
        try:
            t = int(parts[0])
            value = float(parts[1])
        except ValueError:
            raise MediaError(f"line {lineno}: malformed row {line!r}") from None
        if t > row:
            raise MediaError(f"line {lineno}: timestamp gap, expected t={row}")
        if t < row:
            raise MediaError(f"line {lineno}: non-monotone timestamp, expected t={row}")
        if not (value >= 0.0 and math.isfinite(value)):
            raise MediaError(f"line {lineno}: bandwidth must be finite and >= 0")
        samples.append(value)
    if not samples:
        raise MediaError("trace has no samples")
    return BandwidthTrace(name, tuple(samples))


class VideoManifest(Record, error=MediaError):
    """A video's bitrate ladder, held as per-level rows.

    `declared_kbps[level - 1]` is a level's declared rate, `size_rows[level -
    1][i]` the byte count of its chunk i and `vmaf_rows[level - 1][i]` that
    chunk's quality value or None; every chunk plays for `chunk_duration_s`.
    Construction validates the rows and derives the tables that decisions
    read: `avg_kbps[level - 1]`, total kilobits over total playback time;
    `rate_rows[level - 1][i]`, the bitrate of chunk i; and `quality_rows`, the
    vmaf rows, or None unless every chunk has a value. `check_levels` reads
    the set of levels 1..L. The derived tables are attributes, not fields.
    """

    name: str = spec(MISSING, str)
    chunk_duration_s: float = spec(MISSING, float, lambda v: v > 0, "chunk duration must be positive")
    is_vbr: bool = spec(MISSING, bool)
    declared_kbps: tuple[float, ...]
    size_rows: tuple[tuple[int, ...], ...]
    vmaf_rows: tuple[tuple[float | None, ...], ...]

    def __post_init__(self) -> None:
        declared = tuple(self.declared_kbps)
        sizes, vmafs = tuple(map(tuple, self.size_rows)), tuple(map(tuple, self.vmaf_rows))
        object.__setattr__(self, "declared_kbps", declared)
        object.__setattr__(self, "size_rows", sizes)
        object.__setattr__(self, "vmaf_rows", vmafs)
        delta = self.chunk_duration_s
        if len(sizes) < 2:
            raise MediaError("manifest needs at least 2 tracks")
        if len(declared) != len(sizes) or len(vmafs) != len(sizes):
            raise MediaError("declared rates, size rows and vmaf rows must have one entry per level")
        n = len(sizes[0])
        if n == 0:
            raise MediaError("track has no chunks")
        if any(len(row) != n for row in sizes + vmafs):
            raise MediaError("ragged chunk counts across tracks")
        for level, rate in enumerate(declared, 1):
            read_value(MediaError, f"declared rate of level {level}", rate, float)
            if rate <= 0:
                raise MediaError("declared bitrate must be positive")
        for row in sizes:
            for size in row:
                if not isinstance(size, int) or isinstance(size, bool) or size <= 0:
                    raise MediaError("chunk size must be a positive integer byte count")
        for row in vmafs:
            for vmaf in row:
                if vmaf is not None and (
                    not isinstance(vmaf, (int, float)) or isinstance(vmaf, bool)
                    or not 0.0 <= vmaf <= 100.0
                ):
                    raise MediaError("vmaf must lie in [0, 100]")
        kilobit_rows = [[size * 8.0 / 1000.0 for size in row] for row in sizes]
        seconds = sum([delta] * n)  # summed chunk by chunk, not n * delta
        averages = tuple(sum(row) / seconds for row in kilobit_rows)
        for lower, upper in zip(averages, averages[1:]):
            if upper < lower - 1e-9:
                raise MediaError("tracks must be ordered by increasing average bitrate")
        if not self.is_vbr:
            for level, (rate, row) in enumerate(zip(declared, sizes), 1):
                expected = rate * 125.0 * delta
                for i, size in enumerate(row):
                    if abs(size - expected) > 1.0 + 1e-9:
                        raise MediaError(
                            f"CBR size mismatch at level {level} chunk {i}: "
                            f"{size} vs {expected:.1f} bytes"
                        )
        object.__setattr__(self, "avg_kbps", averages)
        rates = tuple(tuple([kb / delta for kb in row]) for row in kilobit_rows)
        object.__setattr__(self, "rate_rows", rates)
        complete = not any(None in row for row in vmafs)
        object.__setattr__(self, "quality_rows", vmafs if complete else None)
        object.__setattr__(self, "_level_set", frozenset(range(1, len(sizes) + 1)))

    @property
    def n_levels(self) -> int:
        return len(self.size_rows)

    @property
    def n_chunks(self) -> int:
        return len(self.size_rows[0])

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(range(1, self.n_levels + 1))

    def check_levels(self, levels) -> None:
        """Raise MediaError for the first of `levels` outside 1..L, the one range
        check on levels: a decision checks its levels once here, then indexes
        the rows directly."""
        if not self._level_set.issuperset(levels):
            for level in levels:
                if level not in self._level_set:
                    raise MediaError(f"level {level} outside 1..{self.n_levels}")

    def windowed_bitrate_kbps(self, level: int, start: int, window: int) -> float:
        """Mean chunk bitrate of one level over [start, start+window), truncated
        at video end."""
        self.check_levels((level,))
        row = self.rate_rows[level - 1]
        if not 0 <= start < len(row):
            raise MediaError("window start outside track")
        if window < 1:
            raise MediaError("window must be >= 1")
        span = row[start : start + window]
        return sum(span) / len(span)


def classify_chunks(manifest: VideoManifest, reference_level: int) -> tuple[int, ...]:
    """Per-position complexity quartile (1..4) by stable rank of reference-track size."""
    manifest.check_levels((reference_level,))
    sizes = manifest.size_rows[reference_level - 1]
    n = len(sizes)
    if n < 4:
        raise MediaError("classification needs at least 4 chunks")
    # a stable sort, so equal sizes keep playback order
    order = sorted(range(n), key=sizes.__getitem__)
    classes = [0] * n
    for rank, position in enumerate(order):
        classes[position] = 4 * rank // n + 1
    return tuple(classes)


def _manifest_error(message: str) -> MediaError:
    # read_value's error hook: the prefix costs nothing on the ~10^4 reads that pass
    return MediaError(f"manifest field {message}")


def _field(raw: dict, key: str, kind, default=MISSING):
    """raw[key] read as `kind` by `control.read_value`; an absent or null key
    gives `default` and is a MediaError without one."""
    value = raw.get(key)
    if value is None:
        if default is MISSING:
            raise MediaError(f"manifest missing field {key!r}")
        return default
    return read_value(_manifest_error, key, value, kind)


_EXACT_INT = 2**53  # a positive int below this is a size read_value takes as it is


def _read_chunks(chunks: list) -> tuple[list, list]:
    """Each chunk's size and vmaf, as `_field` reads them. One pass takes an int
    size and a vmaf that is absent, null or a finite float as they are; at any
    other value the whole list is read again through `_field`, which gives the
    same value, or the same error as reading every size before any vmaf."""
    sizes, vmafs = [], []
    isfinite = math.isfinite
    for c in chunks:
        size, vmaf = c.get("size_bytes"), c.get("vmaf")
        if type(size) is int and 0 < size < _EXACT_INT and (
            vmaf is None or type(vmaf) is float and isfinite(vmaf)
        ):
            sizes.append(size)
            vmafs.append(vmaf)
        else:
            return ([_field(c, "size_bytes", int) for c in chunks],
                    [_field(c, "vmaf", float, None) for c in chunks])
    return sizes, vmafs


def parse_manifest(text: str) -> VideoManifest:
    """Parse manifest JSON into a validated VideoManifest."""
    raw = read_json(MediaError, "manifest", text)
    duration = _field(raw, "chunk_duration_s", float)
    declared, size_rows, vmaf_rows = [], [], []
    for idx, track in enumerate(_field(raw, "tracks", [dict])):
        # the one place a level number exists: the rows are indexed by position
        if _field(track, "level", int) != idx + 1:
            raise MediaError("track levels must be contiguous 1..L in order")
        declared.append(_field(track, "declared_bitrate_kbps", float))
        chunks = track.get("chunks")
        if type(chunks) is not list or not all(type(c) is dict for c in chunks):
            chunks = _field(track, "chunks", [dict])
        sizes, vmafs = _read_chunks(chunks)
        size_rows.append(sizes)
        vmaf_rows.append(vmafs)
    return VideoManifest(
        name=_field(raw, "name", str, "video"),
        chunk_duration_s=duration,
        is_vbr=_field(raw, "is_vbr", bool),
        declared_kbps=declared,
        size_rows=size_rows,
        vmaf_rows=vmaf_rows,
    )
