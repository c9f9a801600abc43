"""Bandwidth traces, video manifests, and derived per-track statistics."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .control import read_value

TRACE_HEADER = "t_s,bandwidth_kbps"


class MediaError(ValueError):
    """Malformed or inconsistent trace/manifest input."""


@dataclass(frozen=True)
class BandwidthTrace:
    """1 Hz bandwidth samples in kbps; zero-order hold between integer seconds.

    `kilobits_per_period`, the kilobits one pass over the samples carries, is
    computed once and takes no part in equality or repr."""

    name: str
    samples: tuple[float, ...]
    kilobits_per_period: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", tuple(float(v) for v in self.samples))
        if not self.samples:
            raise MediaError("trace has no samples")
        for t, value in enumerate(self.samples):
            if not (value >= 0.0 and math.isfinite(value)):
                raise MediaError(f"bandwidth at t={t} must be finite and >= 0")
        object.__setattr__(self, "kilobits_per_period", sum(self.samples))

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


@dataclass(frozen=True)
class ChunkMeta:
    """One encoded chunk: payload size, playback duration, optional VMAF quality."""

    size_bytes: int
    duration_s: float
    vmaf: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.size_bytes, int) or self.size_bytes <= 0:
            raise MediaError("chunk size must be a positive integer byte count")
        if self.duration_s <= 0:
            raise MediaError("chunk duration must be positive")
        if self.vmaf is not None and not 0.0 <= self.vmaf <= 100.0:
            raise MediaError("vmaf must lie in [0, 100]")

    @property
    def bitrate_kbps(self) -> float:
        return self.size_bytes * 8.0 / 1000.0 / self.duration_s


@dataclass(frozen=True)
class Track:
    """One bitrate level: 1-based level id, declared rate, per-position chunks."""

    level: int
    declared_bitrate_kbps: float
    chunks: tuple[ChunkMeta, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "chunks", tuple(self.chunks))
        if self.level < 1:
            raise MediaError("track levels are 1-based")
        if self.declared_bitrate_kbps <= 0:
            raise MediaError("declared bitrate must be positive")
        if not self.chunks:
            raise MediaError("track has no chunks")


def track_avg_bitrate(track: Track) -> float:
    """Whole-track average bitrate in kbps: total bits over total playback time."""
    total_kilobits = sum(c.size_bytes * 8.0 / 1000.0 for c in track.chunks)
    total_seconds = sum(c.duration_s for c in track.chunks)
    return total_kilobits / total_seconds


@dataclass(frozen=True)
class VideoManifest:
    """A video's bitrate ladder plus the global chunk duration.

    Construction also builds tables that decisions read instead of walking
    tracks: `avg_kbps[level - 1]` is `track_avg_bitrate` of that track,
    `rate_rows[level - 1][i]` is the bitrate of chunk i, and
    `quality_rows[level - 1][i]` its quality value; `quality_rows` is None
    unless every chunk has one. `check_levels` reads the set of levels 1..L.
    They take no part in equality or repr.
    """

    name: str
    chunk_duration_s: float
    is_vbr: bool
    tracks: tuple[Track, ...]
    avg_kbps: tuple[float, ...] = field(init=False, repr=False, compare=False)
    rate_rows: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)
    quality_rows: tuple[tuple[float, ...], ...] | None = field(init=False, repr=False, compare=False)
    _level_set: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tracks", tuple(self.tracks))
        if self.chunk_duration_s <= 0:
            raise MediaError("chunk duration must be positive")
        if len(self.tracks) < 2:
            raise MediaError("manifest needs at least 2 tracks")
        if len({len(t.chunks) for t in self.tracks}) != 1:
            raise MediaError("ragged chunk counts across tracks")
        for idx, track in enumerate(self.tracks):
            if track.level != idx + 1:
                raise MediaError("track levels must be contiguous 1..L in order")
            for chunk in track.chunks:
                if chunk.duration_s != self.chunk_duration_s:
                    raise MediaError("chunk duration differs from manifest duration")
        averages = tuple(track_avg_bitrate(t) for t in self.tracks)
        for lower, upper in zip(averages, averages[1:]):
            if upper < lower - 1e-9:
                raise MediaError("tracks must be ordered by increasing average bitrate")
        if not self.is_vbr:
            for track in self.tracks:
                expected = track.declared_bitrate_kbps * 125.0 * self.chunk_duration_s
                for i, chunk in enumerate(track.chunks):
                    if abs(chunk.size_bytes - expected) > 1.0 + 1e-9:
                        raise MediaError(
                            f"CBR size mismatch at level {track.level} chunk {i}: "
                            f"{chunk.size_bytes} vs {expected:.1f} bytes"
                        )
        object.__setattr__(self, "avg_kbps", averages)
        rows = tuple(tuple(c.bitrate_kbps for c in t.chunks) for t in self.tracks)
        object.__setattr__(self, "rate_rows", rows)
        qualities = tuple(tuple(c.vmaf for c in t.chunks) for t in self.tracks)
        complete = not any(None in row for row in qualities)
        object.__setattr__(self, "quality_rows", qualities if complete else None)
        object.__setattr__(self, "_level_set", frozenset(range(1, len(self.tracks) + 1)))

    @property
    def n_levels(self) -> int:
        return len(self.tracks)

    @property
    def n_chunks(self) -> int:
        return len(self.tracks[0].chunks)

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(range(1, self.n_levels + 1))

    def _index(self, level: int) -> int:
        if not 1 <= level <= len(self.tracks):
            raise MediaError(f"level {level} outside 1..{self.n_levels}")
        return level - 1

    def check_levels(self, levels) -> None:
        """Raise `_index`'s MediaError for the first of `levels` outside 1..L; a
        decision checks its levels once here, then indexes the tables directly."""
        if not self._level_set.issuperset(levels):
            for level in levels:
                self._index(level)

    def track(self, level: int) -> Track:
        return self.tracks[self._index(level)]

    def chunk(self, level: int, index: int) -> ChunkMeta:
        return self.track(level).chunks[index]

    def bitrate_kbps(self, level: int, index: int) -> float:
        """Instantaneous bitrate of one chunk in kbps."""
        return self.rate_rows[self._index(level)][index]

    def avg_bitrate_kbps(self, level: int) -> float:
        """Whole-track average bitrate of one level, as `track_avg_bitrate`."""
        return self.avg_kbps[self._index(level)]

    def windowed_bitrate_kbps(self, level: int, start: int, window: int) -> float:
        """Mean chunk bitrate of one level over [start, start+window), truncated
        at video end."""
        row = self.rate_rows[self._index(level)]
        if not 0 <= start < len(row):
            raise MediaError("window start outside track")
        if window < 1:
            raise MediaError("window must be >= 1")
        span = row[start : start + window]
        return sum(span) / len(span)


def classify_chunks(manifest: VideoManifest, reference_level: int) -> tuple[int, ...]:
    """Per-position complexity quartile (1..4) by stable rank of reference-track size."""
    ref = manifest.track(reference_level)
    n = len(ref.chunks)
    if n < 4:
        raise MediaError("classification needs at least 4 chunks")
    order = sorted(range(n), key=lambda i: (ref.chunks[i].size_bytes, i))
    classes = [0] * n
    for rank, position in enumerate(order):
        classes[position] = 4 * rank // n + 1
    return tuple(classes)


_REQUIRED = object()


def _manifest_error(message: str) -> MediaError:
    # read_value's error hook: the prefix costs nothing on the ~10^4 reads that pass
    return MediaError(f"manifest field {message}")


def _field(raw: dict, key: str, kind, default=_REQUIRED):
    """raw[key] read as `kind` by `control.read_value`; an absent or null key
    gives `default` and is a MediaError without one."""
    value = raw.get(key)
    if value is None:
        if default is _REQUIRED:
            raise MediaError(f"manifest missing field {key!r}")
        return default
    return read_value(_manifest_error, key, value, kind)


def parse_manifest(text: str) -> VideoManifest:
    """Parse manifest JSON into a validated VideoManifest."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MediaError(f"manifest is not valid JSON: {exc}") from None
    raw = read_value(MediaError, "manifest", raw, dict)
    duration = _field(raw, "chunk_duration_s", float)
    tracks = tuple(
        Track(
            level=_field(t, "level", int),
            declared_bitrate_kbps=_field(t, "declared_bitrate_kbps", float),
            chunks=tuple(
                ChunkMeta(_field(c, "size_bytes", int), duration, _field(c, "vmaf", float, None))
                for c in _field(t, "chunks", [dict])
            ),
        )
        for t in _field(raw, "tracks", [dict])
    )
    return VideoManifest(
        name=_field(raw, "name", str, "video"),
        chunk_duration_s=duration,
        is_vbr=_field(raw, "is_vbr", bool),
        tracks=tracks,
    )
