"""Shared builders for synthetic traces and manifests used across test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from abrsim.media import BandwidthTrace, ChunkMeta, Track, VideoManifest

# any JSON value: scalars (NaN, inf and big integers included) and small nests of them
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def constant_trace(kbps: float, seconds: int, name: str = "const") -> BandwidthTrace:
    return BandwidthTrace(name, (float(kbps),) * seconds)


def cbr_manifest(
    bitrates_kbps,
    duration_s: float = 2.0,
    n_chunks: int = 3,
    vmafs=None,
    name: str = "cbr",
) -> VideoManifest:
    """CBR manifest with exact sizes; vmafs is an optional per-level list."""
    tracks = []
    for idx, rate in enumerate(bitrates_kbps):
        vmaf = None if vmafs is None else vmafs[idx]
        size = round(rate * 125 * duration_s)
        chunks = tuple(ChunkMeta(size, duration_s, vmaf) for _ in range(n_chunks))
        tracks.append(Track(idx + 1, float(rate), chunks))
    return VideoManifest(name, duration_s, False, tuple(tracks))


def vbr_manifest(
    sizes_by_level,
    duration_s: float = 2.0,
    vmafs_by_level=None,
    declared_kbps=None,
    name: str = "vbr",
) -> VideoManifest:
    """VBR manifest from explicit per-level chunk sizes in bytes."""
    tracks = []
    for idx, sizes in enumerate(sizes_by_level):
        if declared_kbps is not None:
            declared = float(declared_kbps[idx])
        else:
            declared = sum(sizes) * 8.0 / 1000.0 / (duration_s * len(sizes))
        chunks = []
        for pos, size in enumerate(sizes):
            vmaf = None if vmafs_by_level is None else vmafs_by_level[idx][pos]
            chunks.append(ChunkMeta(int(size), duration_s, vmaf))
        tracks.append(Track(idx + 1, declared, tuple(chunks)))
    return VideoManifest(name, duration_s, True, tuple(tracks))
