"""Shared builders for synthetic traces and manifests used across test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from abrsim.media import BandwidthTrace, VideoManifest

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
    sizes = [[round(rate * 125 * duration_s)] * n_chunks for rate in bitrates_kbps]
    if vmafs is None:
        vmafs = [None] * len(bitrates_kbps)
    vmaf_rows = [[vmaf] * n_chunks for vmaf in vmafs]
    declared = [float(rate) for rate in bitrates_kbps]
    return VideoManifest(name, duration_s, False, declared, sizes, vmaf_rows)


def vbr_manifest(
    sizes_by_level,
    duration_s: float = 2.0,
    vmafs_by_level=None,
    declared_kbps=None,
    name: str = "vbr",
) -> VideoManifest:
    """VBR manifest from explicit per-level chunk sizes in bytes."""
    sizes = [[int(size) for size in row] for row in sizes_by_level]
    if declared_kbps is None:
        declared_kbps = [sum(row) * 8.0 / 1000.0 / (duration_s * len(row)) for row in sizes]
    if vmafs_by_level is None:
        vmafs_by_level = [[None] * len(row) for row in sizes]
    declared = [float(rate) for rate in declared_kbps]
    return VideoManifest(name, duration_s, True, declared, sizes, vmafs_by_level)
