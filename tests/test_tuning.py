"""Gain-grid sweeps, heat maps, and region extraction."""

from __future__ import annotations

import pytest

from _builders import cbr_manifest, constant_trace
from abrsim.control import damping_ratio, is_valid_gain_pair
from abrsim.engine import SimConfig
from abrsim.metrics import QoeWeights
from abrsim.schemes import ConfigError
from abrsim.tuning import GainGrid, HeatMap, extract_region, sweep_gains

# Reference operating band: kp 1e-3..14e-3, ki 1e-5..6e-5.
BAND_GRID = GainGrid(
    kp_values=tuple(0.001 + 0.0013 * i for i in range(11)),
    ki_values=tuple(1e-5 + 0.5e-5 * i for i in range(11)),
)

SWEEP_MANIFEST = cbr_manifest([400, 800], n_chunks=6)
SWEEP_GRID = GainGrid(kp_values=(0.0088, 0.02), ki_values=(3.6e-5,))
WEIGHTS = QoeWeights(mu=1.0, lam=0.8)


def heat_of(heatmap, i, j):
    return heatmap.heat[i][j]


# -- grid ----------------------------------------------------------------------


def test_grid_axes_must_increase():
    with pytest.raises(ConfigError):
        GainGrid(kp_values=(0.002, 0.002), ki_values=(1e-5,))
    with pytest.raises(ConfigError):
        GainGrid(kp_values=(0.002,), ki_values=(2e-5, 1e-5))


def test_grid_values_must_be_positive():
    with pytest.raises(ConfigError):
        GainGrid(kp_values=(0.0, 0.002), ki_values=(1e-5,))
    with pytest.raises(ConfigError):
        GainGrid(kp_values=(0.002,), ki_values=(-1e-5, 1e-5))


@pytest.mark.parametrize(
    "axes",
    [
        dict(kp_values=(float("nan"), 0.0088), ki_values=(3.6e-5,)),
        dict(kp_values=(0.0088, float("inf")), ki_values=(3.6e-5,)),
        dict(kp_values=(0.0088,), ki_values=(float("nan"), 3.6e-5)),
        dict(kp_values=(0.0088,), ki_values=(3.6e-5, float("inf"))),
    ],
    ids=["kp-nan", "kp-inf", "ki-nan", "ki-inf"],
)
def test_grid_values_must_be_finite(axes):
    with pytest.raises(ConfigError, match="finite"):
        GainGrid(**axes)


@pytest.mark.parametrize(
    "axes,name",
    [
        (dict(kp_values=("abc",), ki_values=(3.6e-5,)), "kp_values"),
        (dict(kp_values=(0.0088,), ki_values=(3.6e-5, "x")), "ki_values"),
        (dict(kp_values=(True,), ki_values=(3.6e-5,)), "kp_values"),
        (dict(kp_values=(0.0088,), ki_values=(False, 3.6e-5)), "ki_values"),
    ],
    ids=["kp-text", "ki-text", "kp-bool", "ki-bool"],
)
def test_grid_values_must_be_numbers(axes, name):
    with pytest.raises(ConfigError, match=f"each item of {name} must be a finite number"):
        GainGrid(**axes)


@pytest.mark.parametrize(
    "axes,name",
    [
        (dict(kp_values=(), ki_values=(3.6e-5,)), "kp"),
        (dict(kp_values=(0.0088,), ki_values=()), "ki"),
    ],
    ids=["kp", "ki"],
)
def test_grid_axes_must_not_be_empty(axes, name):
    with pytest.raises(ConfigError, match=f"{name} axis is empty"):
        GainGrid(**axes)


def test_grid_needs_one_valid_cell():
    # zeta = kp / (2 sqrt(ki)); these pairs sit far outside [0.6, 0.8].
    with pytest.raises(ConfigError):
        GainGrid(kp_values=(1.0, 2.0), ki_values=(1e-5,))


def test_grid_validity_matches_gain_rule():
    mask = BAND_GRID.validity()
    for i, kp in enumerate(BAND_GRID.kp_values):
        for j, ki in enumerate(BAND_GRID.ki_values):
            assert mask[i][j] == is_valid_gain_pair(kp, ki)


def test_reference_pair_is_inside_band_and_valid():
    assert BAND_GRID.kp_values[0] <= 8.8e-3 <= BAND_GRID.kp_values[-1]
    assert BAND_GRID.ki_values[0] <= 3.6e-5 <= BAND_GRID.ki_values[-1]
    assert is_valid_gain_pair(8.8e-3, 3.6e-5)


def test_valid_cells_all_sit_in_damping_band():
    mask = BAND_GRID.validity()
    for i, kp in enumerate(BAND_GRID.kp_values):
        for j, ki in enumerate(BAND_GRID.ki_values):
            if mask[i][j]:
                assert 0.6 <= damping_ratio(kp, ki) <= 0.8


# -- sweep ----------------------------------------------------------------------


def test_sweep_single_trace_flags_are_binary():
    traces = [constant_trace(1000.0, 30)]
    heatmap = sweep_gains(SWEEP_GRID, traces, SWEEP_MANIFEST, None, WEIGHTS, SimConfig())
    assert heatmap.trace_count == 1
    mask = SWEEP_GRID.validity()
    flat = [
        heat_of(heatmap, i, j)
        for i in range(len(SWEEP_GRID.kp_values))
        for j in range(len(SWEEP_GRID.ki_values))
        if mask[i][j]
    ]
    assert all(h in (0, 1) for h in flat)
    assert max(flat) == 1  # the per-trace best cell always passes its own cutoff


def test_sweep_invalid_cells_are_flagged_not_scored():
    traces = [constant_trace(1000.0, 30)]
    heatmap = sweep_gains(SWEEP_GRID, traces, SWEEP_MANIFEST, None, WEIGHTS, SimConfig())
    assert heatmap.valid[0][0] is True
    assert heatmap.valid[1][0] is False
    assert heatmap.heat[1][0] == 0


def test_sweep_heat_monotone_in_traces():
    traces = [constant_trace(1000.0, 30), constant_trace(500.0, 30)]
    one = sweep_gains(SWEEP_GRID, traces[:1], SWEEP_MANIFEST, None, WEIGHTS, SimConfig())
    two = sweep_gains(SWEEP_GRID, traces, SWEEP_MANIFEST, None, WEIGHTS, SimConfig())
    for i in range(len(SWEEP_GRID.kp_values)):
        for j in range(len(SWEEP_GRID.ki_values)):
            assert one.heat[i][j] <= two.heat[i][j]
            assert two.heat[i][j] <= two.trace_count


def test_sweep_identical_cells_all_reach_trace_count():
    # With the first chunk pinned and a fat link every gain pair plays the top
    # level, so every valid cell ties the per-trace best and gets flagged.
    grid = GainGrid(kp_values=(0.0080, 0.0088), ki_values=(3.6e-5,))
    traces = [constant_trace(100000.0, 30), constant_trace(100000.0, 30)]
    config = SimConfig(first_chunk_level=1)
    heatmap = sweep_gains(grid, traces, SWEEP_MANIFEST, None, WEIGHTS, config)
    mask = grid.validity()
    for i in range(2):
        if mask[i][0]:
            assert heatmap.heat[i][0] == heatmap.trace_count


@pytest.mark.parametrize(
    "traces,jobs,message",
    [([], 1, "sweep needs at least one trace"), ([constant_trace(1000.0, 30)], 0, "jobs must be >= 1")],
    ids=["no-traces", "jobs-0"],
)
def test_sweep_rejects_bad_arguments(traces, jobs, message):
    with pytest.raises(ConfigError, match=message):
        sweep_gains(SWEEP_GRID, traces, SWEEP_MANIFEST, None, WEIGHTS, SimConfig(), jobs=jobs)


def test_sweep_jobs_do_not_change_results():
    traces = [constant_trace(1000.0, 30), constant_trace(600.0, 30)]
    seq = sweep_gains(SWEEP_GRID, traces, SWEEP_MANIFEST, None, WEIGHTS, SimConfig())
    par = sweep_gains(SWEEP_GRID, traces, SWEEP_MANIFEST, None, WEIGHTS, SimConfig(), jobs=2)
    assert seq.heat == par.heat
    assert seq.valid == par.valid
    # no config is the default SimConfig
    assert sweep_gains(SWEEP_GRID, traces, SWEEP_MANIFEST, None, WEIGHTS) == seq


def test_heatmap_csv_layout():
    traces = [constant_trace(1000.0, 30)]
    heatmap = sweep_gains(SWEEP_GRID, traces, SWEEP_MANIFEST, None, WEIGHTS, SimConfig())
    lines = heatmap.to_csv().strip().split("\n")
    assert lines[0] == "kp,ki,valid,heat"
    assert len(lines) == 1 + 2 * 1
    kp, ki, valid, heat = lines[1].split(",")
    assert float(kp) == 0.0088
    assert float(ki) == 3.6e-5
    assert valid in ("0", "1")
    assert heat.isdigit()


# -- region extraction -----------------------------------------------------------


def hand_map(heat, valid=None, trace_count=10):
    rows = len(heat)
    cols = len(heat[0])
    if valid is None:
        valid = [[True] * cols for _ in range(rows)]
    return HeatMap(
        kp_values=tuple(0.001 * (i + 1) for i in range(rows)),
        ki_values=tuple(1e-5 * (j + 1) for j in range(cols)),
        valid=tuple(tuple(row) for row in valid),
        heat=tuple(tuple(row) for row in heat),
        trace_count=trace_count,
    )


def test_region_single_hot_cell():
    hm = hand_map([[0, 0], [0, 10]])
    region = extract_region(hm, min_mean_heat=0.9)
    assert region is not None
    assert region.rows == (1, 1)
    assert region.cols == (1, 1)
    assert region.mean_heat == 10.0
    assert region.kp_range == (hm.kp_values[1], hm.kp_values[1])


def test_region_grows_to_full_grid_on_uniform_heat():
    hm = hand_map([[10, 10, 10], [10, 10, 10]])
    region = extract_region(hm, min_mean_heat=0.9)
    assert region.rows == (0, 1)
    assert region.cols == (0, 2)
    assert region.mean_heat == 10.0


def test_region_stops_at_invalid_cells():
    hm = hand_map(
        [[10, 0], [10, 0]],
        valid=[[True, False], [True, False]],
    )
    region = extract_region(hm, min_mean_heat=0.9)
    assert region.rows == (0, 1)
    assert region.cols == (0, 0)


def test_region_respects_mean_threshold():
    hm = hand_map([[10, 2], [2, 2]])
    region = extract_region(hm, min_mean_heat=0.9)
    assert region.rows == (0, 0)
    assert region.cols == (0, 0)
    assert region.mean_heat == 10.0


def test_region_contains_max_heat_cell():
    hm = hand_map([[3, 9], [10, 9], [2, 9]])
    region = extract_region(hm, min_mean_heat=0.5)
    assert region.rows[0] <= 1 <= region.rows[1]
    assert region.cols[0] <= 0 <= region.cols[1]


def test_region_none_when_nothing_qualifies():
    hm = hand_map([[3, 3], [3, 3]])
    assert extract_region(hm, min_mean_heat=0.9) is None


def test_region_none_when_no_valid_cells():
    hm = hand_map([[10]], valid=[[False]])
    assert extract_region(hm, min_mean_heat=0.9) is None


def test_heatmap_shape_validation():
    with pytest.raises(ConfigError):
        HeatMap(
            kp_values=(0.001,),
            ki_values=(1e-5, 2e-5),
            valid=((True,),),
            heat=((1,),),
            trace_count=1,
        )
    with pytest.raises(ConfigError):
        HeatMap(
            kp_values=(0.001,),
            ki_values=(1e-5,),
            valid=((True,),),
            heat=((5,),),
            trace_count=1,
        )


@pytest.mark.parametrize(
    "shape,message",
    [
        (dict(valid=((True,), (True,)), heat=((1,),), trace_count=1),
         "valid must have one row per kp value"),
        (dict(valid=((True,),), heat=((1,), (1,)), trace_count=1),
         "heat must have one row per kp value"),
        (dict(valid=((True,),), heat=((0,),), trace_count=-1), "trace count must be >= 0"),
    ],
    ids=["valid-rows", "heat-rows", "negative-trace-count"],
)
def test_heatmap_rejects_bad_shape(shape, message):
    with pytest.raises(ConfigError, match=message):
        HeatMap(kp_values=(0.001,), ki_values=(1e-5,), **shape)
