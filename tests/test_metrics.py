"""QoE scoring and session metric reports."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _builders import cbr_manifest, constant_trace
from abrsim.engine import Decision, SessionLog, SimConfig, simulate_session
from abrsim.metrics import (
    LOW_QUALITY_VMAF,
    MetricsReport,
    QoeWeights,
    default_weights,
    qoe_score,
    session_metrics,
)
from abrsim.schemes import ConfigError, RateBased


def make_log(bitrates_kbps, stalls=None, vmafs=None, bytes_each=250000, stall_total=None):
    n = len(bitrates_kbps)
    stalls = stalls if stalls is not None else [0.0] * n
    decisions = tuple(
        Decision(
            chunk=i,
            level=1,
            bitrate_kbps=float(bitrates_kbps[i]),
            vmaf=None if vmafs is None else float(vmafs[i]),
            dl_start_s=2.0 * i,
            dl_end_s=2.0 * i + 1.0,
            buffer_s=10.0,
            est_kbps=3000.0,
            u=None,
            stall_s=float(stalls[i]),
        )
        for i in range(n)
    )
    total = sum(stalls) if stall_total is None else stall_total
    return SessionLog(
        scheme_name="test",
        trace_name="trace",
        manifest_name="manifest",
        chunk_duration_s=2.0,
        decisions=decisions,
        stalls=(),
        startup_latency_s=0.8,
        end_clock_s=2.0 * n,
        play_time_s=2.0 * n - 0.8,
        final_buffer_s=2.0,
        stall_total_s=total,
        bytes_downloaded=bytes_each * n,
    )


# -- QoE score ---------------------------------------------------------------


def test_qoe_hand_case():
    # Mbps terms: 1+2+2 = 5; changes |2-1| = 1; stalls 1 s at weight 3.
    log = make_log([1000.0, 2000.0, 2000.0], stalls=[0.0, 1.0, 0.0])
    assert qoe_score(log, QoeWeights(mu=1.0, lam=3.0)) == 1.0


def test_qoe_single_chunk_is_bitrate():
    log = make_log([2500.0])
    assert qoe_score(log, QoeWeights(mu=5.0, lam=7.0)) == 2.5


def test_qoe_zero_weights_is_bitrate_sum():
    log = make_log([1000.0, 3000.0, 500.0], stalls=[2.0, 0.0, 1.0])
    assert qoe_score(log, QoeWeights(mu=0.0, lam=0.0)) == 4.5


def test_qoe_weights_validated():
    with pytest.raises(ConfigError):
        QoeWeights(mu=-0.1, lam=1.0)
    with pytest.raises(ConfigError):
        QoeWeights(mu=1.0, lam=-2.0)


@pytest.mark.parametrize(
    "kw",
    [
        dict(mu=float("nan"), lam=1.0),
        dict(mu=float("inf"), lam=1.0),
        dict(mu=1.0, lam=float("nan")),
        dict(mu=1.0, lam=float("inf")),
    ],
    ids=["mu-nan", "mu-inf", "lam-nan", "lam-inf"],
)
def test_qoe_weights_reject_non_finite(kw):
    with pytest.raises(ConfigError, match="finite"):
        QoeWeights(**kw)


def test_default_weights_use_ladder_max():
    manifest = cbr_manifest([350, 1000, 3000])
    w = default_weights(manifest)
    assert w.mu == 1.0
    assert w.lam == 3.0


@settings(max_examples=60, deadline=None)
@given(
    rates=st.lists(st.floats(100.0, 10000.0), min_size=1, max_size=8),
    stalls_seed=st.lists(st.floats(0.0, 10.0), min_size=8, max_size=8),
    mu=st.floats(0.0, 10.0),
    lam=st.floats(0.0, 10.0),
)
def test_qoe_affine_in_weights(rates, stalls_seed, mu, lam):
    stalls = stalls_seed[: len(rates)]
    log = make_log(rates, stalls=stalls)
    base = qoe_score(log, QoeWeights(mu=0.0, lam=0.0))
    mbps = [r / 1000.0 for r in rates]
    change = sum(abs(b - a) for a, b in zip(mbps, mbps[1:]))
    expected = base - mu * change - lam * sum(stalls)
    assert math.isclose(qoe_score(log, QoeWeights(mu=mu, lam=lam)), expected, abs_tol=1e-9)


# -- session report ----------------------------------------------------------


def test_report_quality_fields_frozen():
    log = make_log([1000.0] * 4, vmafs=[80.0, 80.0, 50.0, 80.0])
    manifest = cbr_manifest([500, 1000])
    report = session_metrics(log, manifest, target_quality=80.0)
    assert report.avg_quality_dev == 7.5
    assert report.pct_low_quality == 0.25
    assert report.avg_quality_change == 20.0


def test_report_data_usage_exact():
    log = make_log([1000.0] * 4, bytes_each=250000)
    report = session_metrics(log, cbr_manifest([500, 1000]))
    assert report.data_usage_mb == 1.0


def test_report_bitrate_fields():
    log = make_log([1000.0, 2000.0, 500.0])
    report = session_metrics(log, cbr_manifest([500, 1000]))
    assert report.avg_bitrate_kbps == pytest.approx(3500.0 / 3.0)
    assert report.avg_bitrate_change_kbps == 1250.0


def test_report_single_chunk_changes_zero():
    log = make_log([2000.0], vmafs=[90.0])
    report = session_metrics(log, cbr_manifest([500, 1000]), target_quality=80.0)
    assert report.avg_bitrate_change_kbps == 0.0
    assert report.avg_quality_change == 0.0
    assert report.avg_quality_dev == 10.0


def test_report_missing_vmaf_nulls_quality_fields():
    log = make_log([1000.0] * 3)
    report = session_metrics(log, cbr_manifest([500, 1000]), target_quality=80.0)
    assert report.avg_quality_dev is None
    assert report.pct_low_quality is None
    assert report.avg_quality_change is None


def test_report_no_target_nulls_deviation_only():
    log = make_log([1000.0] * 2, vmafs=[70.0, 90.0])
    report = session_metrics(log, cbr_manifest([500, 1000]))
    assert report.avg_quality_dev is None
    assert report.pct_low_quality == 0.0
    assert report.avg_quality_change == 20.0


def test_report_low_quality_threshold():
    assert LOW_QUALITY_VMAF == 60.0
    log = make_log([1000.0] * 2, vmafs=[59.9, 60.0])
    report = session_metrics(log, cbr_manifest([500, 1000]))
    assert report.pct_low_quality == 0.5


def test_report_stall_and_startup_come_from_log():
    log = make_log([1000.0] * 3, stalls=[0.0, 2.5, 0.0])
    report = session_metrics(log, cbr_manifest([500, 1000]))
    assert report.total_stall_s == 2.5
    assert report.startup_latency_s == 0.8


def _empty_log():
    log = make_log([1000.0])
    return SessionLog(
        scheme_name=log.scheme_name,
        trace_name=log.trace_name,
        manifest_name=log.manifest_name,
        chunk_duration_s=log.chunk_duration_s,
        decisions=(),
        stalls=(),
        startup_latency_s=0.0,
        end_clock_s=0.0,
        play_time_s=0.0,
        final_buffer_s=0.0,
        stall_total_s=0.0,
        bytes_downloaded=0,
    )


def test_report_rejects_empty_log():
    with pytest.raises(ConfigError):
        session_metrics(_empty_log(), cbr_manifest([500, 1000]))


def test_qoe_rejects_empty_log():
    with pytest.raises(ConfigError, match="session log has no decisions"):
        qoe_score(_empty_log(), QoeWeights(mu=1.0, lam=1.0))


def test_report_csv_round_trip():
    log = make_log([1000.0, 2000.0], vmafs=[70.0, 90.0])
    report = session_metrics(log, cbr_manifest([500, 1000]), target_quality=80.0)
    text = report.to_csv()
    header, row = text.strip().split("\n")
    names = header.split(",")
    values = row.split(",")
    assert len(names) == len(values)
    assert "avg_bitrate_kbps" in names
    assert "total_stall_s" in names
    assert "data_usage_mb" in names
    assert "qoe_mbps" in names
    parsed = dict(zip(names, values))
    assert float(parsed["avg_bitrate_kbps"]) == report.avg_bitrate_kbps
    assert float(parsed["avg_quality_dev_vmaf"]) == report.avg_quality_dev


def test_report_csv_nulls_are_empty_fields():
    log = make_log([1000.0])
    report = session_metrics(log, cbr_manifest([500, 1000]))
    header, row = report.to_csv().strip().split("\n")
    parsed = dict(zip(header.split(","), row.split(",")))
    assert parsed["avg_quality_dev_vmaf"] == ""
    assert parsed["pct_low_quality"] == ""


def test_report_json_round_trip():
    log = make_log([1000.0, 2000.0], vmafs=[70.0, 90.0])
    report = session_metrics(log, cbr_manifest([500, 1000]), target_quality=80.0)
    data = json.loads(report.to_json())
    assert data["avg_bitrate_kbps"] == report.avg_bitrate_kbps
    assert data["qoe"] == report.qoe
    assert data["qoe_unit"] == "Mbps"


def test_report_explicit_weights_flow_into_qoe():
    log = make_log([1000.0, 2000.0], stalls=[0.0, 1.0])
    manifest = cbr_manifest([500, 1000])
    loose = session_metrics(log, manifest, weights=QoeWeights(mu=0.0, lam=0.0))
    harsh = session_metrics(log, manifest, weights=QoeWeights(mu=1.0, lam=10.0))
    assert loose.qoe == 3.0
    assert harsh.qoe == 3.0 - 1.0 - 10.0


# -- end to end with the simulator -------------------------------------------


def test_report_from_simulated_session():
    manifest = cbr_manifest([400, 800, 1600], n_chunks=6, vmafs=[50.0, 75.0, 92.0])
    trace = constant_trace(2000.0, 40)
    log = simulate_session(RateBased(), trace, manifest, SimConfig())
    report = session_metrics(log, manifest, target_quality=80.0)
    assert report.data_usage_mb == log.bytes_downloaded / 1e6
    assert report.total_stall_s == log.stall_total_s
    assert report.avg_quality_dev is not None
    assert math.isfinite(report.qoe)


def test_chunk_stalls_reconcile_with_session_total():
    # Underprovisioned link forces stalls; per-chunk attribution must re-add
    # to the session accumulator.
    manifest = cbr_manifest([400, 800], n_chunks=8)
    trace = constant_trace(300.0, 30)
    config = SimConfig(startup_kind="latency", startup_value=1.0)
    log = simulate_session(RateBased(), trace, manifest, config)
    assert log.stall_total_s > 0.0
    chunk_sum = sum(d.stall_s for d in log.decisions)
    assert abs(chunk_sum - log.stall_total_s) <= 1e-9


def test_report_fields_non_negative_on_simulated_run():
    manifest = cbr_manifest([400, 800], n_chunks=5)
    trace = constant_trace(600.0, 30)
    log = simulate_session(RateBased(), trace, manifest, SimConfig())
    report = session_metrics(log, manifest)
    assert report.avg_bitrate_kbps >= 0.0
    assert report.avg_bitrate_change_kbps >= 0.0
    assert report.total_stall_s >= 0.0
    assert report.data_usage_mb >= 0.0
    assert report.startup_latency_s >= 0.0
