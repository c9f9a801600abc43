"""Smoke tests for the benchmark: tiny shapes through every workload, both modes."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(run.__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
DESIGN = json.loads((run.BENCH / "design.json").read_text())


@pytest.fixture(autouse=True)
def program():
    """Put this checkout's abrsim and the benchmark's modules on sys.path."""
    run.load_program()


def _smoke(workload: str, trace: int, capsys) -> tuple[list[str], dict]:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, capsys):
    lines, result = _smoke(workload, trace, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    printed = [*declared, {"name": run.ERROR_RATE[0], "unit": run.ERROR_RATE[1]}]
    for metric in printed:
        prefix = f"{workload} {metric['name']} = "
        assert any(
            line.startswith(prefix) and f" {metric['unit']}" in line for line in lines
        ), metric["name"]


def test_traced_run_accounts_for_sessions_and_counts_mpc_exactly(capsys):
    lines, result = _smoke("planners", 1, capsys)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    # 4-chunk manifest, 6 levels: 6^4 + 6^3 + 6^2 + 6 per session, 2 schemes x 2 traces
    assert metrics["schemes.mpc_evals"] == 4 * (6**4 + 6**3 + 6**2 + 6)
    assert metrics["engine.walk_s"] > 0 and metrics["metrics.offline_optimal_s"] > 0
    assert any("spans outside a session: 0" in line for line in lines)


def test_missing_call_site_is_reported_absent_not_as_an_error(monkeypatch, capsys):
    import abrsim.cli

    monkeypatch.delattr(abrsim.cli, "extract_region")
    lines, result = _smoke("planners", 1, capsys)
    assert result["correct"]
    assert "planners tuning.extract_region_s = absent s" in lines


def test_gate_counts_rows_that_differ_from_digests_or_first_pass():
    from gate import Gate, row_digest

    good = ["h", "a,t0,1", "b,t0,2"]
    gate = Gate("sweep", 2, [row_digest(line) for line in ["h", "a,t0,1", "b,t0,9"]])
    gate.check(good)
    gate.check(["h", "a,t0,1", "b,t0,3"])
    gate.check(None, error="boom")
    assert (gate.attempted, gate.failed) == (6, 1 + 1 + 2)


def test_gate_checks_captured_cells_against_their_rows():
    from gate import Gate
    from spans import Capture

    capture = Capture()
    capture.rows = ["rb,t0,1.0", "rba,t0,5.0"]
    gate = Gate("compare", 2, None)
    gate.check(["scheme,trace,x", "rb,t0,1.0", "rba,t0,2.0"], capture)
    assert (gate.attempted, gate.failed) == (2, 1)


def test_design_record_matches_the_code():
    from inputs import SHAPES, describe

    assert [w["name"] for w in CONTRACT["workloads"]] == list(run.WORKLOADS)
    for name in run.WORKLOADS:
        assert DESIGN["workloads"][name]["inputs"] == describe(SHAPES[name])
    assert set(DESIGN["predictions"]) == {m["name"] for m in CONTRACT["per_layer"]}
    assert [(m["name"], m["unit"]) for m in CONTRACT["per_layer"]] == [
        (name, unit) for name, unit, _ in run.PER_LAYER
    ]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", "planners", "--smoke"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
