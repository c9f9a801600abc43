"""abrsim benchmark: three CLI workloads, end-to-end metrics and a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload online-grid --seed 1 --seconds 30 --trace 0

Each run writes the workload's seeded inputs under `.bench_run/`, then drives
the real CLI in-process (`abrsim.cli.main`) as a closed loop: one job at a time,
the next one starting when the previous one returns, never more pool workers
than the workload's `jobs`. The first job is an untimed warm-up whose results
the correctness gate checks; later jobs must reproduce it byte for byte.

With `--trace 0` the timed jobs run with no instrumentation and the last line
of stdout is a JSON object with the end-to-end metrics. With `--trace 1` each
round runs the job with coarse spans, then with every span (see `spans.py`),
and the JSON object holds the per-layer metrics, as medians over rounds.
`--smoke` swaps in tiny input shapes so the benchmark's own tests run quickly.
`--record-digests` rewrites `digests.json` from the current program.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
DIGESTS = BENCH / "digests.json"

WORKLOADS = ("online-grid", "planners", "gain-sweep")
DEFAULT_SEED = 1
MIN_TIMED_JOBS = 3
SETUP_REPEATS = 7
SCHEME_NAMES = ("rb", "bba0", "rba", "mpc", "robustmpc", "pia", "piae", "cava", "quad")

# name, unit; error_rate is printed but left out of the JSON metrics because it
# is 0 on a correct program (the JSON's attempted/failed carry it instead).
END_TO_END = (
    ("setup_s", "s"),
    ("job_s", "s"),
    ("sim_chunks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
ERROR_RATE = ("error_rate", "ratio")

# name, unit, patch site whose absence makes the metric absent
PER_LAYER = (
    ("media.parse_manifest_s", "s", "abrsim.cli.parse_manifest"),
    ("media.parse_trace_s", "s", "abrsim.cli.parse_trace"),
    ("media.chunks_parsed", "count", "abrsim.cli.parse_manifest"),
    ("media.classify_chunks_s", "s", "abrsim.cli.classify_chunks"),
    ("control.observe_interval_s", "s", "abrsim.cli.simulate_session"),
    ("control.observe_interval_calls", "count", "abrsim.cli.simulate_session"),
    *((f"schemes.decide_s.{name}", "s", "abrsim.cli.simulate_session") for name in SCHEME_NAMES),
    ("schemes.decisions", "count", "abrsim.cli.simulate_session"),
    ("schemes.filter_s", "s", "abrsim.cli.allowed_from_filter"),
    ("schemes.filter_calls", "count", "abrsim.cli.allowed_from_filter"),
    ("schemes.mpc_evals", "count", "abrsim.cli.simulate_session"),
    ("schemes.pid_evals", "count", "abrsim.cli.simulate_session"),
    ("engine.sessions", "count", "abrsim.cli.simulate_session"),
    ("engine.chunks", "count", "abrsim.cli.simulate_session"),
    ("engine.intervals", "count", "abrsim.cli.simulate_session"),
    ("engine.walk_s", "s", "abrsim.cli.simulate_session"),
    ("engine.walk_us_per_interval", "us", "abrsim.cli.simulate_session"),
    ("engine.advance_download_s", "s", "abrsim.metrics.advance_download"),
    ("engine.advance_download_calls", "count", "abrsim.metrics.advance_download"),
    ("metrics.session_metrics_s", "s", "abrsim.cli.session_metrics"),
    ("metrics.qoe_score_s", "s", "abrsim.tuning.qoe_score"),
    ("metrics.offline_optimal_s", "s", "abrsim.cli.offline_optimal"),
    ("metrics.offline_optimal_self_s", "s", "abrsim.metrics.advance_download"),
    ("tuning.sweep_s", "s", "abrsim.cli.sweep_gains"),
    ("tuning.sweep_serial_s", "s", "abrsim.cli.sweep_gains"),
    ("tuning.cells", "count", "abrsim.tuning.simulate_session"),
    ("tuning.cell_s", "s", "abrsim.tuning.simulate_session"),
    ("tuning.parallel_efficiency", "ratio", "abrsim.cli.sweep_gains"),
    ("tuning.extract_region_s", "s", "abrsim.cli.extract_region"),
    ("cli.overhead_s", "s", None),
    ("cli.output_bytes", "bytes", None),
    ("bench.trace_overhead_s", "s", None),
)


# ------------------------------------------------------------------- program


def load_program() -> None:
    """Import abrsim from this checkout's `src/`, or exit non-zero without a result."""
    if not (SRC / "abrsim" / "cli.py").is_file():
        raise SystemExit(f"error: no program at {SRC / 'abrsim'}; run from a full checkout")
    for path in (str(BENCH), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import abrsim

    if Path(abrsim.__file__).resolve().parent != (SRC / "abrsim").resolve():
        raise SystemExit(f"error: imported abrsim from {abrsim.__file__}, not from {SRC}")


class Job:
    """One workload's CLI job over its written inputs."""

    def __init__(self, inputs, command: str) -> None:
        self.inputs = inputs
        self.command = command
        name = "compare.csv" if command == "compare" else "heatmap.csv"
        self.output = inputs.out_dir / name

    def run(self, jobs: int):
        """(wall seconds, output lines or None, output bytes, error text or None)."""
        import abrsim.cli

        argv = [self.command, "--config", str(self.inputs.config), "--jobs", str(jobs)]
        if self.output.exists():
            self.output.unlink()
        sink = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = abrsim.cli.main(argv)
        except Exception:  # a failing job is counted by the gate, never fatal
            code = None
            error = traceback.format_exc().strip().splitlines()[-1]
        wall = time.perf_counter() - start
        if code != 0 or not self.output.is_file():
            return wall, None, 0, error or f"job exited with {code}: {sink.getvalue().strip()}"
        return wall, self.output.read_text().splitlines(), self.output.stat().st_size, None


def setup_probe(inputs) -> tuple[float, bool]:
    """Seconds from spawning a fresh interpreter to its inputs being parsed
    (import the CLI, parse manifest and traces), and whether the probe succeeded."""
    probe = [
        sys.executable,
        "-I",
        str(BENCH / "setup_probe.py"),
        str(SRC),
        str(inputs.manifest),
        *map(str, inputs.traces),
    ]
    start = time.monotonic()
    done = subprocess.run(probe, capture_output=True, text=True, timeout=120)
    try:
        parsed_at = float(done.stdout.strip())
    except ValueError:
        parsed_at = time.monotonic()
    return parsed_at - start, done.returncode == 0


def peak_rss_mb(largest_child_kib: int) -> float:
    """Peak RSS of this process plus that of its largest pool worker, in MiB."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + largest_child_kib) / 1024.0


# --------------------------------------------------------------------- runs


def end_to_end(job, shape, gate, warm, seconds: float) -> tuple[dict[str, float], dict]:
    times, probes = [], []
    pool_kib = None
    start = time.perf_counter()
    while len(times) < MIN_TIMED_JOBS or time.perf_counter() - start < seconds:
        wall, lines, _, error = job.run(shape.jobs)
        gate.check(lines, error=error)
        times.append(wall)
        if pool_kib is None:  # pool workers only: the set-up probes are children too
            pool_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        # One probe between jobs, so set-up is sampled over the same stretch of time.
        probes.append(setup_probe(job.inputs))
    while len(probes) < SETUP_REPEATS:
        probes.append(setup_probe(job.inputs))
    if not all(ok for _, ok in probes):
        gate.check(None, error="set-up probe failed")
    job_s = statistics.median(times)
    metrics = {
        "setup_s": statistics.median(t for t, _ in probes),
        "job_s": job_s,
        "sim_chunks_per_s": warm.capture.chunks / job_s,
        "peak_rss_mb": peak_rss_mb(pool_kib),
    }
    return metrics, {"job_times": times}


def traced_round(job, shape, gate, absent: set[str]) -> tuple[dict[str, float], float, int]:
    """One coarse-span job, one fully traced serial job, and for pooled jobs a
    coarse serial job, so the traced job has an equal-shape baseline.

    Returns the per-layer metrics, the traced job's wall time, and the number
    of scheme-hook spans not nested in a session (the engine accounting check)."""
    from spans import Tracer, aggregate, top_level_seconds, unaccounted_children

    with Tracer(hot=False, record=True) as coarse:
        wall, lines, out_bytes, error = job.run(shape.jobs)
    gate.check(lines, coarse.capture, error)
    if shape.jobs > 1:
        with Tracer(hot=False, record=True) as serial:
            serial_wall, lines, _, error = job.run(1)
        gate.check(lines, serial.capture, error)
    else:
        serial, serial_wall = coarse, wall
    with Tracer(hot=True, record=True) as full:
        full_wall, lines, _, error = job.run(1)
    gate.check(lines, full.capture, error)
    absent.update(coarse.absent + full.absent)

    spans = aggregate(full.spans)
    coarse_spans = aggregate(coarse.spans)
    serial_spans = aggregate(serial.spans)

    def field(table, name, key="total"):
        return table.get(name, {}).get(key, 0)

    def over(prefix, key="total"):
        return sum(row[key] for name, row in spans.items() if name.startswith(prefix))

    intervals = over("observe_interval:", "calls")
    walk = field(spans, "simulate_session", "self")
    sweep = field(coarse_spans, "sweep_gains")
    sweep_serial = field(serial_spans, "sweep_gains")
    cells = sum(
        1
        for name, _, _, parent in full.spans
        if name == "simulate_session" and parent >= 0 and full.spans[parent][0] == "sweep_gains"
    )
    capture = full.capture
    metrics = {
        "media.parse_manifest_s": field(spans, "parse_manifest"),
        "media.parse_trace_s": field(spans, "parse_trace"),
        "media.chunks_parsed": capture.chunks_parsed,
        "media.classify_chunks_s": field(spans, "classify_chunks"),
        "control.observe_interval_s": over("observe_interval:"),
        "control.observe_interval_calls": intervals,
    }
    for name in SCHEME_NAMES:
        metrics[f"schemes.decide_s.{name}"] = field(spans, f"decide:{name}")
    metrics.update(
        {
            "schemes.decisions": sum(field(spans, f"decide:{n}", "calls") for n in SCHEME_NAMES),
            "schemes.filter_s": field(spans, "allowed_from_filter"),
            "schemes.filter_calls": field(spans, "allowed_from_filter", "calls"),
            "schemes.mpc_evals": capture.mpc_evals,
            "schemes.pid_evals": capture.pid_evals,
            "engine.sessions": field(spans, "simulate_session", "calls"),
            "engine.chunks": capture.chunks,
            "engine.intervals": intervals,
            "engine.walk_s": walk,
            "engine.walk_us_per_interval": walk / intervals * 1e6 if intervals else 0.0,
            "engine.advance_download_s": field(spans, "advance_download"),
            "engine.advance_download_calls": field(spans, "advance_download", "calls"),
            "metrics.session_metrics_s": field(spans, "session_metrics"),
            "metrics.qoe_score_s": field(spans, "qoe_score"),
            "metrics.offline_optimal_s": field(spans, "offline_optimal"),
            "metrics.offline_optimal_self_s": field(spans, "offline_optimal", "self"),
            "tuning.sweep_s": sweep,
            "tuning.sweep_serial_s": sweep_serial,
            "tuning.cells": cells,
            "tuning.cell_s": sweep_serial / cells if cells else 0.0,
            "tuning.parallel_efficiency": sweep_serial / (shape.jobs * sweep) if sweep else 0.0,
            "tuning.extract_region_s": field(coarse_spans, "extract_region"),
            "cli.overhead_s": wall - top_level_seconds(coarse.spans),
            "cli.output_bytes": out_bytes,
            "bench.trace_overhead_s": full_wall - serial_wall,
        }
    )
    return metrics, full_wall, unaccounted_children(full.spans)


def per_layer(job, shape, gate, seconds: float) -> tuple[dict[str, float], dict]:
    rounds, walls, outside = [], [], 0
    absent: set[str] = set()
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        metrics, wall, stray = traced_round(job, shape, gate, absent)
        rounds.append(metrics)
        walls.append(wall)
        outside = max(outside, stray)
    medians = {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
    extra = {
        "rounds": len(rounds),
        "wall": statistics.median(walls),
        "outside": outside,
        "absent": absent,
    }
    return medians, extra


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    # The benchmark's own modules import abrsim, so they load after load_program().
    from gate import Gate
    from inputs import SHAPES, SMOKE_SHAPES, write_inputs
    from spans import Tracer

    shape = (SMOKE_SHAPES if smoke else SHAPES)[workload]
    workdir = WORK / f"{workload}-{os.getpid()}"
    try:
        inputs = write_inputs(workload, seed, workdir, smoke)
        digests = None
        if seed == DEFAULT_SEED and not smoke and DIGESTS.is_file():
            digests = json.loads(DIGESTS.read_text()).get(workload)
        gate = Gate(shape.command, inputs.expected_rows, digests)
        job = Job(inputs, shape.command)
        # Untimed warm-up at one worker, so every session runs in this process
        # and the gate sees its results.
        with Tracer(hot=True, record=False) as warm:
            _, lines, _, error = job.run(1)
        gate.check(lines, warm.capture, error)
        if trace:
            metrics, extra = per_layer(job, shape, gate, seconds)
        else:
            metrics, extra = end_to_end(job, shape, gate, warm, seconds)
        return metrics, gate, extra, lines
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def report(workload, seed, trace, metrics, gate, extra) -> dict:
    absent = extra.get("absent", set())
    units = {name: unit for name, unit, *_ in (PER_LAYER if trace else END_TO_END)}
    sites = {name: site for name, _, site in PER_LAYER}
    print(f"# workload {workload}, seed {seed}, trace {int(trace)}, nproc {os.cpu_count()}, "
          f"python {platform.python_version()}")
    for name, unit in units.items():
        shown = "absent" if sites.get(name) in absent else f"{metrics[name]:.6g}"
        print(f"{workload} {name} = {shown} {unit}")
    error_rate = gate.failed / gate.attempted
    print(f"{workload} {ERROR_RATE[0]} = {error_rate:.6g} {ERROR_RATE[1]} "
          f"({gate.failed} of {gate.attempted} rows)")
    for note in list(gate.notes)[:10]:
        print(f"# gate: {note}")
    if "job_times" in extra:
        times = extra["job_times"]
        quartiles = statistics.quantiles(times, n=4)
        print(f"# job_s over {len(times)} timed jobs: quartiles "
              + " / ".join(f"{q:.3f}" for q in quartiles) + " s")
    mpc = metrics.get("schemes.decide_s.mpc", 0) + metrics.get("schemes.decide_s.robustmpc", 0)
    dp = metrics.get("metrics.offline_optimal_s", 0)
    if mpc or dp:
        wall = extra["wall"]
        print(f"# planners split, fully traced job {wall:.3f} s: mpc+robustmpc decide {mpc:.3f} s "
              f"({mpc / wall:.0%}), offline DP {dp:.3f} s ({dp / wall:.0%})")
    if trace:
        print(f"# {extra['rounds']} traced rounds; scheme-hook spans outside a session: "
              f"{extra['outside']}")
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def record_digests() -> None:
    """Rewrite digests.json from the warm-up output of every workload at the default seed."""
    from gate import row_digest

    recorded = {}
    for workload in WORKLOADS:
        *_, lines = measure(workload, DEFAULT_SEED, 0, False, False)
        recorded[workload] = [row_digest(line) for line in lines]
    DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"wrote {DIGESTS}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny input shapes")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    load_program()
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    metrics, gate, extra, _ = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    result = report(args.workload, args.seed, bool(args.trace), metrics, gate, extra)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
