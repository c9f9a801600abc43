"""Spans around the program's public calls, recorded from the benchmark's side.

`Tracer` patches the module attributes through which the CLI and the library
call each other (for example `abrsim.cli.simulate_session`), and wraps each
scheme instance's `decide` / `observe_interval` / `observe_chunk` when a session
starts. Nothing under `src/` is edited. Each span is (name, start, end,
parent index), kept in memory until the pass ends; self time is a span's
duration minus the time its direct children cover.

A patch site that no longer exists is skipped and listed in `absent`; the
metrics that depend on it then read 0 and are reported as absent.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import abrsim.cli
import abrsim.metrics
import abrsim.tuning

# (module, attribute); the attribute names the span. Coarse sites are called a
# bounded number of times per job, so wrapping them costs nothing measurable;
# hot sites run per chunk, per interval or per DP transition and only wrap in
# a full trace.
COARSE_SITES = (
    (abrsim.cli, "parse_manifest"),
    (abrsim.cli, "parse_trace"),
    (abrsim.cli, "classify_chunks"),
    (abrsim.cli, "allowed_from_filter"),
    (abrsim.cli, "simulate_session"),
    (abrsim.cli, "session_metrics"),
    (abrsim.cli, "offline_optimal"),
    (abrsim.cli, "sweep_gains"),
    (abrsim.cli, "extract_region"),
)
HOT_SITES = (
    (abrsim.tuning, "simulate_session"),
    (abrsim.tuning, "qoe_score"),
    (abrsim.metrics, "qoe_score"),
    (abrsim.metrics, "advance_download"),
)
SCHEME_HOOKS = ("decide", "observe_interval", "observe_chunk")
MPC_SCHEMES = ("mpc", "robustmpc")
PID_SCHEMES = ("pia", "piae", "cava")
PID_ROLLOUT_STEPS = 5  # evaluations per allowed level per PID argmin


class Capture:
    """Results the correctness gate needs, gathered while a pass runs."""

    def __init__(self) -> None:
        self.rows: list[str] = []  # "scheme,trace,metric values" per session_metrics call
        self.sessions: list[tuple[str, str, tuple[int, ...], int | None]] = []
        self.oracle: list[tuple[tuple, tuple[int, ...], float]] = []  # (args, levels, value)
        self.eval_faults: set[tuple[str, str]] = set()  # (scheme, trace) with a bad eval step
        self.chunks = 0
        self.chunks_parsed = 0
        self.n_levels = 0
        self.mpc_evals = 0
        self.pid_evals = 0


class Tracer:
    """Context manager that installs the wrappers for one pass and removes them."""

    def __init__(self, *, hot: bool, record: bool) -> None:
        self.hot = hot
        self.record = record
        self.spans: list[tuple[str, float, float, int]] = []
        self.capture = Capture()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._saved: list[tuple[object, str, object]] = []

    # -- install / remove -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        sites = COARSE_SITES + (HOT_SITES if self.hot else ())
        for module, attr in sites:
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module.__name__}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- spans ------------------------------------------------------------------

    def _wrap(self, name, fn):
        """Wrapper for a module attribute; forked pool workers inherit it and call through."""
        post = getattr(self, "_after_" + name, None)
        pre = getattr(self, "_before_" + name, None)

        def wrapper(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            token = pre(args) if pre is not None else None
            result = self._timed(name, fn, args, kwargs)
            if post is not None:
                post(args, result, token)
            return result

        return wrapper

    def _hook(self, name, fn):
        """Span wrapper for a scheme instance's hook; installed in this process only."""

        def hook(*args, **kwargs):
            return self._timed(name, fn, args, kwargs)

        return hook

    def _timed(self, name, fn, args, kwargs):
        if not self.record:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    # -- capture hooks, keyed by span name -----------------------------------

    def _after_parse_manifest(self, args, manifest, token) -> None:
        self.capture.chunks_parsed += manifest.n_levels * manifest.n_chunks
        self.capture.n_levels = manifest.n_levels

    def _before_simulate_session(self, args):
        if not self.hot:
            return ()
        scheme = args[0]
        for hook in SCHEME_HOOKS:
            method = getattr(scheme, hook)
            if hook == "decide":
                method = self._checked_decide(scheme, args[1].name, method)
            if self.record:
                method = self._hook(f"{hook}:{scheme.name}", method)
            setattr(scheme, hook, method)
        return SCHEME_HOOKS

    def _after_simulate_session(self, args, log, hooks) -> None:
        scheme = args[0]
        for hook in hooks:
            delattr(scheme, hook)
        evals = getattr(scheme, "eval_count", None)
        if scheme.name in MPC_SCHEMES:
            self.capture.mpc_evals += evals
        elif scheme.name in PID_SCHEMES:
            self.capture.pid_evals += evals
        self.capture.chunks += len(log.decisions)
        levels = tuple(d.level for d in log.decisions)
        self.capture.sessions.append((scheme.name, log.trace_name, levels, evals))

    def _checked_decide(self, scheme, trace_name, decide):
        """Check each PID decision scores 5 rollout steps per allowed level per argmin."""
        if scheme.name not in PID_SCHEMES:
            return decide
        passes = (0, 1, 2) if scheme.name == "cava" else (0, 1)

        def checked(ctx):
            before = scheme.eval_count
            level = decide(ctx)
            step = PID_ROLLOUT_STEPS * len(ctx.allowed_levels)
            if scheme.eval_count - before not in tuple(k * step for k in passes):
                self.capture.eval_faults.add((scheme.name, trace_name))
            return level

        return checked

    def _after_session_metrics(self, args, report, token) -> None:
        log = args[0]
        _, values = report.to_csv().strip().split("\n")
        self.capture.rows.append(f"{log.scheme_name},{log.trace_name},{values}")

    def _after_offline_optimal(self, args, result, token) -> None:
        levels, value = result
        self.capture.oracle.append((args, tuple(levels), value))


# -- aggregation ---------------------------------------------------------------


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, total (inclusive) seconds and self seconds."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for index, (name, start, end, parent) in enumerate(spans):
        row = table[name]
        row["calls"] += 1
        row["total"] += end - start
        row["self"] += end - start - child_time[index]
    return dict(table)


def top_level_seconds(spans) -> float:
    """Seconds covered by spans that have no parent span."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)


def unaccounted_children(spans) -> int:
    """Scheme-hook spans whose parent is not a simulate_session span (should be 0)."""
    count = 0
    for name, _, _, parent in spans:
        if name.split(":")[0] in SCHEME_HOOKS:
            if parent < 0 or spans[parent][0] != "simulate_session":
                count += 1
    return count
