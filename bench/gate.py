"""Correctness gate: decides, per output row, whether a CLI job's answer is right.

An operation is one output row (a `compare.csv` row or a `heatmap.csv` cell).
A row fails when its job raised or exited non-zero, when it differs from the
first pass's row (every pass must be byte-identical), when it differs from the
digest recorded for the default seed, or when a check on the values the pass
captured does not hold:

- each cell's `session_metrics` report reproduces its `compare.csv` row;
- the oracle's sequence re-scores to exactly its objective, and no MPC
  scheme's sequence scores lower;
- each MPC session makes exactly sum_i |L|^min(5, N - i) evaluations;
- each PID decision makes 5 * |allowed| evaluations per argmin it runs.

Failures are counted, never raised.
"""

from __future__ import annotations

import hashlib

from abrsim.metrics import score_sequence

from spans import MPC_SCHEMES, Capture

MPC_HORIZON = 5
ORACLE = "offline-optimal"


def row_digest(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()[:16]


def expected_mpc_evals(n_levels: int, n_chunks: int) -> int:
    return sum(n_levels ** min(MPC_HORIZON, n_chunks - i) for i in range(n_chunks))


def _key(row: str) -> str:
    """scheme,trace prefix of a compare row."""
    return ",".join(row.split(",", 2)[:2])


class Gate:
    """Counts attempted and failed rows over every pass of one benchmark run."""

    def __init__(self, command: str, expected_rows: int, digests: list[str] | None) -> None:
        self.command = command
        self.expected_rows = expected_rows
        self.digests = digests
        self.reference: list[str] | None = None  # header + rows of the first pass
        self.reference_bad: set[int] = set()
        self.attempted = 0
        self.failed = 0
        self.notes: dict[str, None] = {}  # ordered set of distinct failure notes

    def check(
        self, lines: list[str] | None, capture: Capture | None = None, error: str | None = None
    ) -> None:
        """Score one pass; `lines` is the output file's lines, None if the job failed."""
        self.attempted += self.expected_rows
        if lines is None or len(lines) != self.expected_rows + 1:
            self.failed += self.expected_rows
            self._note(error or "job wrote the wrong number of rows")
            return
        bad: set[int] = set()
        first = self.reference is None
        if first:
            self.reference = list(lines)
            if self.digests is not None:
                self._against_digests(lines, bad)
        elif lines != self.reference:
            bad.update(i for i, (a, b) in enumerate(zip(lines, self.reference)) if a != b)
            self._note("output differs from the first pass")
        if capture is not None and self.command == "compare":
            self._against_capture(lines, capture, bad)
        if 0 in bad:  # a wrong header puts every row in doubt
            bad = set(range(1, len(lines)))
        if first:
            self.reference_bad = set(bad)
        else:  # repeating a wrong first-pass row is still wrong
            bad |= self.reference_bad
        self.failed += len(bad - {0})

    def _note(self, text: str) -> None:
        self.notes[text] = None

    def _against_digests(self, lines: list[str], bad: set[int]) -> None:
        if len(self.digests) != len(lines):
            bad.update(range(len(lines)))
            self._note("row count differs from the recorded digests")
            return
        for i, line in enumerate(lines):
            if row_digest(line) != self.digests[i]:
                bad.add(i)
        if bad:
            self._note(f"{len(bad)} rows differ from the recorded digests")

    def _against_capture(self, lines: list[str], capture: Capture, bad: set[int]) -> None:
        index = {_key(line): i for i, line in enumerate(lines) if i > 0}
        captured = {_key(row): row for row in capture.rows}
        for key, i in index.items():
            if captured.get(key) != lines[i]:
                bad.add(i)
                self._note(f"{key}: traced cell does not reproduce its row")
        for scheme, trace, problem in self._capture_faults(capture):
            bad.add(index.get(f"{scheme},{trace}", 0))
            self._note(f"{scheme},{trace}: {problem}")

    def _capture_faults(self, capture: Capture):
        for scheme, trace in sorted(capture.eval_faults):
            yield scheme, trace, "PID evaluation count is not 5 x |allowed| per argmin"
        for args, levels, value in capture.oracle:
            trace, manifest, objective, config = args
            if score_sequence(trace, manifest, objective, config, levels) != value:
                yield ORACLE, trace.name, "oracle sequence does not re-score to its objective"
            for scheme, trace_name, mpc_levels, _ in capture.sessions:
                if scheme in MPC_SCHEMES and trace_name == trace.name:
                    if score_sequence(trace, manifest, objective, config, mpc_levels) < value:
                        yield ORACLE, trace.name, f"{scheme} scores below the oracle"
        for scheme, trace_name, levels, evals in capture.sessions:
            if scheme in MPC_SCHEMES:
                if evals != expected_mpc_evals(capture.n_levels, len(levels)):
                    yield scheme, trace_name, "MPC evaluation count differs from sum |L|^min(5, N-i)"
