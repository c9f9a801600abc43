"""Set-up probe run in a fresh interpreter: import the CLI, parse one workload's inputs.

Usage: python3 -I bench/setup_probe.py SRC_DIR MANIFEST TRACE...

Prints `time.monotonic()` once the inputs are parsed. That clock is
system-wide, so the parent subtracts its own reading from just before the
spawn and gets the set-up time without the interpreter's shutdown.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, sys.argv[1])

import abrsim.cli  # noqa: E402

manifest = abrsim.cli.parse_manifest(Path(sys.argv[2]).read_text())
traces = [abrsim.cli.parse_trace(Path(p).read_text(), name=Path(p).stem) for p in sys.argv[3:]]
print(repr(time.monotonic()))
