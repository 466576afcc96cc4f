"""The benchmark's own self-check, run as a test.

`perfbench/selfcheck.py` installs the benchmark's span tracer on resalg and
removes it again, so a change that renames or restructures what the tracer
wraps fails here, not only in a traced benchmark run.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_benchmark_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selfcheck: ok"
