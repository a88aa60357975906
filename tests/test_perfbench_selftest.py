"""The benchmark's report checks must accept pristine reports and reject corrupted ones.

perfbench/selftest.py runs small CLI commands in-process, checks their
reports, then corrupts each one way at a time; it exits 1 if a pristine report
is rejected or a corrupted one accepted.  Running it here makes a library
change that breaks a benchmark check fail the test suite.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_perfbench_selftest_passes():
    result = subprocess.run(
        [sys.executable, str(SELFTEST)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
