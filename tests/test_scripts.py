"""Smoke tests of the exploratory scripts: each runs on tiny arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

RUNS = [
    ("dimension_tables", ["--max-vars", "2", "--cap", "3"],
     "n = 2   (classical Hilbert: (1, 1))"),
    ("bad_q_scan", ["--max-vars", "2", "--cap", "4"], "q = -1/2: (2,4)"),
    ("string_survey", ["--max-vars", "1", "--cap", "3"],
     "n=1 q=formal: d=0:1/1 max 1"),
    ("commutant_skew", ["--vars", "2", "--cap", "3"],
     "g_1 = P_(1,), g_2 = P_(1, 1): solution dimension 5"),
]


@pytest.mark.parametrize("script, args, line", RUNS)
def test_script_runs(script, args, line):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{script}.py"), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert line in [text.strip() for text in proc.stdout.splitlines()]
