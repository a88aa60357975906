"""Smoke tests of the exploratory scripts and of README's command lines."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qsteenrod.cli import main

ROOT = Path(__file__).resolve().parents[1]

RUNS = [
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


def _readme_block_lines(heading):
    """The lines of the first code block after a README heading, comments cut."""
    text = (ROOT / "README.md").read_text()
    section = text.split(f"\n{heading}\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line.split("#", 1)[0].split() for line in block.splitlines()]


def test_readme_commands_run(capsys):
    # every documented command line runs, and the scripts README lists are
    # the ones in scripts/
    lines = _readme_block_lines("## CLI") + _readme_block_lines("## Experiment scripts")
    commands = [words[1:] for words in lines if words[:1] == ["qsteenrod"]]
    assert len(commands) >= 10
    for argv in commands:
        assert main(argv + ["--format", "json"]) == 0, argv
        capsys.readouterr()
    listed = {
        Path(words[1]).stem for words in lines
        if words[:1] == ["python"] and words[1].startswith("scripts/")
    }
    assert listed == {path.stem for path in (ROOT / "scripts").glob("*.py")}
