"""Every example script must run cleanly end to end."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))
#: Examples are the first code users copy: one that triggers a deprecation
#: fails, exactly like the test suite itself (pyproject filterwarnings).
PYTHON = [sys.executable, "-W", "error::DeprecationWarning"]


def test_examples_directory_populated():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 3


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    proc = subprocess.run(
        [*PYTHON, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "example produced no output"


def test_quickstart_output_mentions_makespan():
    proc = subprocess.run(
        [*PYTHON, str(EXAMPLES_DIR / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "makespan" in proc.stdout


def test_paper_trace_reproduces_table1():
    proc = subprocess.run(
        [*PYTHON, str(EXAMPLES_DIR / "paper_trace.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "t3[2;12/3]" in proc.stdout
    assert "makespan = 14" in proc.stdout
    assert "Theorem 3 verified" in proc.stdout
