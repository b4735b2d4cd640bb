"""The warning rules in pyproject.toml fail a test that leaves a file open, so
the plain ``pytest`` command enforces them without command-line flags.

Each check runs pytest in a fresh interpreter on throwaway test files, under
this checkout's pyproject.toml."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_pytest_on(tmp_path, name, body):
    """The completed pytest run of one test file holding ``body``, configured by CONFIG."""
    path = tmp_path / name
    path.write_text(body)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "-q", "-p", "no:cacheprovider", str(path)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
    )


def test_a_file_left_open_fails_and_a_closed_file_passes(tmp_path):
    (tmp_path / "data.txt").write_text("x")
    leaked = run_pytest_on(
        tmp_path,
        "test_leaked.py",
        "def test_leaks():\n    open('data.txt').read()\n",
    )
    closed = run_pytest_on(
        tmp_path,
        "test_closed.py",
        "def test_closes():\n    with open('data.txt') as f:\n        f.read()\n",
    )
    assert leaked.returncode == 1, leaked.stdout + leaked.stderr
    assert "ResourceWarning" in leaked.stdout, leaked.stdout
    assert closed.returncode == 0, closed.stdout + closed.stderr
