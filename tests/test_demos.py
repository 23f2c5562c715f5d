"""Every demo script, and the README's command-line sequence, runs to
completion against the package in src/; the sequence's files match the
pins in tests/pins.json.

Each demo runs in a fresh interpreter, in an empty working directory that
it must leave empty.
"""

import os
import pathlib
import subprocess
import sys

import make_pins
import pytest

import logitcp

SRC = os.path.dirname(os.path.dirname(os.path.abspath(logitcp.__file__)))
DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.iterdir()) == []


def test_readme_cli_sequence_runs_as_written(tmp_path):
    done = make_pins.run_readme_sequence(tmp_path)
    assert done.returncode == 0, done.stderr
    # the two results the README states
    assert "chosen rank=1 ratio=0.8\n" in done.stdout
    assert "held-out AUC: 0.725" in done.stdout
    # and every file it writes, byte for byte
    moved = make_pins.drift(make_pins.load()["readme"], make_pins.file_digests(tmp_path))
    assert not moved, f"pins moved: {moved}"
