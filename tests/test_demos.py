"""Every demo script runs to completion against the package in src/.

Each runs in a fresh interpreter, in an empty working directory that it
must leave empty.
"""

import os
import pathlib
import subprocess
import sys

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
