"""Every demo script, and the README's command-line sequence, runs to
completion against the package in src/.

Each demo runs in a fresh interpreter, in an empty working directory that
it must leave empty.
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


def _readme_cli_sequence():
    """The sh block under the README's "## Command line" heading."""
    text = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1]
    return section.split("```sh\n", 1)[1].split("\n```", 1)[0]


def test_readme_cli_sequence_runs_as_written(tmp_path):
    # logitcp and python3 are bound to this interpreter and the package in
    # src/; `set -e` stops at the first step that exits nonzero
    script = (
        f'logitcp() {{ "{sys.executable}" -m logitcp.cli "$@"; }}\n'
        f'python3() {{ "{sys.executable}" "$@"; }}\n'
        "set -e\n" + _readme_cli_sequence() + "\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        ["sh", "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    # the two results the README states
    assert "chosen rank=1 ratio=0.8\n" in done.stdout
    assert "held-out AUC: 0.725" in done.stdout
