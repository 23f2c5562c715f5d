"""The package runs on numpy alone: no command loads scipy.

Each check runs in a fresh interpreter, so that the scipy imports of other
test modules cannot hide a stray import.
"""

import json
import os
import subprocess
import sys

import logitcp

SRC = os.path.dirname(os.path.dirname(os.path.abspath(logitcp.__file__)))

SCRIPT = r"""
import json, sys

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import logitcp
seen = {"import": scipy_loaded()}

from logitcp import cli, fileio, simulate

def run(name, *argv):
    rc = cli.main([str(a) for a in argv])
    assert rc in (0, 3), (name, rc)
    seen[name] = scipy_loaded()

run("simulate", "simulate", "--dims", "12,6,5", "--rank", "1", "--snr", "4",
    "--baseline-weight", "3.0", "--seed", "1", "--out", "sim.txt")
kept, heldout = simulate.drop_uniform(fileio.read_binary_tensor("sim.txt"), 0.2, seed=2)
fileio.write_binary_tensor("kept.txt", kept)
fileio.write_binary_tensor("held.txt", heldout)
run("fit ttp", "fit", "--data", "kept.txt", "--rank", "1", "--method", "ttp",
    "--s-ratio", "0.5", "--starts", "2", "--out", "ttp.model")
run("select cv", "select", "--data", "kept.txt", "--ranks", "1,2", "--criterion", "cv",
    "--folds", "2", "--starts", "2", "--out", "sel.csv")
run("complete", "complete", "--data", "kept.txt", "--model", "ttp.model",
    "--holdout", "held.txt", "--out", "pred.csv")
run("report", "report", "--model", "ttp.model", "--truth", "sim.txt.truth", "--out", "rep")
run("fit als", "fit", "--data", "kept.txt", "--rank", "1", "--method", "als",
    "--out", "als.model")
run("select als cv", "select", "--data", "kept.txt", "--ranks", "1,2", "--method", "als",
    "--criterion", "cv", "--folds", "2", "--out", "als.csv")
print(json.dumps(seen))
"""


def test_no_step_loads_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    ))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert list(seen) == ["import", "simulate", "fit ttp", "select cv", "complete", "report",
                          "fit als", "select als cv"]
    for step, loaded in seen.items():
        assert loaded == [], step
