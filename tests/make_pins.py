"""Regenerate or check the identity pins in tests/pins.json.

The pins fix, bit for bit, what the package computes on a few small
designs: every array of a `decomp.fit` with each method on a dense, a
20%-masked and a tall design, the noise baseline of a 2-rep calibration,
and the sha256 of every file the README's command-line sequence writes.
A refactor that should not move any output keeps every pin; a change that
moves outputs shows which ones and by how many ulps.

    python tests/make_pins.py           # rewrite tests/pins.json
    python tests/make_pins.py --check   # print each pin's distance; exit 1 on drift

Run it from anywhere; it uses the package in src/. The pins are taken on
one BLAS thread, and ALS is pinned at one thread only: its offset and
weights move in their last digits with the OpenBLAS thread count.
"""

import argparse
import hashlib
import json
import os
import pathlib
import struct
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINS = pathlib.Path(__file__).resolve().parent / "pins.json"
ENV = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")

# the designs: (dims, snr, fraction of cells hidden); rank 2, 6 starts
DESIGNS = {
    "dense": ((12, 8, 6), (5.0, 3.0), None),
    "masked": ((12, 8, 6), (5.0, 3.0), 0.2),
    "tall": ((60, 6, 5), (5.0, 3.0), None),
}
RATIOS = {"als": None, "tp": None, "tsp": 0.6, "ttp": 0.6}


def _hexes(values):
    return " ".join(float(v).hex() for v in values)


def array_pins():
    """{name: "float.hex float.hex ..."} for every fitted array and the baseline.
    Import-time BLAS settings count, so call it in a process started with
    OPENBLAS_NUM_THREADS=1 (see array_pins_in_subprocess)."""
    from logitcp import decomp, simulate

    pins = {}
    for design, (dims, snr, hidden) in DESIGNS.items():
        cfg = simulate.SimConfig(dims=dims, rank=2, snr=snr, sparsity=0.5, seed=4)
        x, _ = simulate.gen_dataset(cfg, baseline_weight=2.0)
        if hidden is not None:
            x, _ = simulate.drop_uniform(x, hidden, seed=4)
        for method, ratio in RATIOS.items():
            base = decomp.FitConfig(rank=2, n_starts=None if method == "als" else 6, seed=1)
            report = decomp.fit(x, decomp.method_config(base, method, x.dims, ratio), method)
            m = report.model
            key = f"{design}/{method}"
            pins[f"{key}/mu"] = _hexes([m.mu])
            for name in ("d", "U", "V", "W"):
                pins[f"{key}/{name}"] = _hexes(getattr(m, name).ravel())
            pins[f"{key}/loss_trace"] = _hexes(report.loss_trace)
            for i, trace in enumerate(report.start_traces):
                pins[f"{key}/start_trace{i}"] = _hexes(trace)
    pins["baseline/200x10x10/rank1/reps2"] = _hexes(
        [simulate.calibrate_baseline((200, 10, 10), 1, reps=2)]
    )
    return pins


def array_pins_in_subprocess():
    done = subprocess.run(
        [sys.executable, __file__, "--print-arrays"], env=ENV,
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout)


def readme_cli_sequence():
    """The sh block under the README's "## Command line" heading."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1]
    return section.split("```sh\n", 1)[1].split("\n```", 1)[0]


def run_readme_sequence(cwd):
    """Run the README's sequence in cwd, with logitcp and python3 bound to
    this interpreter and the package in src/; `set -e` stops at the first
    step that exits nonzero."""
    script = (
        f'logitcp() {{ "{sys.executable}" -m logitcp.cli "$@"; }}\n'
        f'python3() {{ "{sys.executable}" "$@"; }}\n'
        "set -e\n" + readme_cli_sequence() + "\n"
    )
    return subprocess.run(
        ["sh", "-c", script], cwd=cwd, env=ENV, capture_output=True, text=True, timeout=300,
    )


def file_digests(directory):
    """{file name: sha256 hex} for every file in directory."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(pathlib.Path(directory).iterdir())
    }


def readme_pins():
    with tempfile.TemporaryDirectory() as tmp:
        done = run_readme_sequence(tmp)
        if done.returncode != 0:
            raise SystemExit(f"the README sequence failed:\n{done.stderr}")
        return file_digests(tmp)


def _ordered(value):
    """The float's bits as an integer that grows with the float, so that
    the difference of two is their distance in ulps."""
    (bits,) = struct.unpack("<q", struct.pack("<d", value))
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def distance(pinned, got):
    """How far a computed pin is from the pinned one, as text: '0 ulp' or
    'same' when they agree, else the largest ulp distance, a changed length,
    a changed digest, or a pin that is missing or new."""
    if pinned is None or got is None:
        return "new" if pinned is None else "missing"
    if not pinned.startswith(("0x", "-0x")):  # a sha256 digest
        return "same" if got == pinned else "differs"
    pinned, got = pinned.split(), got.split()
    if len(got) != len(pinned):
        return f"length {len(pinned)} -> {len(got)}"
    ulps = max(abs(_ordered(float.fromhex(a)) - _ordered(float.fromhex(b)))
               for a, b in zip(pinned, got))
    return f"{ulps} ulp"


def distances(pinned, got):
    """{name: distance} over every pin in either dict."""
    return {name: distance(pinned.get(name), got.get(name))
            for name in sorted(pinned.keys() | got.keys())}


def drift(pinned, got):
    """{name: distance} for every pin that moved, went missing or is new."""
    return {name: d for name, d in distances(pinned, got).items() if d not in ("0 ulp", "same")}


def load():
    return json.loads(PINS.read_text())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed pins instead of rewriting them")
    parser.add_argument("--print-arrays", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.print_arrays:
        print(json.dumps(array_pins()))
        return 0
    got = {"arrays": array_pins_in_subprocess(), "readme": readme_pins()}
    if not args.check:
        PINS.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {sum(len(v) for v in got.values())} pins to {PINS}")
        return 0
    pinned, moved = load(), 0
    for group in ("arrays", "readme"):
        for name, d in distances(pinned[group], got[group]).items():
            print(f"{group} {name}: {d}")
        moved += len(drift(pinned[group], got[group]))
    print(f"{moved} pin(s) moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
