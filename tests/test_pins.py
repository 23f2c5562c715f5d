"""Every fitted array and the 2-rep noise baseline match the committed pins
in tests/pins.json bit for bit (`python tests/make_pins.py` rewrites
them; `--check` prints each pin's distance).

The fits run in a fresh interpreter on one BLAS thread: in-process tests
run with OpenBLAS' default thread count, and ALS's bits depend on it. The
README sequence's files are pinned in test_demos.py, which already runs it.
"""

import make_pins


def test_fitted_arrays_and_baseline_match_the_pins():
    moved = make_pins.drift(make_pins.load()["arrays"], make_pins.array_pins_in_subprocess())
    assert not moved, f"pins moved: {moved}"
