"""Memory held by a fit, a simulated draw and a tensor file's read and write,
beyond their inputs.

A fit may hold the data plus one full-size float64 array (the working tensor
of the MM pass, or the centered sign tensor of a start), plus block-sized
scratch; a simulated draw keeps only its bool data and mask. A masked tensor
copies its values only to zero a nonzero unobserved cell. A tensor file is
read into bool arrays and written a block of cells at a time. The peaks are
traced allocations, in units of one full-size float64 array, 8 bytes per
cell (the data themselves take one byte per cell).
"""

import tracemalloc

import numpy as np
import pytest

from logitcp import decomp, fileio, selection, simulate
from logitcp.likelihood import BinaryTensor

DIMS = (400, 80, 10)
RATIOS = {"tp": None, "tsp": 0.5, "ttp": 0.2, "als": None}
BOUNDS = {"tp": 1.5, "tsp": 1.5, "ttp": 1.5, "als": 2.0}


def traced_peak(fn):
    """fn's result, the peak of traced memory during the call and the
    memory still held after it, both beyond what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
        return out, peak - before, held - before
    finally:
        tracemalloc.stop()


def full_size(x):
    """Bytes of one float64 array of x's shape."""
    return x.values.size * 8


@pytest.fixture(scope="module")
def data():
    x, _ = simulate.gen_dataset(simulate.SimConfig(DIMS, 1, (3.0,), seed=0), baseline_weight=60.0)
    keep = np.random.default_rng(1).random(DIMS) >= 0.2
    return {"dense": x, "masked": BinaryTensor(np.where(keep, x.values, 0.0), keep)}


@pytest.mark.parametrize("method", list(RATIOS))
@pytest.mark.parametrize("layout", ["dense", "masked"])
def test_fit_holds_at_most_one_full_size_array(data, layout, method):
    x = data[layout]
    cfg = decomp.FitConfig(rank=2, n_starts=2, max_outer_iters=3, seed=0)
    cfg = decomp.method_config(cfg, method, DIMS, RATIOS[method])
    _, peak, _ = traced_peak(lambda: decomp.fit(x, cfg, method))
    assert peak / full_size(x) <= BOUNDS[method]


def test_gen_dataset_draws_in_two_full_size_buffers():
    cfg = simulate.SimConfig(DIMS, 1, (3.0,), seed=0)
    (x, _), peak, _ = traced_peak(lambda: simulate.gen_dataset(cfg, baseline_weight=60.0))
    assert peak / full_size(x) <= 2.5


def test_gen_dataset_keeps_no_float_array():
    # the data and mask are a byte per cell each; the truth keeps its
    # factors, not its probabilities
    cfg = simulate.SimConfig(DIMS, 1, (3.0,), seed=0)
    simulate.gen_dataset(cfg, baseline_weight=60.0)  # first-call imports settle
    (x, truth), _, held = traced_peak(lambda: simulate.gen_dataset(cfg, baseline_weight=60.0))
    assert held / full_size(x) <= 0.5


def test_zero_filled_masked_tensor_is_not_copied(data):
    x = data["masked"]
    values = x.values.copy()
    y, peak, _ = traced_peak(lambda: BinaryTensor(values, x.mask))
    assert y.values is values
    assert peak / full_size(x) <= 0.25


def test_cv_fold_tensor_is_zero_filled_once(data):
    x = data["dense"]
    fold, peak, _ = traced_peak(lambda: selection._subset(x, data["masked"].mask))
    assert np.array_equal(fold.values, data["masked"].values)
    assert peak / full_size(x) <= 1.25


def test_drop_uniform_zero_fills_each_split_once(data):
    # no index of every observed cell is held beside the draw, which
    # itself permutes a full-size index of positions
    x = data["dense"]
    _, peak, _ = traced_peak(lambda: simulate.drop_uniform(x, 0.2, seed=0))
    assert peak / full_size(x) <= 1.5


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    # large enough that the 64k-record parse and format buffers are small
    # beside one full-size array
    dims = (1000, 100, 10)
    x, _ = simulate.gen_dataset(simulate.SimConfig(dims, 1, (3.0,), seed=0), baseline_weight=60.0)
    keep = np.random.default_rng(1).random(dims) >= 0.1
    x = BinaryTensor(x.values & keep, keep)
    path = tmp_path_factory.mktemp("tensor") / "x.txt"
    fileio.write_binary_tensor(path, x)
    fileio.read_binary_tensor(path)  # first-call imports settle
    return x, path


def test_tensor_read_builds_no_float_array(written):
    # the records are scattered straight into bool arrays, which
    # BinaryTensor takes as they are
    x, path = written
    (values, mask), peak, _ = traced_peak(lambda: fileio.read_tensor(path))
    assert values.dtype == bool and mask.dtype == bool
    assert BinaryTensor(values, mask).values is values
    assert peak / full_size(x) <= 2.0
    y, peak, _ = traced_peak(lambda: fileio.read_binary_tensor(path))
    assert np.array_equal(y.values, x.values) and np.array_equal(y.mask, x.mask)
    assert peak / full_size(x) <= 2.0


def test_tensor_write_holds_no_index_of_every_cell(written, tmp_path):
    # the mask is walked a block of slices or columns at a time, so no
    # int64 index of every stored cell (0.9 full-size arrays here) is held
    x, path = written
    _, peak, _ = traced_peak(lambda: fileio.write_binary_tensor(tmp_path / "y.txt", x))
    assert (tmp_path / "y.txt").read_bytes() == path.read_bytes()
    assert peak / full_size(x) <= 1.0
