"""Bernoulli likelihood, the quadratic majorizer, and model containers."""

import math

import numpy as np
import pytest
from scipy.special import expit

from logitcp import ops
from logitcp.likelihood import (
    BLOCK_CELLS,
    BinaryTensor,
    LogitModel,
    deviance,
    impute,
    loss_and_working,
    majorizer_gap,
    neg_loglik,
    sigmoid,
    softplus,
)


def dense(values):
    return BinaryTensor.dense(np.asarray(values, dtype=float))


def test_sigmoid_values_and_saturation():
    assert sigmoid(0.0) == pytest.approx(0.5, abs=1e-15)
    assert sigmoid(500.0) == 1.0
    assert 0.0 < sigmoid(-500.0) < 1e-200  # exp(-500) is still representable
    t = np.linspace(-30, 30, 101)
    s = sigmoid(t)
    assert np.all(np.diff(s) > 0)
    np.testing.assert_allclose(s + sigmoid(-t), 1.0, atol=1e-15)


def test_sigmoid_out_buffer():
    t = np.zeros((2, 2))
    buf = np.empty_like(t)
    assert sigmoid(t, out=buf) is buf
    np.testing.assert_array_equal(buf, np.full((2, 2), 0.5))
    # in place, as LogitModel.probs calls it
    t = np.random.default_rng(4).normal(scale=20.0, size=(6, 5, 4))
    want = sigmoid(t)
    assert sigmoid(t, out=t) is t
    np.testing.assert_array_equal(t, want)


def test_sigmoid_within_4_ulp_of_expit():
    # the same formula as expit, so only exp's last-bit rounding differs
    t = np.concatenate([np.linspace(-709.0, 709.0, 200_001), [-0.0, 0.0, -745.0, -709.7, 709.7]])
    got, want = sigmoid(t), expit(t)
    ulp = np.spacing(np.maximum(got, want))
    assert np.all(np.abs(got - want) <= 4 * ulp)
    assert sigmoid(-0.0) == 0.5 and sigmoid(0.0) == 0.5
    assert sigmoid(709.0) == 1.0


def test_sigmoid_is_zero_below_exp_overflow():
    t = np.array([-709.79, -710.0, -1e4, -1e308, -np.inf])
    np.testing.assert_array_equal(sigmoid(t), 0.0)
    assert sigmoid(-709.78) > 0.0


def test_sigmoid_is_silent_where_exp_underflows_or_overflows():
    # exp(-t) underflows for t >~ 708 and overflows for t < -709.78; both
    # give the exact limits, so neither may raise under a strict error state
    t = np.array([800.0, 745.5, -800.0, -745.5])
    with np.errstate(all="raise"):
        s = sigmoid(t)
        assert sigmoid(800.0) == 1.0 and sigmoid(-800.0) == 0.0
    np.testing.assert_array_equal(s, [1.0, 1.0, 0.0, 0.0])


def test_sigmoid_nondecreasing():
    s = sigmoid(np.linspace(-750.0, 750.0, 1_000_001))
    assert np.all(np.diff(s) >= 0)


def test_sigmoid_scalar_in_scalar_out():
    s = sigmoid(1.5)
    assert np.ndim(s) == 0 and not isinstance(s, np.ndarray)
    assert s == expit(1.5)


def test_softplus_stable_at_both_tails():
    assert softplus(0.0) == pytest.approx(math.log(2.0), abs=1e-15)
    assert softplus(800.0) == 800.0
    assert softplus(-800.0) == 0.0
    t = np.linspace(-20, 20, 41)
    np.testing.assert_allclose(softplus(t), np.log1p(np.exp(t)), atol=1e-12)


def test_neg_loglik_all_ones_at_zero_logits():
    x = dense(np.ones((2, 2, 2)))
    assert neg_loglik(x, np.zeros((2, 2, 2))) == pytest.approx(8 * math.log(2.0), abs=1e-12)


def test_neg_loglik_saturated_fit_is_zero():
    rng = np.random.default_rng(0)
    vals = (rng.random((3, 3, 3)) < 0.5).astype(float)
    x = dense(vals)
    theta = np.where(vals == 1.0, 40.0, -40.0)
    assert neg_loglik(x, theta) == pytest.approx(0.0, abs=1e-10)


def test_neg_loglik_masked_matches_manual_sum():
    rng = np.random.default_rng(1)
    vals = (rng.random((3, 4, 2)) < 0.5).astype(float)
    mask = rng.random((3, 4, 2)) < 0.7
    vals[~mask] = 0.0
    x = BinaryTensor(vals, mask)
    theta = rng.standard_normal((3, 4, 2))
    want = sum(
        softplus(theta[i, j, k]) - vals[i, j, k] * theta[i, j, k]
        for i in range(3)
        for j in range(4)
        for k in range(2)
        if mask[i, j, k]
    )
    assert neg_loglik(x, theta) == pytest.approx(want, abs=1e-10)
    assert deviance(x, theta) == pytest.approx(2.0 * want, abs=1e-10)


def test_neg_loglik_gradient_matches_central_differences():
    rng = np.random.default_rng(2)
    vals = (rng.random((2, 3, 2)) < 0.5).astype(float)
    x = dense(vals)
    theta = rng.standard_normal((2, 3, 2))
    # d nll / d theta_ijk = sigmoid(theta) - x, checked cellwise
    eps = 1e-6
    for idx in ((0, 0, 0), (1, 2, 1), (0, 1, 1)):
        bump = np.zeros_like(theta)
        bump[idx] = eps
        fd = (neg_loglik(x, theta + bump) - neg_loglik(x, theta - bump)) / (2 * eps)
        assert fd == pytest.approx(sigmoid(theta[idx]) - vals[idx], abs=1e-6)


def test_working_tensor_hand_values():
    x = dense(np.array([[[1.0]], [[0.0]]]))
    theta = np.zeros((2, 1, 1))
    z = np.empty_like(theta)
    loss_and_working(x, theta, z)
    np.testing.assert_allclose(z, [[[2.0]], [[-2.0]]], atol=1e-12)


def test_working_tensor_unobserved_cells_keep_theta():
    vals = np.array([[[1.0, 0.0]]])
    mask = np.array([[[True, False]]])
    x = BinaryTensor(vals, mask)
    theta = np.array([[[0.5, -3.25]]])
    z = np.empty_like(theta)
    loss_and_working(x, theta, z)
    assert z[0, 0, 1] == -3.25
    assert z[0, 0, 0] == pytest.approx(0.5 + 4 * (1.0 - sigmoid(0.5)), abs=1e-12)


def test_working_tensor_out_buffer():
    # the working tensor goes into `out` in full; with `out` the return value
    # is (loss, residual sum), the loss the same as without `out`
    x = dense(np.ones((2, 2, 2)))
    theta = np.zeros((2, 2, 2))
    buf = np.full_like(theta, np.nan)
    assert loss_and_working(x, theta, buf) == (loss_and_working(x, theta), 4.0)
    np.testing.assert_array_equal(buf, np.full((2, 2, 2), 2.0))


def test_loss_and_working_matches_references_dense_and_masked():
    rng = np.random.default_rng(11)
    shape = (6, 5, 4)
    # moderate logits plus cells at |theta| = 30, 745 and 800, where
    # exp(-|theta|) is tiny, subnormal or flushes to zero
    theta = rng.standard_normal(shape) * 4.0
    theta.reshape(-1)[:6] = [800.0, -800.0, 745.0, -745.0, 30.0, -30.0]
    vals = (rng.random(shape) < 0.5).astype(float)
    one_cell, all_but_one = np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool)
    one_cell.flat[37] = True
    all_but_one.flat[37] = False
    masks = [np.ones(shape, dtype=bool), one_cell, all_but_one]
    masks += [rng.random(shape) < frac for frac in (0.8, 0.45, 0.9)]
    for mask in masks:
        x = BinaryTensor(np.where(mask, vals, 0.0), mask)
        # references from independent formulas, outside the strict error state
        want_nll = float(np.sum(np.logaddexp(0.0, theta[mask])) - vals[mask] @ theta[mask])
        want_z = np.where(mask, theta + 4.0 * (x.values - expit(theta)), theta)
        want_resid = float(np.sum(vals[mask] - expit(theta[mask])))
        out = np.empty(shape)
        with np.errstate(all="raise"):
            nll, resid = loss_and_working(x, theta, out)
            loss_only = loss_and_working(x, theta)
            plain_nll = neg_loglik(x, theta)
        assert nll == pytest.approx(want_nll, rel=1e-12)
        assert resid == pytest.approx(want_resid, rel=1e-12, abs=1e-12)
        assert loss_only == nll
        assert plain_nll == pytest.approx(nll, rel=1e-12)
        np.testing.assert_allclose(out, want_z, rtol=0, atol=1e-12)
        # unobserved cells carry theta exactly
        assert np.array_equal(out[~mask], theta[~mask])
    # dense data takes one plain sum, bit for bit
    x = BinaryTensor.dense(vals)
    s = sigmoid(theta)
    one_sum = (np.maximum(theta, 0.0) - np.log(np.maximum(s, 1.0 - s))).sum()
    one_sum -= np.vdot(vals, theta)
    assert loss_and_working(x, theta, np.empty(shape))[0] == loss_and_working(x, theta) == one_sum


def _whole_array_scoring(x, theta):
    """The unblocked scoring chain on the whole logit tensor, operation for
    operation: (loss, working tensor, residual sum)."""
    s = sigmoid(theta)
    r = 4.0 * (x.values - s)
    if not x.fully_observed:
        r = r * x.mask
    cell_loss = np.maximum(theta, 0.0) - np.log(np.maximum(s, 1.0 - s))
    loss = cell_loss[x.mask].sum() - np.vdot(x.values, theta)
    return loss, theta + r, r.sum() / 4.0


def _blockwise_logits(pieces, rows):
    # each block's logits [U[a:b] diag(d), mu 1] [khatri_rao(V, W), 1]^T, both
    # factors C-ordered as in the kernel; a matmul over fewer rows, or over
    # another layout, may round differently
    mu, d, U, V, W = pieces
    ud = np.hstack([U * d, np.full((U.shape[0], 1), mu)])
    krt = np.ones((len(d) + 1, V.shape[0] * W.shape[0]))
    krt[:-1] = ops.khatri_rao(V, W).T
    blocks = [ud[a : a + rows] @ krt for a in range(0, U.shape[0], rows)]
    return np.concatenate(blocks).reshape(U.shape[0], V.shape[0], W.shape[0])


def _unit_columns(rng, p, r):
    f = rng.standard_normal((p, r))
    return f / np.linalg.norm(f, axis=0)


@pytest.mark.parametrize(
    "dims, n_blocks",
    [((70, 30, 40), 3), ((3, 200, 200), 3), ((5, 4, 3), 1)],
    ids=["blocks-with-remainder", "row-wider-than-block", "one-block"],
)
@pytest.mark.parametrize("rank", [0, 1, 3])
@pytest.mark.parametrize("masking", ["dense", "masked", "empty-first-block"])
def test_blocked_scoring_matches_whole_array_chain(dims, n_blocks, rank, masking):
    rng = np.random.default_rng(rank + 7 * len(masking))
    rows = max(1, BLOCK_CELLS // (dims[1] * dims[2]))  # mode-1 rows per block
    assert -(-dims[0] // rows) == n_blocks
    mask = np.ones(dims, dtype=bool)
    if masking != "dense":
        mask = rng.random(dims) < 0.7
    if masking == "empty-first-block":
        mask[:rows] = False
        mask[-1, 0, 0] = True
    mus = (0.3, 30.0, -745.0, 800.0) if rank == 0 else (0.3,)
    d = np.sort(rng.uniform(2.0, 9.0, rank))[::-1]
    U, V, W = (_unit_columns(rng, p, rank) for p in dims)
    for mu in mus:
        pieces = (mu, d, U, V, W)
        theta = ops.cp_reconstruct(*pieces)
        if rank:  # raw-array input also gets cells where exp(-|theta|) is tiny or 0
            theta.reshape(-1)[:6] = [800.0, -800.0, 745.0, -745.0, 30.0, -30.0]
        vals = (rng.random(dims) < 0.5).astype(float)
        x = BinaryTensor(np.where(mask, vals, 0.0), mask)
        blockwise = _blockwise_logits(pieces, rows)
        np.testing.assert_allclose(blockwise, ops.cp_reconstruct(*pieces), rtol=1e-14, atol=1e-14)
        for given, logits in ((theta, theta), (pieces, blockwise)):
            want_nll, want_z, want_resid = _whole_array_scoring(x, logits)
            out = np.full(dims, np.nan)
            with np.errstate(all="raise"):
                nll, resid = loss_and_working(x, given, out)
                loss_only = loss_and_working(x, given)
            assert np.array_equal(out, want_z)
            assert loss_only == nll
            assert nll == pytest.approx(want_nll, rel=1e-12)
            assert resid == pytest.approx(want_resid, rel=1e-12, abs=1e-12)
            if rank:
                m = LogitModel(mu, d, U, V, W)
                assert neg_loglik(x, m) == pytest.approx(neg_loglik(x, m.theta()), rel=1e-12)


def test_loss_and_working_rejects_shape_mismatch():
    x = dense(np.ones((2, 2, 2)))
    with pytest.raises(ValueError):
        loss_and_working(x, np.zeros((2, 2, 3)))


def test_majorizer_gap_nonnegative_on_grid():
    grid = np.arange(-10.0, 10.0 + 0.05, 0.1)
    th, an = np.meshgrid(grid, grid)
    for xv in (0.0, 1.0):
        gap = majorizer_gap(np.full_like(th, xv), th, an)
        assert gap.min() >= -1e-12
        diag = majorizer_gap(np.full_like(grid, xv), grid, grid)
        assert np.abs(diag).max() < 1e-12


def test_majorizer_gap_rejects_nonbinary_x():
    with pytest.raises(ValueError):
        majorizer_gap(np.array([0.5]), np.array([0.0]), np.array([0.0]))


def test_logit_model_reconstruction_and_validation():
    u = np.array([[1.0], [0.0]])
    v = np.array([[0.6], [0.8]])
    w = np.array([[0.0], [1.0]])
    m = LogitModel(0.25, [2.0], u, v, w)
    want = 0.25 + 2.0 * np.einsum("i,j,k->ijk", u[:, 0], v[:, 0], w[:, 0])
    np.testing.assert_allclose(m.theta(), want, atol=1e-12)
    np.testing.assert_allclose(m.probs(), sigmoid(want), atol=1e-12)
    with pytest.raises(ValueError):
        LogitModel(0.0, [1.0], 2 * u, v, w)  # non-unit column
    with pytest.raises(ValueError):
        LogitModel(0.0, [-1.0], u, v, w)  # negative weight
    with pytest.raises(ValueError):
        LogitModel(0.0, [1.0, 2.0], np.hstack([u, u]), np.hstack([v, v]), np.hstack([w, w]))


@pytest.mark.parametrize(
    "field, bad",
    [
        ("mu", math.nan),
        ("mu", math.inf),
        ("d", [math.nan]),
        ("d", [math.inf]),
        ("U", [[math.nan], [1.0]]),
        ("V", [[0.6], [math.inf]]),
        ("W", [[math.nan], [math.nan]]),
    ],
)
def test_logit_model_rejects_non_finite(field, bad):
    parts = {
        "mu": 0.25,
        "d": [2.0],
        "U": [[1.0], [0.0]],
        "V": [[0.6], [0.8]],
        "W": [[0.0], [1.0]],
    }
    parts[field] = bad
    with pytest.raises(ValueError, match="finite"):
        LogitModel(**parts)


def test_logit_model_rank_zero():
    m = LogitModel(0.5, [], np.zeros((2, 0)), np.zeros((3, 0)), np.zeros((4, 0)))
    assert m.rank == 0
    np.testing.assert_array_equal(m.theta(), np.full((2, 3, 4), 0.5))


def test_binary_tensor_validation():
    with pytest.raises(ValueError):
        BinaryTensor(np.full((2, 2, 2), 0.5), np.ones((2, 2, 2), dtype=bool))
    with pytest.raises(ValueError):
        BinaryTensor(np.zeros((2, 2, 2)), np.zeros((2, 2, 2), dtype=bool))
    with pytest.raises(ValueError):
        BinaryTensor(np.full((2, 2, 2), np.nan), np.ones((2, 2, 2), dtype=bool))
    # unobserved cells are zero-filled on construction
    vals = np.array([[[1.0, 7.0]]])
    mask = np.array([[[True, False]]])
    x = BinaryTensor(vals, mask)
    assert x.values[0, 0, 1] == 0.0
    assert x.n_observed == 1
    assert not x.fully_observed
    # in a copy: the caller's array keeps its values
    assert vals[0, 0, 1] == 7.0
    # a nan or an inf in an unobserved cell is zero-filled, not refused
    for bad in (np.nan, np.inf):
        assert BinaryTensor(np.array([[[1.0, bad]]]), mask).values[0, 0, 1] == 0.0


def test_binary_tensor_values_are_bool():
    rng = np.random.default_rng(4)
    draw = rng.random((5, 4, 3)) < 0.5
    mask = rng.random((5, 4, 3)) < 0.7
    for x in (BinaryTensor.dense(draw), BinaryTensor.dense(draw.astype(float)),
              BinaryTensor.dense(draw.astype(int).tolist()), BinaryTensor(draw, mask),
              BinaryTensor(draw.astype(float), mask)):
        assert x.values.dtype == bool
        assert np.array_equal(x.values, draw & x.mask)
    # bool input is taken as it is; a stray True in an unobserved cell is
    # cleared in a copy, leaving the caller's array as it was
    assert BinaryTensor.dense(draw).values is draw
    zero_filled = draw & mask
    assert BinaryTensor(zero_filled, mask).values is zero_filled
    assert np.count_nonzero(draw > mask) > 0
    before = draw.copy()
    assert BinaryTensor(draw, mask).values is not draw
    assert np.array_equal(draw, before)


def test_bool_values_convert_to_floats_exactly():
    x = BinaryTensor.dense(np.array([[[True, False, True]]]))
    signs = 2 * x.values - 1
    assert signs.tolist() == [[[1, -1, 1]]]
    np.testing.assert_array_equal(2.0 * x.values - 1.0, [[[1.0, -1.0, 1.0]]])
    np.testing.assert_array_equal(x.values - np.array([0.25, 0.5, 0.75]), [[[0.75, -0.5, 0.25]]])
    assert float(x.values.sum()) == 2.0


def test_predict_probs_and_impute():
    m = LogitModel(0.5, [3.0], np.array([[0.6], [-0.8]]), np.ones((1, 1)), np.array([[1.0], [0.0]]))
    np.testing.assert_allclose(m.probs(), sigmoid(m.theta()), atol=1e-15)
    np.testing.assert_allclose(m.probs()[:, 0, 0], sigmoid([2.3, -1.9]), atol=1e-15)
    labels = impute(np.array([0.2, 0.5, 0.8]))
    np.testing.assert_array_equal(labels, [0.0, 1.0, 1.0])  # 0.5 maps to 1
    with pytest.raises(ValueError):
        impute(np.array([1.2]))
    with pytest.raises(ValueError, match="probabilities"):
        impute(np.array([0.2, np.nan]))
    # both ends of [0, 1] are valid thresholds
    np.testing.assert_array_equal(impute([0.0, 0.7, 1.0], 0.0), [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(impute([0.0, 0.7, 1.0], 1.0), [0.0, 0.0, 1.0])


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf, -0.1, 1.5])
def test_impute_rejects_threshold_outside_unit_interval(threshold):
    with pytest.raises(ValueError, match="threshold"):
        impute([0.2, 0.7, 0.9], threshold)
