"""Bernoulli likelihood, the quadratic majorizer, and model containers."""

import math

import numpy as np
import pytest
from scipy.special import expit

from logitcp import ops
from logitcp.likelihood import (
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
    # the working tensor goes into `out` in full; the return value is the
    # loss, the same with or without `out`
    x = dense(np.ones((2, 2, 2)))
    theta = np.zeros((2, 2, 2))
    buf = np.full_like(theta, np.nan)
    assert loss_and_working(x, theta, buf) == loss_and_working(x, theta)
    np.testing.assert_array_equal(buf, np.full((2, 2, 2), 2.0))


def test_loss_and_working_matches_references_dense_and_masked():
    rng = np.random.default_rng(11)
    shape = (6, 5, 4)
    # moderate logits plus cells at |theta| = 30, 745 and 800, where
    # exp(-|theta|) is tiny, subnormal or flushes to zero
    theta = rng.standard_normal(shape) * 4.0
    theta.reshape(-1)[:6] = [800.0, -800.0, 745.0, -745.0, 30.0, -30.0]
    vals = (rng.random(shape) < 0.5).astype(float)
    masks = (np.ones(shape, dtype=bool), rng.random(shape) < 0.8)
    for mask in masks:
        x = BinaryTensor(np.where(mask, vals, 0.0), mask)
        # references from independent formulas, outside the strict error state
        want_nll = float(np.sum(np.logaddexp(0.0, theta[mask])) - vals[mask] @ theta[mask])
        want_z = np.where(mask, theta + 4.0 * (x.values - expit(theta)), theta)
        out = np.empty(shape)
        with np.errstate(all="raise"):
            nll = loss_and_working(x, theta, out)
            loss_only = loss_and_working(x, theta)
            plain_nll = neg_loglik(x, theta)
        assert nll == pytest.approx(want_nll, rel=1e-12)
        assert loss_only == nll
        assert plain_nll == pytest.approx(nll, rel=1e-12)
        np.testing.assert_allclose(out, want_z, rtol=0, atol=1e-12)
        # unobserved cells carry theta exactly
        assert np.array_equal(out[~mask], theta[~mask])


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


def test_predict_probs_and_impute():
    m = LogitModel(0.5, [3.0], np.array([[0.6], [-0.8]]), np.ones((1, 1)), np.array([[1.0], [0.0]]))
    np.testing.assert_allclose(m.probs(), sigmoid(m.theta()), atol=1e-15)
    np.testing.assert_allclose(m.probs()[:, 0, 0], sigmoid([2.3, -1.9]), atol=1e-15)
    labels = impute(np.array([0.2, 0.5, 0.8]))
    np.testing.assert_array_equal(labels, [0.0, 1.0, 1.0])  # 0.5 maps to 1
    with pytest.raises(ValueError):
        impute(np.array([1.2]))
