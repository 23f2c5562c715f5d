"""Recovery metrics: logit RMSE, factor errors, support rates, AUC."""

import numpy as np
import pytest
from scipy.stats import rankdata

from logitcp.likelihood import BinaryTensor, LogitModel
from logitcp.metrics import (
    _average_ranks,
    completion_auc,
    evaluate,
    mean_error,
    rmse,
    tpr_fpr,
    weight_error,
)


def unit(vec):
    v = np.asarray(vec, dtype=float)
    return v / np.linalg.norm(v)


def rank_one(mu, d, u, v, w):
    return LogitModel(mu, [d], unit(u)[:, None], unit(v)[:, None], unit(w)[:, None])


def test_rmse_of_pure_offset_shift():
    u, v, w = [1.0, 2.0, 2.0], [3.0, 4.0], [1.0, 0.0]
    truth = rank_one(0.0, 2.0, u, v, w)
    fit = rank_one(0.7, 2.0, u, v, w)
    assert rmse(fit, truth) == pytest.approx(0.7, abs=1e-12)
    assert rmse(truth, truth) == 0.0


def test_rmse_refuses_other_dims_and_takes_other_ranks():
    truth = rank_one(0.0, 2.0, [1.0, 2.0, 2.0], [3.0, 4.0], [1.0, 0.0])
    wide = rank_one(0.0, 2.0, [1.0, 2.0, 2.0], [3.0, 4.0, 1.0], [1.0, 0.0])
    flat = LogitModel(0.0, [2.0], truth.U, np.ones((1, 1)), truth.W)  # broadcasts over mode 2
    for other in (wide, flat):
        with pytest.raises(ValueError) as err:
            rmse(other, truth)
        assert str(err.value) == f"dims mismatch: fit {other.dims} vs truth (3, 2, 2)"
    # logit tensors of different ranks are still comparable
    empty = LogitModel(0.0, [], np.zeros((3, 0)), np.zeros((2, 0)), np.zeros((2, 0)))
    assert rmse(empty, truth) == pytest.approx(np.sqrt(np.mean(truth.theta() ** 2)), abs=1e-12)


def test_mean_error_orthogonal_and_sign_flip():
    truth = rank_one(0.0, 2.0, [1, 0, 0, 0], [0, 1, 0], [1, 1])
    ortho = rank_one(0.0, 2.0, [0, 1, 0, 0], [1, 0, 0], [1, 1])
    # orthogonal unit columns differ by sqrt(2) in two modes, 0 in the third
    assert mean_error(ortho, truth) == pytest.approx(2 * np.sqrt(2) / 3, abs=1e-12)
    flipped = rank_one(0.0, 2.0, [-1, 0, 0, 0], [0, -1, 0], [1, 1])
    assert mean_error(flipped, truth) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="rank mismatch"):
        mean_error(
            LogitModel(0.0, [2.0, 1.0], np.eye(4)[:, :2], np.eye(3)[:, :2], np.eye(2)),
            truth,
        )


def test_mean_error_matches_components_by_weight_order():
    u1, u2 = unit([1, 0, 0, 0]), unit([0, 1, 0, 0])
    v1, v2 = unit([1, 0, 0]), unit([0, 1, 0])
    w1, w2 = unit([1, 1]), unit([1, -1])
    truth = LogitModel(
        0.0, [5.0, 2.0], np.column_stack([u1, u2]), np.column_stack([v1, v2]),
        np.column_stack([w1, w2]),
    )
    # same components stored in the same (sorted) order: zero error
    fit = LogitModel(
        0.0, [4.0, 3.0], np.column_stack([u1, u2]), np.column_stack([v1, v2]),
        np.column_stack([w1, w2]),
    )
    assert mean_error(fit, truth) == pytest.approx(0.0, abs=1e-12)


def test_weight_error_relative_norm():
    truth = rank_one(0.0, 4.0, [1, 1], [1, 0], [0, 1])
    fit = rank_one(0.0, 2.0, [1, 1], [1, 0], [0, 1])
    assert weight_error(fit, truth) == pytest.approx(0.5, abs=1e-12)
    assert weight_error(truth, truth) == 0.0


def test_tpr_fpr_hand_case():
    truth = rank_one(0.0, 3.0, [1, 1, 0, 0], [1, 0, 0], [1, 1])
    fit = rank_one(0.0, 3.0, [0, 1, 1, 0], [1, 0, 0], [1, 1])
    tpr, fpr, per_mode, notes = tpr_fpr(fit, truth)
    # U: support {0,1} vs flagged {1,2}: one of two hits, one of two zeros
    assert per_mode["U"] == (0.5, 0.5)
    assert per_mode["V"] == (1.0, 0.0)
    # W truth column is dense, so its FPR term is skipped with a note
    assert per_mode["W"][0] == 1.0 and np.isnan(per_mode["W"][1])
    assert notes == ["W column 1: no truth zeros, FPR skipped"]
    assert tpr == pytest.approx((0.5 + 1.0 + 1.0) / 3, abs=1e-12)
    assert fpr == pytest.approx((0.5 + 0.0) / 2, abs=1e-12)


def test_tpr_fpr_all_dense_truth_gives_nan_fpr():
    truth = rank_one(0.0, 3.0, [1, 1], [1, 1, 1], [1, 1])
    fit = rank_one(0.0, 3.0, [1, 0], [1, 1, 0], [0, 1])
    tpr, fpr, per_mode, notes = tpr_fpr(fit, truth)
    assert np.isnan(fpr)
    assert len(notes) == 3
    assert tpr == pytest.approx((1 / 2 + 2 / 3 + 1 / 2) / 3, abs=1e-12)


def test_evaluate_bundles_the_individual_metrics():
    truth = rank_one(0.1, 3.0, [1, 1, 0, 0], [1, 0, 0], [1, 1])
    fit = rank_one(0.3, 2.5, [0, 1, 1, 0], [1, 0, 0], [1, 1])
    rep = evaluate(fit, truth)
    assert rep.rmse == pytest.approx(rmse(fit, truth), abs=1e-12)
    assert rep.mean_error == pytest.approx(mean_error(fit, truth), abs=1e-12)
    assert rep.weight_error == pytest.approx(weight_error(fit, truth), abs=1e-12)
    t, f, per_mode, notes = tpr_fpr(fit, truth)
    assert (rep.tpr, rep.fpr) == (t, f)
    np.testing.assert_equal(rep.per_mode, per_mode)  # nan-tolerant
    assert rep.notes == notes


def test_completion_auc_extremes():
    labels = np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]]])
    mask = np.ones(labels.shape, dtype=bool)
    heldout = BinaryTensor(labels, mask)
    assert completion_auc(heldout, labels) == pytest.approx(1.0, abs=1e-12)
    assert completion_auc(heldout, 1.0 - labels) == pytest.approx(0.0, abs=1e-12)
    assert completion_auc(heldout, np.full(labels.shape, 0.4)) == pytest.approx(
        0.5, abs=1e-12
    )


def test_completion_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(0)
    dims = (5, 4, 3)
    labels = (rng.random(dims) < 0.5).astype(float)
    mask = rng.random(dims) < 0.6
    labels = np.where(mask, labels, 0.0)
    heldout = BinaryTensor(labels, mask)  # fixed seed keeps both classes
    probs = rng.random(dims).round(1)  # coarse grid forces ties
    got = completion_auc(heldout, probs)
    pos = probs[mask & (labels == 1.0)]
    neg = probs[mask & (labels == 0.0)]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    assert got == pytest.approx(wins / (pos.size * neg.size), abs=1e-12)


@pytest.mark.parametrize(
    "scores",
    [
        np.random.default_rng(5).random(50),  # no ties
        np.random.default_rng(6).integers(0, 4, 200).astype(float),  # heavy ties
        np.full(7, 0.3),  # all equal
        np.array([0.25]),
        np.array([0.9, 0.1]),
        np.array([0.5, 0.5]),
        np.array([0.0, -0.0, 1.0, 0.0]),  # signed zeros tie
    ],
)
def test_average_ranks_match_rankdata(scores):
    np.testing.assert_array_equal(_average_ranks(scores), rankdata(scores))


def test_completion_auc_error_paths():
    ones = np.ones((2, 2, 2))
    heldout = BinaryTensor(ones, np.ones((2, 2, 2), dtype=bool))
    with pytest.raises(ValueError, match="both classes"):
        completion_auc(heldout, np.full((2, 2, 2), 0.5))
    mixed = ones.copy()
    mixed[0, 0, 0] = 0.0
    heldout = BinaryTensor(mixed, np.ones((2, 2, 2), dtype=bool))
    with pytest.raises(ValueError, match="shape"):
        completion_auc(heldout, np.full((2, 2, 3), 0.5))
    probs = np.full((2, 2, 2), 0.5)
    probs[1, 1, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        completion_auc(heldout, probs)
