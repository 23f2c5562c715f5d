"""Model scoring and selection: df, AIC/BIC, CV folds, deviance ladder."""

import math
from dataclasses import replace

import numpy as np
import pytest

from logitcp import selection
from logitcp.decomp import FitConfig, final_offset, fit, fit_rank_path, method_config
from logitcp.likelihood import BinaryTensor, LogitModel, deviance, neg_loglik, sigmoid
from logitcp.selection import (
    SelectionGrid,
    aic,
    bic,
    cross_validate,
    cv_split,
    explained_deviance,
    ic_sweep,
    model_df,
    select_model,
)


def unit(vec):
    v = np.asarray(vec, dtype=float)
    return v / np.linalg.norm(v)


def sparse_model():
    u = unit([3.0, 4.0, 0.0, 0.0])  # 2 nonzeros
    v = unit([1.0, 0.0, 1.0])  # 2 nonzeros
    w = unit([0.0, 1.0])  # 1 nonzero
    return LogitModel(0.1, [2.0], u[:, None], v[:, None], w[:, None])


def bernoulli(theta, seed=0):
    rng = np.random.default_rng(seed)
    return BinaryTensor.dense((rng.random(theta.shape) < sigmoid(theta)).astype(float))


def test_model_df_counts_nonzeros():
    # df = 1 + nnz(U) + nnz(V) + nnz(W) - 2R
    assert model_df(sparse_model()) == 1 + (2 + 2 + 1) - 2
    dense = LogitModel(
        0.0,
        [1.0, 0.5],
        np.linalg.qr(np.random.default_rng(0).standard_normal((4, 2)))[0],
        np.linalg.qr(np.random.default_rng(1).standard_normal((3, 2)))[0],
        np.linalg.qr(np.random.default_rng(2).standard_normal((5, 2)))[0],
    )
    assert model_df(dense) == 1 + 2 * (4 + 3 + 5) - 4


def test_aic_bic_formulas_and_identity():
    m = sparse_model()
    x = bernoulli(m.theta(), seed=1)
    df = model_df(m)
    dev = deviance(x, m)
    assert aic(x, m) == pytest.approx(dev + 2 * df, abs=1e-10)
    assert bic(x, m) == pytest.approx(dev + math.log(x.n_observed) * df, abs=1e-10)
    assert bic(x, m) - aic(x, m) == pytest.approx((math.log(24) - 2) * df, abs=1e-10)
    # both are the one formula on the model's scored likelihood, bit for bit
    nll = neg_loglik(x, m)
    assert aic(x, m) == selection.information_criterion(x, nll, df, "aic")
    assert bic(x, m) == selection.information_criterion(x, nll, df, "bic")
    with pytest.raises(ValueError, match="aic or bic"):
        selection.information_criterion(x, nll, df, "cv")


def test_bic_masked_uses_observed_count():
    m = sparse_model()
    full = bernoulli(m.theta(), seed=2)
    mask = np.ones(full.dims, dtype=bool)
    mask[0, 0, 0] = False
    vals = np.where(mask, full.values, 0.0)
    masked = BinaryTensor(vals, mask)
    assert masked.n_observed == 23
    df = model_df(m)
    assert bic(masked, m) == pytest.approx(
        deviance(masked, m) + math.log(23) * df, abs=1e-10
    )


def test_cv_split_partitions_and_stratifies():
    rng = np.random.default_rng(3)
    vals = (rng.random((8, 6, 5)) < 0.3).astype(float)
    x = BinaryTensor.dense(vals)
    folds = cv_split(x, 5, seed=7)
    assert len(folds) == 5
    union = np.zeros(x.dims, dtype=bool)
    ones_share = vals.mean()
    for train, test in folds:
        assert not np.any(union & test)  # disjoint test masks
        union |= test
        assert np.array_equal(train, x.mask & ~test)
        fold_share = vals[test].mean()
        assert abs(fold_share - ones_share) <= 1.0 / test.sum() + 1e-12
    assert np.array_equal(union, x.mask)


def test_fold_tensors_hold_bool_values():
    rng = np.random.default_rng(5)
    x = BinaryTensor.dense(rng.random((8, 6, 5)) < 0.3)
    for train, test in cv_split(x, 3, seed=2):
        for mask in (train, test):
            fold = BinaryTensor(x.values, mask)
            assert fold.values.dtype == bool
            assert np.array_equal(fold.values, x.values & mask)


def test_cv_split_is_deterministic_and_checks_strata():
    rng = np.random.default_rng(4)
    vals = (rng.random((6, 5, 4)) < 0.4).astype(float)
    x = BinaryTensor.dense(vals)
    a = cv_split(x, 4, seed=1)
    b = cv_split(x, 4, seed=1)
    for (tra, tea), (trb, teb) in zip(a, b):
        assert np.array_equal(tea, teb) and np.array_equal(tra, trb)
    sparse_ones = np.zeros((3, 3, 3))
    sparse_ones[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="ones"):
        cv_split(BinaryTensor.dense(sparse_ones), 5)
    with pytest.raises(ValueError):
        cv_split(x, 1)


def test_explained_deviance_telescopes():
    rng = np.random.default_rng(5)
    u1, u2 = unit(rng.standard_normal(8)), unit(rng.standard_normal(8))
    v1, v2 = unit(rng.standard_normal(6)), unit(rng.standard_normal(6))
    w1, w2 = unit(rng.standard_normal(4)), unit(rng.standard_normal(4))
    m = LogitModel(
        0.2,
        [6.0, 3.0],
        np.column_stack([u1, u2]),
        np.column_stack([v1, v2]),
        np.column_stack([w1, w2]),
    )
    x = bernoulli(m.theta(), seed=6)
    ladder = explained_deviance(x, m)
    np.testing.assert_allclose(np.cumsum(ladder.marginal), ladder.cumulative, atol=1e-12)
    null_dev = deviance(x, np.full(x.dims, final_offset(x)))
    assert ladder.null_deviance == pytest.approx(null_dev, abs=1e-8)
    assert ladder.cumulative[-1] == pytest.approx(1.0 - deviance(x, m) / null_dev, abs=1e-10)
    assert ladder.component_deviance.shape == (2,)
    with pytest.raises(ValueError):
        explained_deviance(x, LogitModel(0.0, [], np.zeros((8, 0)), np.zeros((6, 0)), np.zeros((4, 0))))


def test_ic_sweep_scores_match_direct_recomputation():
    rng = np.random.default_rng(7)
    u, v, w = unit(rng.standard_normal(15)), unit(rng.standard_normal(7)), unit(rng.standard_normal(5))
    theta = 12.0 * np.einsum("i,j,k->ijk", u, v, w)
    x = bernoulli(theta, seed=8)
    cfg = FitConfig(rank=2, n_starts=4, seed=9)
    grid = SelectionGrid(ranks=(1, 2), criterion="aic")
    table = ic_sweep(x, cfg, grid, method="tp")
    assert [r.rank for r in table.rows] == [1, 2]
    for row in table.rows:
        assert row.valid
        assert row.score == pytest.approx(2 * row.neg_loglik + 2 * row.df, abs=1e-8)
    with pytest.raises(ValueError):
        ic_sweep(x, cfg, SelectionGrid(ranks=(1, 2), criterion="cv"))


@pytest.mark.parametrize("method, ratios", [("tp", None), ("ttp", (0.6, 1.0))])
def test_bic_rows_equal_bic_of_the_swept_models(method, ratios):
    # each row scores its model once; the score is bic() of that model
    # bit for bit
    x = sparse_signal(26)
    cfg = FitConfig(rank=1, n_starts=4, seed=27)
    grid = SelectionGrid(ranks=(1, 2), ratios=ratios, criterion="bic")
    table = ic_sweep(x, cfg, grid, method=method)
    assert table.criterion == "bic"
    rows = iter(table.rows)
    for ratio in ratios or (None,):
        cell_cfg = method_config(replace(cfg, rank=2), method, x.dims, ratio)
        models = fit_rank_path(x, cell_cfg, grid.ranks)
        for r in grid.ranks:
            row = next(rows)
            assert (row.rank, row.ratio, row.valid) == (r, ratio, True)
            assert row.score == bic(x, models[r].model)
            assert row.df == model_df(models[r].model)


@pytest.mark.parametrize("criterion", ["aic", "cv", "deviance"])
@pytest.mark.parametrize(
    "method, ratios, message",
    [("tp", (0.5,), "method 'tp' takes no grid.ratios"),
     ("als", (0.5,), "method 'als' takes no grid.ratios"),
     ("tsp", None, "method 'tsp' needs grid.ratios"),
     ("ttp", None, "method 'ttp' needs grid.ratios"),
     ("nmf", None, "unknown method 'nmf'")],
)
def test_ratio_rule_is_checked_before_any_fit(monkeypatch, criterion, method, ratios, message):
    def refuse(*args):
        raise AssertionError("fitted before the ratio rule ran")

    monkeypatch.setattr(selection, "_fit_ranks", refuse)
    x = sparse_signal(28)
    cfg = FitConfig(rank=1, n_starts=2, seed=29)
    grid = SelectionGrid(ranks=(1,), ratios=ratios, criterion=criterion, cv_folds=2)
    with pytest.raises(ValueError, match=message):
        select_model(x, cfg, grid, method=method)
    if criterion == "cv":
        with pytest.raises(ValueError, match=message):
            cross_validate(x, cfg, grid, method=method)
    if criterion == "aic":
        with pytest.raises(ValueError, match=message):
            ic_sweep(x, cfg, grid, method=method)


def test_cross_validate_single_cell_matches_manual_fold_loop():
    rng = np.random.default_rng(10)
    u, v, w = unit(rng.standard_normal(10)), unit(rng.standard_normal(6)), unit(rng.standard_normal(4))
    theta = 10.0 * np.einsum("i,j,k->ijk", u, v, w)
    x = bernoulli(theta, seed=11)
    cfg = FitConfig(rank=1, n_starts=2, seed=12)
    grid = SelectionGrid(ranks=(1,), criterion="cv", cv_folds=3)
    table = cross_validate(x, cfg, grid, method="tp")
    (row,) = table.rows
    assert row.valid
    from logitcp.decomp import _seed_tuple  # same folds as the sweep
    from logitcp.likelihood import neg_loglik

    folds = cv_split(x, 3, seed=_seed_tuple(12))
    scores = []
    for train, test in folds:
        xtr = BinaryTensor(np.where(train, x.values, 0.0), train)
        xte = BinaryTensor(np.where(test, x.values, 0.0), test)
        rep = fit(xtr, cfg, "tp")
        scores.append(neg_loglik(xte, rep.model))
    assert row.score == pytest.approx(float(np.mean(scores)), abs=1e-8)


def test_select_model_deviance_rule_picks_strong_component_only():
    rng = np.random.default_rng(13)
    u, v, w = unit(rng.standard_normal(20)), unit(rng.standard_normal(8)), unit(rng.standard_normal(6))
    theta = 25.0 * np.einsum("i,j,k->ijk", u, v, w)
    x = bernoulli(theta, seed=14)
    cfg = FitConfig(rank=2, n_starts=6, seed=15)
    grid = SelectionGrid(ranks=(1, 2), criterion="deviance")
    rank, ratio, table = select_model(x, cfg, grid, method="tp")
    assert ratio is None
    assert rank == 1  # the second component explains under 1% of the null deviance
    chosen = [r for r in table.rows if r.chosen]
    assert len(chosen) == 1 and chosen[0].rank == 1


@pytest.mark.parametrize("method, ratio", [("tp", None), ("ttp", 0.5)])
def test_deviance_rows_carry_their_own_prefix_df(method, ratio):
    rng = np.random.default_rng(19)
    dims = (20, 10, 8)
    theta = sum(
        wt * np.einsum("i,j,k->ijk", *(unit(rng.standard_normal(p)) for p in dims))
        for wt in (40.0, 25.0)
    )
    x = bernoulli(theta, seed=20)
    grid = SelectionGrid(ranks=(1, 2), ratios=None if ratio is None else (ratio,),
                         criterion="deviance")
    _, _, table = select_model(x, FitConfig(rank=2, n_starts=4, seed=21), grid, method=method)
    # tp factors are dense; ttp keeps exactly s_i = floor(ratio * p_i) entries
    nnz = sum(dims) if ratio is None else sum(int(ratio * p) for p in dims)
    assert [(row.rank, row.df) for row in table.rows] == [
        (r, 1 + r * nnz - 2 * r) for r in (1, 2)
    ]


@pytest.mark.parametrize("criterion", ["aic", "cv"])
def test_select_model_als_takes_a_pool_smaller_than_its_ranks(criterion):
    # ALS fits each rank from one start, so n_starts=1 must not invalidate
    # the rank-2 rows; each row scores the ALS fit at its rank
    rng = np.random.default_rng(23)
    theta = 15.0 * np.einsum("i,j,k->ijk", *(unit(rng.standard_normal(p)) for p in (12, 6, 5)))
    x = bernoulli(theta, seed=24)
    grid = SelectionGrid(ranks=(1, 2), criterion=criterion, cv_folds=2)
    rank, ratio, table = select_model(x, FitConfig(rank=1, n_starts=1, seed=25), grid, method="als")
    assert rank in (1, 2) and ratio is None
    assert [(row.rank, row.valid) for row in table.rows] == [(1, True), (2, True)]
    if criterion == "aic":
        for row in table.rows:
            model = fit(x, FitConfig(rank=row.rank, seed=25), "als").model
            assert row.score == aic(x, model)


def test_select_model_two_stage_with_ratios():
    rng = np.random.default_rng(16)
    u = np.zeros(12)
    u[:3] = unit(rng.standard_normal(3))
    v = np.zeros(6)
    v[:2] = unit(rng.standard_normal(2))
    w = unit(rng.standard_normal(4))
    theta = 20.0 * np.einsum("i,j,k->ijk", u, v, w)
    x = bernoulli(theta, seed=17)
    cfg = FitConfig(rank=1, n_starts=4, seed=18)
    grid = SelectionGrid(ranks=(1, 2), ratios=(0.6, 1.0), criterion="aic")
    rank, ratio, table = select_model(x, cfg, grid, method="ttp")
    assert ratio in (0.6, 1.0)
    assert rank in (1, 2)
    # stage-1 rows (rank fixed at max) plus stage-2 rows, no duplicates
    keys = [(r.rank, r.ratio) for r in table.rows]
    assert len(keys) == len(set(keys))
    assert sum(r.chosen for r in table.rows) == 1
    with pytest.raises(ValueError):
        select_model(x, cfg, SelectionGrid(ranks=(1,), criterion="aic"), method="ttp")
    repeated = SelectionGrid(ranks=(2, 1, 2), ratios=(0.6, 1.0, 0.6), criterion="aic")
    assert (repeated.ranks, repeated.ratios) == ((2, 1), (0.6, 1.0))


def sparse_signal(seed):
    rng = np.random.default_rng(seed)
    u = np.zeros(12)
    u[:3] = unit(rng.standard_normal(3))
    v = np.zeros(6)
    v[:2] = unit(rng.standard_normal(2))
    w = unit(rng.standard_normal(4))
    return bernoulli(20.0 * np.einsum("i,j,k->ijk", u, v, w), seed=seed + 1)


@pytest.mark.parametrize("criterion", ["aic", "cv"])
def test_select_model_rows_equal_full_grid_cells(criterion):
    x = sparse_signal(19)
    cfg = FitConfig(rank=1, n_starts=4, seed=20)
    grid = SelectionGrid(ranks=(1, 2, 3), ratios=(0.4, 0.7, 1.0), criterion=criterion, cv_folds=3)
    rank, ratio, table = select_model(x, cfg, grid, method="ttp")
    if criterion == "cv":
        full = cross_validate(x, cfg, grid, method="ttp")
    else:
        full = ic_sweep(x, cfg, grid, method="ttp")
    cells = {(r.rank, r.ratio): r for r in full.rows}
    # the other ratios at the largest rank in grid order, then every rank
    # at the chosen ratio
    expected = [(3, q) for q in grid.ratios if q != ratio] + [(r, ratio) for r in grid.ranks]
    assert [(r.rank, r.ratio) for r in table.rows] == expected
    for row in table.rows:
        cell = cells[(row.rank, row.ratio)]
        got = (row.score, row.df, row.neg_loglik, row.valid, row.note)
        assert got == (cell.score, cell.df, cell.neg_loglik, cell.valid, cell.note)
        assert row.chosen == ((row.rank, row.ratio) == (rank, ratio))
    assert sum(r.chosen for r in table.rows) == 1


def test_sweeps_mark_a_ratio_with_empty_support_invalid():
    x = sparse_signal(21)
    cfg = FitConfig(rank=1, n_starts=3, seed=22)
    grid = SelectionGrid(ranks=(1, 2), ratios=(0.01, 0.6), criterion="aic", cv_folds=3)
    for table in (
        ic_sweep(x, cfg, grid, method="ttp"),
        cross_validate(x, cfg, grid, method="ttp"),
    ):
        assert [(r.rank, r.ratio) for r in table.rows] == [(1, 0.01), (2, 0.01), (1, 0.6), (2, 0.6)]
        for row in table.rows[:2]:  # s_from_ratio gives 0 entries per mode
            assert not row.valid and math.isnan(row.score)
            assert row.note.startswith("failed:")
        for row in table.rows[2:]:
            assert row.valid and np.isfinite(row.score) and row.note == ""


def test_score_table_best_tie_rules():
    from logitcp.selection import ScoreRow, ScoreTable

    table = ScoreTable(
        criterion="aic",
        rows=[
            ScoreRow(rank=2, ratio=0.8, score=10.0, df=5, neg_loglik=1.0),
            ScoreRow(rank=1, ratio=0.4, score=10.0, df=5, neg_loglik=1.0),
            ScoreRow(rank=3, ratio=0.4, score=10.0, df=5, neg_loglik=1.0),
        ],
    )
    best = table.best()
    assert (best.rank, best.ratio) == (1, 0.4)  # sparser ratio first, then smaller rank
    empty = ScoreTable(criterion="aic", rows=[ScoreRow(1, None, float("nan"), 0, 0.0)])
    with pytest.raises(ValueError):
        empty.best()
