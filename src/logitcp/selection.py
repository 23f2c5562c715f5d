"""Model complexity scores, cross-validation, and rank/sparsity selection.

Degrees of freedom count the free parameters of a logit CP model: one
offset plus the nonzero factor entries, minus 2R for the norm and scale
indeterminacies resolved by the unit-norm convention. AIC and BIC penalize
the residual deviance with 2*df and log(n_observed)*df. Cross-validation
splits the observed cells fold-wise, stratified by class so every training
fold keeps both zeros and ones.

Both sweeps run one loop: for each sparsity ratio and each split (the full
data, or one fold's train and test masks) it fits the grid's ranks once
and scores each model with one likelihood pass. tsp and ttp need the
grid's ratios; tp and als refuse them.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import decomp
from .likelihood import BinaryTensor, LogitModel, neg_loglik, deviance

__all__ = [
    "NONZERO_TOL",
    "model_df",
    "aic",
    "bic",
    "information_criterion",
    "cv_split",
    "SelectionGrid",
    "ScoreRow",
    "ScoreTable",
    "cross_validate",
    "ic_sweep",
    "explained_deviance",
    "ExplainedDeviance",
    "select_model",
]

NONZERO_TOL = 1e-10


def model_df(model):
    """1 + ||U||_0 + ||V||_0 + ||W||_0 - 2R, entries counted nonzero when
    |entry| > NONZERO_TOL."""
    nnz = sum(int(np.sum(np.abs(f) > NONZERO_TOL)) for f in (model.U, model.V, model.W))
    return 1 + nnz - 2 * model.rank


def information_criterion(x, nll, df, criterion):
    """AIC or BIC of a model of x with negative log-likelihood nll and df
    degrees of freedom: 2 * nll + w * df, one degree of freedom costing
    w = 2 for AIC and log(n_observed) for BIC."""
    if criterion not in ("aic", "bic"):
        raise ValueError(f"an information criterion is aic or bic, got {criterion!r}")
    weight = 2.0 if criterion == "aic" else math.log(x.n_observed)
    return 2.0 * nll + weight * df


def aic(x, model):
    """Residual deviance plus 2 * df."""
    return information_criterion(x, neg_loglik(x, model), model_df(model), "aic")


def bic(x, model):
    """Residual deviance plus log(n_observed) * df."""
    return information_criterion(x, neg_loglik(x, model), model_df(model), "bic")


def cv_split(x, n_folds=5, seed=0):
    """Stratified fold masks over the observed cells.

    Ones and zeros are partitioned separately, so each fold holds roughly
    1/n_folds of either class. Returns a list of (train_mask, test_mask)
    boolean arrays; test masks are disjoint and union to the observed mask.
    """
    if n_folds < 2:
        raise ValueError("need at least 2 folds")
    rng = np.random.default_rng(seed)
    flat_mask = x.mask.ravel()
    flat_vals = x.values.ravel()
    fold_of = np.full(flat_mask.shape, -1, dtype=int)
    for label in (1.0, 0.0):
        stratum = np.flatnonzero(flat_mask & (flat_vals == label))
        name = "ones" if label == 1.0 else "zeros"
        if stratum.size < n_folds:
            raise ValueError(
                f"stratum of {name} has {stratum.size} observed cells, "
                f"fewer than {n_folds} folds"
            )
        rng.shuffle(stratum)
        fold_of[stratum] = np.arange(stratum.size) % n_folds
    folds = []
    for f in range(n_folds):
        test = (fold_of == f).reshape(x.mask.shape)
        train = x.mask & ~test
        folds.append((train, test))
    return folds


@dataclass
class SelectionGrid:
    """Candidate ranks and (optional) sparsity ratios to sweep; a repeated
    value is one grid cell, kept at its first position."""

    ranks: tuple
    ratios: tuple | None = None
    criterion: str = "bic"
    cv_folds: int = 5

    def __post_init__(self):
        self.ranks = tuple(dict.fromkeys(int(r) for r in self.ranks))
        if not self.ranks or min(self.ranks) < 1:
            raise ValueError("ranks must be positive integers")
        if self.ratios is not None:
            self.ratios = tuple(dict.fromkeys(float(r) for r in self.ratios))
            if not self.ratios:
                self.ratios = None
        if self.criterion not in ("aic", "bic", "cv", "deviance"):
            raise ValueError(f"unknown criterion {self.criterion!r}")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be >= 2")


@dataclass
class ScoreRow:
    rank: int
    ratio: float | None
    score: float
    df: float
    neg_loglik: float
    valid: bool = True
    chosen: bool = False
    note: str = ""


@dataclass
class ScoreTable:
    criterion: str
    rows: list = field(default_factory=list)

    def best(self):
        """Lowest valid score; ties prefer the sparser ratio, then the
        smaller rank. With no valid cell the error quotes the first
        invalid row's note, which says why its fit failed."""
        valid = [r for r in self.rows if r.valid and np.isfinite(r.score)]
        if not valid:
            cause = next((f" ({r.note})" for r in self.rows if not r.valid and r.note), "")
            raise ValueError(f"no valid grid cells to choose from{cause}")
        return min(
            valid,
            key=lambda r: (
                r.score,
                r.ratio if r.ratio is not None else math.inf,
                r.rank,
            ),
        )

    def csv_lines(self):
        yield "rank,ratio,score,df,neg_loglik,valid,chosen,note"
        for r in self.rows:
            ratio = "" if r.ratio is None else repr(r.ratio)
            yield (
                f"{r.rank},{ratio},{repr(r.score)},{repr(float(r.df))},"
                f"{repr(r.neg_loglik)},{int(r.valid)},{int(r.chosen)},{_csv_field(r.note)}"
            )


def _csv_field(text):
    # csv.QUOTE_MINIMAL: quote only a field holding a comma, quote or line
    # break, doubling its quotes
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _fit_ranks(x, cfg, method, ranks):
    """Models per rank at one penalty setting; the power family shares a
    single multi-start pool across ranks."""
    if method == "als":
        return {r: decomp.als_fit(x, replace(cfg, rank=r)) for r in ranks}
    return decomp.fit_rank_path(x, cfg, ranks)


def _grid_ratios(grid, method):
    """The ratios a sweep of `method` visits: tsp and ttp need grid.ratios,
    and tp and als, which have no penalty, refuse them (one None cell)."""
    if decomp._penalty_of(method) == "none":
        if grid.ratios is not None:
            raise ValueError(f"method {method!r} takes no grid.ratios")
        return (None,)
    if grid.ratios is None:
        raise ValueError(f"method {method!r} needs grid.ratios")
    return grid.ratios


def _sweep(x, cfg, grid, method, criterion, folds=None):
    """One row per (ratio, rank) grid cell, ratios outermost.

    Each split, the full data or one fold's (train, test) masks, fits every
    grid rank at the ratio once; each model is scored once on the split's
    scoring cells. A row holds the mean neg_loglik and df over the splits;
    cv scores that neg_loglik, aic and bic their information_criterion.
    A ratio whose fit raises ValueError or RuntimeError gets invalid rows
    with the message as a note rather than aborting the sweep.
    """
    ratios = _grid_ratios(grid, method)
    if not folds:  # folds are scored by cv; refuse any other criterion before a fit
        information_criterion(x, 0.0, 0, criterion)
    cfg = replace(cfg, rank=max(grid.ranks))
    table = ScoreTable(criterion=criterion)
    for ratio in ratios:
        nll = {r: [] for r in grid.ranks}
        dfs = {r: [] for r in grid.ranks}
        try:
            cell_cfg = decomp.method_config(cfg, method, x.dims, ratio)
            for train, test in folds or [(x.mask, x.mask)]:
                models = _fit_ranks(BinaryTensor(x.values, train), cell_cfg, method, grid.ranks)
                score_on = BinaryTensor(x.values, test)
                for r in grid.ranks:
                    nll[r].append(neg_loglik(score_on, models[r].model))
                    dfs[r].append(model_df(models[r].model))
        except (ValueError, RuntimeError) as exc:
            table.rows.extend(
                ScoreRow(r, ratio, math.nan, math.nan, math.nan, valid=False,
                         note=f"failed: {exc}")
                for r in grid.ranks
            )
            continue
        for r in grid.ranks:
            mean_nll, mean_df = float(np.mean(nll[r])), float(np.mean(dfs[r]))
            score = mean_nll if folds else information_criterion(x, mean_nll, mean_df, criterion)
            table.rows.append(ScoreRow(r, ratio, score, mean_df, mean_nll))
    return table


def cross_validate(x, cfg, grid, method="tp"):
    """Mean held-out negative log-likelihood per grid cell, over
    grid.cv_folds folds drawn from cfg.seed.

    Cells that fail to fit are marked invalid with a note rather than
    aborting the sweep.
    """
    folds = cv_split(x, grid.cv_folds, seed=decomp._seed_tuple(cfg.seed))
    return _sweep(x, cfg, grid, method, "cv", folds)


def ic_sweep(x, cfg, grid, method="tp"):
    """grid.criterion, AIC or BIC, per grid cell, fitted on the full data."""
    return _sweep(x, cfg, grid, method, grid.criterion)


@dataclass
class ExplainedDeviance:
    """Deviance ladder of a fitted model.

    cumulative[r-1] = 1 - D(first r components)/D(offset-only MLE);
    marginal[r-1] is the share claimed by component r alone on that ladder,
    so cumulative == cumsum(marginal) exactly. component_deviance[r-1] is
    the deviance of component r by itself (with the model offset).
    """

    null_deviance: float
    cumulative: np.ndarray
    marginal: np.ndarray
    component_deviance: np.ndarray


def explained_deviance(x, model):
    """Cumulative and marginal explained deviance per component."""
    if model.rank < 1:
        raise ValueError("explained_deviance needs a model with at least one component")

    def dev(mu, cols):  # deviance of offset mu plus the components in slice cols
        return deviance(x, (mu, model.d[cols], *(f[:, cols] for f in (model.U, model.V, model.W))))

    d0 = dev(decomp.final_offset(x), slice(0))
    if d0 == 0.0:
        raise ValueError("null deviance is zero; nothing to explain")
    ladder = np.array([d0] + [dev(model.mu, slice(r)) for r in range(1, model.rank + 1)])
    cumulative = 1.0 - ladder[1:] / d0
    marginal = (ladder[:-1] - ladder[1:]) / d0
    component_dev = np.array([dev(model.mu, slice(r, r + 1)) for r in range(model.rank)])
    return ExplainedDeviance(float(d0), cumulative, marginal, component_dev)


def select_model(x, cfg, grid, method="tp"):
    """Two-stage grid selection from one sweep of the whole grid.

    Stage 1 fixes the rank at max(grid.ranks) and picks the sparsity ratio
    by the grid's criterion; stage 2 picks the rank among the rows at the
    chosen ratio. Both stages read one table: the power family builds every
    rank at a ratio from one multi-start pool (per fold), the same pool a
    rank sweep at that ratio alone would fit. tsp and ttp need grid.ratios;
    tp and als refuse them, and only stage 2 applies. The returned table
    holds the stage-1 rows of the other ratios, then the stage-2 rows. The
    deviance criterion ranks by the explained-deviance ladder and picks the
    largest rank whose marginal share is at least 1%.

    Returns (chosen_rank, chosen_ratio, ScoreTable).
    """
    criterion = grid.criterion
    if criterion == "deviance":
        return _select_by_deviance(x, cfg, grid, method)

    sweep = cross_validate if criterion == "cv" else ic_sweep
    rows = stage2 = sweep(x, cfg, grid, method).rows
    if grid.ratios is not None:  # the sweep refused ratios for tp and als
        stage1 = [r for r in rows if r.rank == max(grid.ranks)]
        ratio = ScoreTable(criterion, stage1).best().ratio
        stage2 = [r for r in rows if r.ratio == ratio]
        rows = [r for r in stage1 if r.ratio != ratio] + stage2
    best = ScoreTable(criterion, stage2).best()
    for r in rows:
        r.chosen = r is best
    return best.rank, best.ratio, ScoreTable(criterion=criterion, rows=rows)


def _select_by_deviance(x, cfg, grid, method):
    ratios = _grid_ratios(grid, method)
    if len(ratios) != 1:
        raise ValueError("the deviance criterion selects ranks; give a single ratio")
    (ratio,) = ratios
    r_max = max(grid.ranks)
    cell_cfg = decomp.method_config(replace(cfg, rank=r_max), method, x.dims, ratio)
    models = _fit_ranks(x, cell_cfg, method, [r_max])
    m = models[r_max].model
    ladder = explained_deviance(x, m)
    table = ScoreTable(criterion="deviance")
    for r in grid.ranks:
        if r <= m.rank:
            # each row scores the rank-r prefix of the fitted model
            prefix = LogitModel(m.mu, m.d[:r], m.U[:, :r], m.V[:, :r], m.W[:, :r])
            table.rows.append(
                ScoreRow(
                    rank=r,
                    ratio=ratio,
                    score=float(-ladder.cumulative[r - 1]),
                    df=model_df(prefix),
                    neg_loglik=float(ladder.null_deviance * (1 - ladder.cumulative[r - 1]) / 2),
                    note=f"marginal={float(ladder.marginal[r - 1])!r}",
                )
            )
        else:
            table.rows.append(
                ScoreRow(r, ratio, math.nan, math.nan, math.nan, valid=False,
                         note="rank exceeds fitted components")
            )
    eligible = [
        r
        for r in grid.ranks
        if r <= m.rank and ladder.marginal[r - 1] >= 0.01
    ]
    chosen = max(eligible) if eligible else min(grid.ranks)
    for row in table.rows:
        row.chosen = row.rank == chosen and row.valid
    return chosen, ratio, table
