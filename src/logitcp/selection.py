"""Model complexity scores, cross-validation, and rank/sparsity selection.

Degrees of freedom count the free parameters of a logit CP model: one
offset plus the nonzero factor entries, minus 2R for the norm and scale
indeterminacies resolved by the unit-norm convention. AIC and BIC penalize
the residual deviance with 2*df and log(n_observed)*df. Cross-validation
splits the observed cells fold-wise, stratified by class so every training
fold keeps both zeros and ones.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import decomp, ops
from .likelihood import BinaryTensor, LogitModel, neg_loglik, deviance

__all__ = [
    "NONZERO_TOL",
    "model_df",
    "aic",
    "bic",
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


def model_df(model, tol=NONZERO_TOL):
    """1 + ||U||_0 + ||V||_0 + ||W||_0 - 2R, entries counted nonzero when
    |entry| > tol."""
    nnz = sum(int(np.sum(np.abs(f) > tol)) for f in (model.U, model.V, model.W))
    return 1 + nnz - 2 * model.rank


def aic(x, model):
    """Residual deviance plus 2 * df."""
    return deviance(x, model) + 2.0 * model_df(model)


def bic(x, model):
    """Residual deviance plus log(n_observed) * df."""
    return deviance(x, model) + math.log(x.n_observed) * model_df(model)


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
    """Candidate ranks and (optional) sparsity ratios to sweep."""

    ranks: tuple
    ratios: tuple | None = None
    criterion: str = "bic"
    cv_folds: int = 5

    def __post_init__(self):
        self.ranks = tuple(int(r) for r in self.ranks)
        if not self.ranks or min(self.ranks) < 1:
            raise ValueError("ranks must be positive integers")
        if self.ratios is not None:
            self.ratios = tuple(float(r) for r in self.ratios)
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
        smaller rank."""
        valid = [r for r in self.rows if r.valid and np.isfinite(r.score)]
        if not valid:
            raise ValueError("no valid grid cells to choose from")
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
                f"{repr(r.neg_loglik)},{int(r.valid)},{int(r.chosen)},{r.note}"
            )


def _cfg_for(cfg, dims, method, rank, ratio):
    if method in ("als", "tp"):
        return replace(cfg, rank=rank, penalty="none", c=None, s=None)
    if method == "tsp":
        if ratio is None:
            raise ValueError("tsp sweep needs a ratio")
        return replace(cfg, rank=rank, penalty="l1", c=decomp.c_from_ratio(dims, ratio), s=None)
    if method == "ttp":
        if ratio is None:
            raise ValueError("ttp sweep needs a ratio")
        return replace(cfg, rank=rank, penalty="l0", s=decomp.s_from_ratio(dims, ratio), c=None)
    raise ValueError(f"unknown method {method!r}")


def _subset(x, mask):
    return BinaryTensor(np.where(mask, x.values, 0.0), mask)


def _fit_ranks(x, cfg, method, ranks):
    """Models per rank at one penalty setting; the power family shares a
    single multi-start pool across ranks."""
    if method == "als":
        out = {}
        for r in ranks:
            out[r] = decomp.als_fit(x, replace(cfg, rank=r))
        return out
    return decomp.fit_rank_path(x, cfg, ranks)


def cross_validate(x, cfg, grid, method="tp", seed=None):
    """Mean held-out negative log-likelihood per grid cell.

    Cells that fail to fit are marked invalid with a note rather than
    aborting the sweep.
    """
    seed = cfg.seed if seed is None else seed
    folds = cv_split(x, grid.cv_folds, seed=_fold_seed(seed))
    ratios = grid.ratios if (grid.ratios and method in ("tsp", "ttp")) else (None,)
    table = ScoreTable(criterion="cv")
    for ratio in ratios:
        scores = {r: [] for r in grid.ranks}
        dfs = {r: [] for r in grid.ranks}
        note = ""
        try:
            cell_cfg = _cfg_for(cfg, x.dims, method, max(grid.ranks), ratio)
            for train_mask, test_mask in folds:
                train = _subset(x, train_mask)
                test = _subset(x, test_mask)
                models = _fit_ranks(train, cell_cfg, method, grid.ranks)
                for r in grid.ranks:
                    scores[r].append(neg_loglik(test, models[r].model))
                    dfs[r].append(model_df(models[r].model))
        except (ValueError, RuntimeError) as exc:
            note = f"failed: {exc}"
        for r in grid.ranks:
            if note or not scores[r]:
                table.rows.append(
                    ScoreRow(r, ratio, math.nan, math.nan, math.nan, valid=False, note=note)
                )
            else:
                table.rows.append(
                    ScoreRow(
                        r,
                        ratio,
                        float(np.mean(scores[r])),
                        float(np.mean(dfs[r])),
                        float(np.mean(scores[r])),
                    )
                )
    return table


def _fold_seed(seed):
    # cv_split takes a plain rng seed; tuples are folded into one
    if isinstance(seed, (tuple, list)):
        return tuple(int(s) for s in seed)
    return int(seed)


def ic_sweep(x, cfg, grid, method="tp", criterion="bic"):
    """AIC or BIC per grid cell, fitted on the full data."""
    if criterion not in ("aic", "bic"):
        raise ValueError("ic_sweep scores aic or bic")
    score_fn = aic if criterion == "aic" else bic
    ratios = grid.ratios if (grid.ratios and method in ("tsp", "ttp")) else (None,)
    table = ScoreTable(criterion=criterion)
    for ratio in ratios:
        try:
            cell_cfg = _cfg_for(cfg, x.dims, method, max(grid.ranks), ratio)
            models = _fit_ranks(x, cell_cfg, method, grid.ranks)
        except (ValueError, RuntimeError) as exc:
            for r in grid.ranks:
                table.rows.append(
                    ScoreRow(r, ratio, math.nan, math.nan, math.nan, valid=False,
                             note=f"failed: {exc}")
                )
            continue
        for r in grid.ranks:
            m = models[r].model
            table.rows.append(
                ScoreRow(r, ratio, score_fn(x, m), model_df(m), neg_loglik(x, m))
            )
    return table


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
    mu0 = decomp.final_offset(x)
    d0 = deviance(x, np.full(x.dims, mu0))
    if d0 == 0.0:
        raise ValueError("null deviance is zero; nothing to explain")
    ladder = [d0]
    for r in range(1, model.rank + 1):
        theta_r = ops.cp_reconstruct(
            model.mu, model.d[:r], model.U[:, :r], model.V[:, :r], model.W[:, :r]
        )
        ladder.append(deviance(x, theta_r))
    ladder = np.asarray(ladder)
    cumulative = 1.0 - ladder[1:] / d0
    marginal = (ladder[:-1] - ladder[1:]) / d0
    component_dev = np.array(
        [
            deviance(
                x,
                ops.cp_reconstruct(
                    model.mu,
                    model.d[r : r + 1],
                    model.U[:, r : r + 1],
                    model.V[:, r : r + 1],
                    model.W[:, r : r + 1],
                ),
            )
            for r in range(model.rank)
        ]
    )
    return ExplainedDeviance(float(d0), cumulative, marginal, component_dev)


def select_model(x, cfg, grid, method="tp"):
    """Two-stage grid selection.

    Stage 1 fixes the rank at max(grid.ranks) and sweeps the sparsity ratio
    by the grid's criterion; stage 2 sweeps ranks at the chosen ratio. For
    unpenalized methods (or a grid without ratios) only stage 2 runs. The
    deviance criterion ranks by the explained-deviance ladder and picks the
    largest rank whose marginal share is at least 1%.

    Returns (chosen_rank, chosen_ratio, ScoreTable).
    """
    criterion = grid.criterion
    sweep_ratio = grid.ratios is not None and method in ("tsp", "ttp")
    if method in ("tsp", "ttp") and not sweep_ratio:
        raise ValueError(f"method {method!r} needs grid.ratios")

    if criterion == "deviance":
        return _select_by_deviance(x, cfg, grid, method, sweep_ratio)

    chosen_ratio = None
    rows = []
    if sweep_ratio:
        stage1 = SelectionGrid(
            ranks=(max(grid.ranks),),
            ratios=grid.ratios,
            criterion=criterion,
            cv_folds=grid.cv_folds,
        )
        t1 = _score(x, cfg, stage1, method, criterion)
        chosen_ratio = t1.best().ratio
        rows.extend(t1.rows)
        stage2_ratios = (chosen_ratio,)
    else:
        stage2_ratios = None

    stage2 = SelectionGrid(
        ranks=grid.ranks,
        ratios=stage2_ratios,
        criterion=criterion,
        cv_folds=grid.cv_folds,
    )
    t2 = _score(x, cfg, stage2, method, criterion)
    best = t2.best()
    # stage-1 rows for the winning ratio duplicate stage-2 cells; keep the
    # stage-2 copy and mark the choice there
    seen = {(r.rank, r.ratio) for r in t2.rows}
    rows = [r for r in rows if (r.rank, r.ratio) not in seen] + t2.rows
    for r in rows:
        r.chosen = r is best
    table = ScoreTable(criterion=criterion, rows=rows)
    return best.rank, best.ratio, table


def _score(x, cfg, grid, method, criterion):
    if criterion == "cv":
        return cross_validate(x, cfg, grid, method)
    return ic_sweep(x, cfg, grid, method, criterion)


def _select_by_deviance(x, cfg, grid, method, sweep_ratio):
    if sweep_ratio and len(grid.ratios) != 1:
        raise ValueError(
            "the deviance criterion selects ranks; give a single ratio"
        )
    ratio = grid.ratios[0] if sweep_ratio else None
    r_max = max(grid.ranks)
    cell_cfg = _cfg_for(cfg, x.dims, method, r_max, ratio)
    models = _fit_ranks(x, cell_cfg, method, [r_max])
    report = models[r_max]
    ladder = explained_deviance(x, report.model)
    table = ScoreTable(criterion="deviance")
    for r in grid.ranks:
        if r <= report.model.rank:
            table.rows.append(
                ScoreRow(
                    rank=r,
                    ratio=ratio,
                    score=float(-ladder.cumulative[r - 1]),
                    df=model_df(report.model),
                    neg_loglik=float(ladder.null_deviance * (1 - ladder.cumulative[r - 1]) / 2),
                    note=f"marginal={ladder.marginal[r - 1]!r}",
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
        if r <= report.model.rank and ladder.marginal[r - 1] >= 0.01
    ]
    chosen = max(eligible) if eligible else min(grid.ranks)
    for row in table.rows:
        row.chosen = row.rank == chosen and row.valid
    return chosen, ratio, table
