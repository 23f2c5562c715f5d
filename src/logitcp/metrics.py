"""Recovery and prediction metrics against a known ground truth.

Factor comparisons resolve the CP sign ambiguity per column and the
permutation ambiguity by weight order: LogitModel keeps its components
sorted by nonincreasing weight, so both models are matched index by index.
"""

from dataclasses import dataclass, field

import numpy as np

from .selection import NONZERO_TOL

__all__ = [
    "EvalReport",
    "rmse",
    "mean_error",
    "weight_error",
    "tpr_fpr",
    "evaluate",
    "completion_auc",
]


def _check_dims(fit, truth):
    if fit.dims != truth.dims:
        raise ValueError(f"dims mismatch: fit {fit.dims} vs truth {truth.dims}")


def _check_ranks(fit, truth):
    if fit.rank != truth.rank:
        raise ValueError(f"rank mismatch: fit {fit.rank} vs truth {truth.rank}")
    _check_dims(fit, truth)


def rmse(fit, truth):
    """Root mean squared error between the full logit tensors,
    ||theta_hat - theta*||_F / sqrt(p1 p2 p3). The ranks may differ; the
    dims may not."""
    _check_dims(fit, truth)
    diff = fit.theta() - truth.theta()
    return np.linalg.norm(diff) / np.sqrt(diff.size)


def _column_error(a, b):
    return min(np.linalg.norm(a - b), np.linalg.norm(a + b))


def mean_error(fit, truth):
    """Sign-resolved factor error, averaged over components and modes."""
    _check_ranks(fit, truth)
    per_mode = []
    for fhat, ftrue in ((fit.U, truth.U), (fit.V, truth.V), (fit.W, truth.W)):
        errs = [_column_error(fhat[:, r], ftrue[:, r]) for r in range(fit.rank)]
        per_mode.append(float(np.mean(errs)))
    return float(np.mean(per_mode))


def weight_error(fit, truth):
    """Relative weight error ||d_hat - d*||_2 / ||d*||_2."""
    _check_ranks(fit, truth)
    return float(np.linalg.norm(fit.d - truth.d) / np.linalg.norm(truth.d))


def tpr_fpr(fit, truth):
    """Support recovery rates, averaged over components then modes.

    For each truth column, TPR is the recovered fraction of its support and
    FPR the flagged fraction of its zero set; entries count as nonzero when
    |entry| > NONZERO_TOL. Truth columns without zeros contribute no FPR
    term (a note records the skip); a mode where every column is skipped
    reports nan for that rate.
    """
    _check_ranks(fit, truth)
    r = fit.rank
    per_mode = {}
    notes = []
    tprs, fprs = [], []
    pairs = (("U", fit.U, truth.U), ("V", fit.V, truth.V), ("W", fit.W, truth.W))
    for name, fhat, ftrue in pairs:
        mode_tpr, mode_fpr = [], []
        for j in range(r):
            hot = np.abs(fhat[:, j]) > NONZERO_TOL
            true_hot = np.abs(ftrue[:, j]) > NONZERO_TOL
            if not true_hot.any():
                notes.append(f"{name} column {j + 1}: empty truth support, TPR skipped")
            else:
                mode_tpr.append(np.sum(hot & true_hot) / np.sum(true_hot))
            if not (~true_hot).any():
                notes.append(f"{name} column {j + 1}: no truth zeros, FPR skipped")
            else:
                mode_fpr.append(np.sum(hot & ~true_hot) / np.sum(~true_hot))
        t = float(np.mean(mode_tpr)) if mode_tpr else float("nan")
        f = float(np.mean(mode_fpr)) if mode_fpr else float("nan")
        per_mode[name] = (t, f)
        if mode_tpr:
            tprs.append(t)
        if mode_fpr:
            fprs.append(f)
    tpr = float(np.mean(tprs)) if tprs else float("nan")
    fpr = float(np.mean(fprs)) if fprs else float("nan")
    return tpr, fpr, per_mode, notes


@dataclass
class EvalReport:
    """Recovery metrics of a fitted model against the truth."""

    rmse: float
    mean_error: float
    weight_error: float
    tpr: float
    fpr: float
    per_mode: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


def evaluate(fit, truth):
    """All recovery metrics in one report."""
    tpr, fpr, per_mode, notes = tpr_fpr(fit, truth)
    return EvalReport(
        rmse=rmse(fit, truth),
        mean_error=mean_error(fit, truth),
        weight_error=weight_error(fit, truth),
        tpr=tpr,
        fpr=fpr,
        per_mode=per_mode,
        notes=notes,
    )


def _average_ranks(a):
    """1-based ranks of a 1-D array, each tie group taking the mean of its
    positions (the 'average' method of scipy.stats.rankdata)."""
    order = np.argsort(a, kind="stable")
    ranked = a[order]
    first = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    end = np.r_[first[1:], a.size]  # one past each group's last position
    ranks = np.empty(a.size)
    ranks[order] = np.repeat((first + 1 + end) / 2.0, end - first)
    return ranks


def completion_auc(heldout, probs):
    """Rank-based AUC of predicted probabilities on held-out cells.

    heldout: BinaryTensor whose mask marks the scored cells and whose
    values are their true labels. Ties in the scores take average ranks.
    The scores must be finite.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.shape != heldout.dims:
        raise ValueError(
            f"probs shape {probs.shape} does not match held-out dims {heldout.dims}"
        )
    labels = heldout.values[heldout.mask]
    scores = probs[heldout.mask]
    if not np.all(np.isfinite(scores)):
        raise ValueError("probs must be finite on the held-out cells")
    n_pos = int(np.sum(labels == 1.0))
    n_neg = int(np.sum(labels == 0.0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("held-out cells must include both classes")
    ranks = _average_ranks(scores)
    auc = (np.sum(ranks[labels == 1.0]) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return float(auc)
