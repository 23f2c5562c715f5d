"""Synthetic binary tensors with sparse rank-R logit structure.

Ground-truth factors are sparse unit vectors; weights are set relative to a
noise baseline so that a stated signal-to-noise ratio means the same thing
at any tensor size. The baseline is what the unpenalized power method
recovers on pure coin-flip data of the same shape, averaged over replicates.
"""

from dataclasses import dataclass, field, replace

import math
import numpy as np

from . import decomp, ops
from .likelihood import BinaryTensor, LogitModel, sigmoid

__all__ = [
    "SimConfig",
    "GroundTruth",
    "scenario",
    "SCENARIOS",
    "gen_sparse_factors",
    "calibrate_baseline",
    "gen_dataset",
    "drop_uniform",
]

# published benchmark configurations: dims, rank, snr per component
SCENARIOS = {
    "I": ((1000, 10, 10), 1, (3.0,)),
    "II": ((1000, 10, 10), 2, (5.0, 3.0)),
    "III": ((1000, 100, 10), 1, (3.0,)),
    "IV": ((1000, 100, 10), 2, (5.0, 3.0)),
}


@dataclass
class SimConfig:
    """Recipe for one synthetic dataset."""

    dims: tuple
    rank: int
    snr: tuple
    sparsity: float = 0.2
    mu: float = 0.0
    seed: int | tuple = 0
    baseline_reps: int = 100

    def __post_init__(self):
        self.dims = tuple(int(p) for p in self.dims)
        if len(self.dims) != 3 or min(self.dims) < 1:
            raise ValueError(f"dims must be three positive sizes, got {self.dims}")
        self.rank = int(self.rank)
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        self.snr = tuple(float(v) for v in self.snr)
        if len(self.snr) != self.rank:
            raise ValueError(f"need one snr per component, got {self.snr}")
        if min(self.snr) <= 0 or any(np.diff(self.snr) > 0):
            raise ValueError("snr values must be positive and nonincreasing")
        if not 0.0 < self.sparsity <= 1.0:
            raise ValueError("sparsity must lie in (0, 1]")
        for p in self.dims:
            if math.ceil(self.sparsity * p) < 1:
                raise ValueError("sparsity too small: a factor column would be empty")
        if self.baseline_reps < 1:
            raise ValueError("baseline_reps must be >= 1")


@dataclass
class GroundTruth:
    """True model behind a synthetic dataset, plus its cell probabilities."""

    model: LogitModel
    probs: np.ndarray
    baseline_weight: float = float("nan")


def scenario(name, snr=None, scale=1.0, **overrides):
    """Published benchmark configuration by name ("I".."IV").

    scale shrinks or grows the first mode only (the published designs vary
    p1); snr overrides the published signal-to-noise values. Remaining
    SimConfig fields can be overridden by keyword.
    """
    key = str(name).upper()
    if key not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; expected one of {sorted(SCENARIOS)}")
    dims, rank, snr_default = SCENARIOS[key]
    p1 = max(1, int(round(dims[0] * float(scale))))
    return SimConfig(
        dims=(p1, dims[1], dims[2]),
        rank=rank,
        snr=tuple(snr) if snr is not None else snr_default,
        **overrides,
    )


def gen_sparse_factors(cfg, rng):
    """Sparse unit factors (U, V, W).

    Column r of the mode-j factor has exactly ceil(sparsity * p_j) nonzeros
    at uniformly drawn positions, standard normal values, then unit norm.
    """
    mats = []
    for p in cfg.dims:
        k = math.ceil(cfg.sparsity * p)
        m = np.zeros((p, cfg.rank))
        for r in range(cfg.rank):
            support = rng.choice(p, size=k, replace=False)
            vals = rng.standard_normal(k)
            while np.linalg.norm(vals) == 0.0:
                vals = rng.standard_normal(k)
            m[support, r] = vals / np.linalg.norm(vals)
        mats.append(m)
    return tuple(mats)


_baseline_cache = {}


def calibrate_baseline(dims, rank, seed=0, reps=100):
    """Mean recovered weight of a rank-R fit on pure Bernoulli(1/2) noise.

    Each replicate draws a coin-flip tensor, fits it with the unpenalized
    power method from 10 starts, and averages the R weights; the baseline
    is the mean over replicates. Replicates whose fit fails or finds fewer
    than R clusters are skipped; fewer than 80% successes is an error.
    Results are memoized in-process on (dims, rank, seed, reps).
    """
    dims = tuple(int(p) for p in dims)
    key = (dims, int(rank), decomp._seed_tuple(seed), int(reps))
    if key in _baseline_cache:
        return _baseline_cache[key]
    weights = []
    for rep in range(int(reps)):
        rng = decomp._rng(seed, 101, rep)
        x = BinaryTensor.dense((rng.random(dims) < 0.5).astype(float))
        cfg = decomp.FitConfig(
            rank=int(rank),
            n_starts=10,
            init="spectral",
            seed=decomp._seed_tuple(seed, 102, rep),
        )
        try:
            report = decomp.multi_start_fit(x, cfg)
        except (decomp.DegenerateDirectionError, RuntimeError, ValueError):
            continue
        if report.clusters_found < rank:
            continue
        weights.append(float(np.mean(report.model.d)))
    if len(weights) < 0.8 * int(reps):
        raise RuntimeError(
            f"baseline calibration failed: only {len(weights)} of {reps} replicates succeeded"
        )
    value = float(np.mean(weights))
    _baseline_cache[key] = value
    return value


def gen_dataset(cfg, baseline_weight=None):
    """Draw one synthetic dataset.

    True weights are snr_r times the noise baseline for cfg.dims and
    cfg.rank (calibrated once and cached; pass baseline_weight to skip the
    calibration). The baseline uses its own seed 0, independent of
    cfg.seed, so replicates of one design share it. Returns (BinaryTensor,
    GroundTruth); the data tensor is fully observed.
    """
    if baseline_weight is None:
        baseline_weight = calibrate_baseline(
            cfg.dims, cfg.rank, seed=0, reps=cfg.baseline_reps
        )
    db = float(baseline_weight)
    if db <= 0:
        raise ValueError("baseline weight must be positive")
    rng = decomp._rng(cfg.seed, 7)
    u_mat, v_mat, w_mat = gen_sparse_factors(cfg, rng)
    d = np.asarray(cfg.snr, dtype=float) * db
    theta = ops.cp_reconstruct(cfg.mu, d, u_mat, v_mat, w_mat)
    probs = sigmoid(theta)
    values = (rng.random(cfg.dims) < probs).astype(float)
    x = BinaryTensor.dense(values)
    truth = GroundTruth(LogitModel(cfg.mu, d, u_mat, v_mat, w_mat), probs, db)
    return x, truth


def drop_uniform(x, frac, seed=0):
    """Hide a uniformly random fraction of the observed cells.

    Returns (masked tensor, heldout tensor): the first keeps the surviving
    cells, the second carries the dropped cells (their true labels under
    the dropped-cell mask) for completion scoring.
    """
    if not 0.0 < frac < 1.0:
        raise ValueError("frac must lie strictly between 0 and 1")
    rng = decomp._rng(seed, 11)
    observed = np.flatnonzero(x.mask.ravel())
    k = int(round(frac * observed.size))
    if k < 1 or k >= observed.size:
        raise ValueError(f"dropping {k} of {observed.size} observed cells")
    dropped = rng.choice(observed, size=k, replace=False)
    drop_mask = np.zeros(x.mask.size, dtype=bool)
    drop_mask[dropped] = True
    drop_mask = drop_mask.reshape(x.mask.shape)
    keep_mask = x.mask & ~drop_mask
    kept = BinaryTensor(np.where(keep_mask, x.values, 0.0), keep_mask)
    heldout = BinaryTensor(np.where(drop_mask, x.values, 0.0), drop_mask)
    return kept, heldout
