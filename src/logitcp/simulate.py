"""Synthetic binary tensors with sparse rank-R logit structure.

Ground-truth factors are sparse unit vectors; weights are set relative to a
noise baseline so that a stated signal-to-noise ratio means the same thing
at any tensor size. The baseline is what the unpenalized power method
recovers on pure coin-flip data of the same shape, averaged over replicates.
"""

from dataclasses import dataclass, replace

import math
import numpy as np

from . import decomp, ops
from .likelihood import BinaryTensor, LogitModel, sigmoid

__all__ = [
    "SimConfig",
    "GroundTruth",
    "scenario",
    "SCENARIOS",
    "BASELINE_FIT",
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

# the estimator behind the noise baseline, every setting but rank and seed
# written out: each simulated design's true weights are multiples of the
# baseline, so they must not move with FitConfig's defaults
BASELINE_FIT = dict(
    penalty="none", n_starts=10, init="spectral", cluster_threshold=0.5, symmetric_uv=False,
    inner_tol=1e-4, outer_abs_tol=1e-2, outer_rel_tol=1e-5, factor_tol=1e-4,
    max_outer_iters=50, max_inner_iters=100,
)


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
        if not all(math.isfinite(v) and v > 0 for v in self.snr) or any(np.diff(self.snr) > 0):
            raise ValueError(f"snr values must be finite, positive and nonincreasing: {self.snr}")
        self.mu = float(self.mu)
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not 0.0 < self.sparsity <= 1.0:
            raise ValueError("sparsity must lie in (0, 1]")
        for p in self.dims:
            if math.ceil(self.sparsity * p) < 1:
                raise ValueError("sparsity too small: a factor column would be empty")
        if self.baseline_reps < 1:
            raise ValueError("baseline_reps must be >= 1")


@dataclass
class GroundTruth:
    """True model behind a synthetic dataset and the noise baseline its
    weights are multiples of."""

    model: LogitModel
    baseline_weight: float = float("nan")

    @property
    def probs(self):
        """Cell probabilities sigmoid(theta), computed on each access."""
        return self.model.probs()


def scenario(name, snr=None, scale=1.0, **overrides):
    """Published benchmark configuration by name ("I".."IV").

    scale (finite, > 0) shrinks or grows the first mode only (the published
    designs vary p1); snr overrides the published signal-to-noise values.
    Remaining SimConfig fields can be overridden by keyword.
    """
    key = str(name).upper()
    if key not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; expected one of {sorted(SCENARIOS)}")
    scale = float(scale)
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and positive, got {scale}")
    dims, rank, snr_default = SCENARIOS[key]
    p1 = max(1, int(round(dims[0] * scale)))
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
    power method as BASELINE_FIT sets it (10 spectral starts), and averages
    the R weights; the baseline is the mean over replicates. Replicates
    whose fit fails or finds fewer than R clusters are skipped; fewer than
    80% successes is an error.
    Results are memoized in-process on (dims, rank, seed, reps).
    """
    if int(reps) < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    dims = tuple(int(p) for p in dims)
    cfg = decomp.FitConfig(rank=int(rank), **BASELINE_FIT)
    # a bad setting (say, rank above the 10 starts) is the caller's error,
    # not a failed replicate, so it is raised here, before any fit
    decomp._check_settings(dims, cfg)
    decomp._check_pool(cfg)
    key = (dims, int(rank), decomp._seed_tuple(seed), int(reps))
    if key in _baseline_cache:
        return _baseline_cache[key]
    weights = []
    for rep in range(int(reps)):
        rng = decomp._rng(seed, 101, rep)
        x = BinaryTensor.dense(rng.random(dims) < 0.5)
        try:
            report = decomp.fit_rank_path(
                x, replace(cfg, seed=decomp._seed_tuple(seed, 102, rep)), [cfg.rank]
            )[cfg.rank]
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
    if not (math.isfinite(db) and db > 0):
        raise ValueError(f"baseline weight must be finite and positive, got {db}")
    rng = decomp._rng(cfg.seed, 7)
    u_mat, v_mat, w_mat = gen_sparse_factors(cfg, rng)
    d = np.asarray(cfg.snr, dtype=float) * db
    # the probabilities overwrite the logits; only the bool draw outlives
    # this call, as the truth computes its probabilities on access
    probs = ops.cp_reconstruct(cfg.mu, d, u_mat, v_mat, w_mat)
    sigmoid(probs, out=probs)
    x = BinaryTensor.dense(np.less(rng.random(cfg.dims), probs))
    truth = GroundTruth(LogitModel(cfg.mu, d, u_mat, v_mat, w_mat), db)
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
    n = x.n_observed
    k = int(round(frac * n))
    if k < 1 or k >= n:
        raise ValueError(f"dropping {k} of {n} observed cells")
    # the draw picks positions among the observed cells in C order, as
    # choosing from their flat indices would, and marks them in a bool
    # array, so no index of every observed cell is held
    picked = np.zeros(n, dtype=bool)
    picked[rng.choice(n, size=k, replace=False)] = True
    drop_mask = np.zeros(x.mask.shape, dtype=bool)
    drop_mask[x.mask] = picked
    keep_mask = x.mask & ~drop_mask
    kept = BinaryTensor(x.values, keep_mask)
    heldout = BinaryTensor(x.values, drop_mask)
    return kept, heldout
