"""Bernoulli likelihood for logit-parameterized binary 3-way tensors.

An observation x_ijk in {0, 1} has P(x_ijk = 1) = sigmoid(theta_ijk). The
logits are modeled as theta = mu + sum_r d_r u_r o v_r o w_r (a CP expansion
plus a global offset). Unobserved cells are carried in an explicit mask and
never contribute to likelihood sums.
"""

from dataclasses import dataclass, field

import numpy as np

from . import ops

__all__ = [
    "BinaryTensor",
    "LogitModel",
    "sigmoid",
    "softplus",
    "neg_loglik",
    "deviance",
    "loss_and_working",
    "majorizer_gap",
    "impute",
]

UNIT_NORM_TOL = 1e-10


def sigmoid(t, out=None):
    """Elementwise logistic function 1/(1 + exp(-t)).

    This is the formula of scipy.special.expit: below t = -709.78 exp(-t)
    overflows to inf and the result is 0. A scalar t gives a scalar; with
    `out`, which may be t itself, the result is written there and returned.
    """
    # every step runs in the one buffer negative() returns
    e = np.asarray(np.negative(t, out=out, dtype=float))
    with np.errstate(over="ignore"):
        np.exp(e, out=e)
    e += 1.0
    np.divide(1.0, e, out=e)
    return e if out is not None or e.ndim else e[()]


def softplus(t):
    """log(1 + exp(t)) without overflow for large |t|, as
    max(t, 0) + log1p(exp(-|t|))."""
    with np.errstate(under="ignore"):  # exp(-|t|) < 1e-308 is 0 to double precision
        return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


@dataclass
class BinaryTensor:
    """Binary observations with an observation mask.

    values: (p1, p2, p3) array of 0.0/1.0; unobserved cells hold 0.
    mask:   boolean array of the same shape, True where observed.
    """

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 3:
            raise ValueError(f"values must be 3-way, got shape {self.values.shape}")
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.shape != self.values.shape:
            raise ValueError(
                f"mask shape {self.mask.shape} does not match values shape {self.values.shape}"
            )
        if not self.mask.any():
            raise ValueError("mask is empty: at least one cell must be observed")
        observed = self.values[self.mask]
        if not np.all((observed == 0.0) | (observed == 1.0)):
            raise ValueError("observed values must be exactly 0 or 1")
        # unobserved cells are forced to 0 so array arithmetic can ignore them
        if not self.mask.all():
            self.values = np.where(self.mask, self.values, 0.0)

    @classmethod
    def dense(cls, values):
        """Fully observed tensor."""
        values = np.asarray(values, dtype=float)
        return cls(values, np.ones(values.shape, dtype=bool))

    @property
    def dims(self):
        return self.values.shape

    @property
    def n_observed(self):
        return int(self.mask.sum())

    @property
    def fully_observed(self):
        return bool(self.mask.all())


@dataclass
class LogitModel:
    """Logit-scale CP model: theta = mu + sum_r d_r u_r o v_r o w_r.

    Factor columns are unit-norm; weights d are positive and nonincreasing.
    Rank 0 (empty d) is allowed and denotes the constant model theta = mu.
    """

    mu: float
    d: np.ndarray
    U: np.ndarray
    V: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        self.mu = float(self.mu)
        self.d = np.asarray(self.d, dtype=float).reshape(-1)
        self.U = np.asarray(self.U, dtype=float)
        self.V = np.asarray(self.V, dtype=float)
        self.W = np.asarray(self.W, dtype=float)
        if not np.isfinite(self.mu):
            raise ValueError(f"offset mu must be finite, got {self.mu!r}")
        if not np.all(np.isfinite(self.d)):
            raise ValueError("weights d must be finite")
        r = self.d.shape[0]
        for name, f in (("U", self.U), ("V", self.V), ("W", self.W)):
            if f.ndim != 2 or f.shape[1] != r:
                raise ValueError(f"{name} has shape {f.shape}, expected (rows, {r})")
            if not np.all(np.isfinite(f)):
                raise ValueError(f"{name} entries must be finite")
            if r:
                norms = np.linalg.norm(f, axis=0)
                if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
                    raise ValueError(f"{name} columns must be unit-norm")
        if np.any(self.d <= 0):
            raise ValueError("weights d must be strictly positive")
        if np.any(np.diff(self.d) > 0):
            raise ValueError("weights d must be nonincreasing")

    @property
    def rank(self):
        return int(self.d.shape[0])

    @property
    def dims(self):
        return (self.U.shape[0], self.V.shape[0], self.W.shape[0])

    def theta(self):
        """Full logit tensor."""
        return ops.cp_reconstruct(self.mu, self.d, self.U, self.V, self.W)

    def probs(self):
        """Cell probabilities sigmoid(theta)."""
        t = self.theta()
        return sigmoid(t, out=t)


def neg_loglik(x, model):
    """Negative Bernoulli log-likelihood over the observed cells.

    `model` may be a LogitModel, scored from its factors, its CP pieces
    (mu, d, U, V, W) or a raw logit tensor. Computed as
    sum softplus(theta) - <x, theta>, the saturated model scoring 0.
    """
    if isinstance(model, LogitModel):
        model = (model.mu, model.d, model.U, model.V, model.W)
    return loss_and_working(x, model)


def deviance(x, model):
    """Residual deviance: twice the negative log-likelihood."""
    return 2.0 * neg_loglik(x, model)


# a block of mode-1 rows holds about this many cells (at least one row), so
# the block's scratch buffers stay in cache through the elementwise chain
BLOCK_CELLS = 2**15


def loss_and_working(x, theta, out=None):
    """Negative log-likelihood of the logits theta over the observed cells;
    theta is a logit tensor of x's shape or the CP pieces (mu, d, U, V, W)
    of one. With `out`, the working tensor around theta is also written
    into it and (loss, sum over observed cells of x - sigmoid(theta)) is
    returned. The working tensor holds the quadratic-majorizer targets:
    observed cells get z = theta + 4*(x - sigmoid(theta)), unobserved cells
    keep theta, which makes the surrogate ignore them.

    Blocks of mode-1 rows of about BLOCK_CELLS cells are scored in turn, CP
    logits formed per block as (U[a:b] diag(d)) khatri_rao(V, W)^T + mu, so
    no logit tensor is built. In a block both results come from one
    e = exp(-|theta|): the loss is sum max(theta, 0) + log1p(e) - <x, theta>,
    and the working tensor uses sigmoid(theta) = 0.5 + copysign(0.5 - e/(1 + e), theta).
    """
    cp = isinstance(theta, tuple)
    if cp:
        mu, d, U, V, W = theta
        ud = np.asarray(U, dtype=float) * np.asarray(d, dtype=float).reshape(-1)
        krt = ops.khatri_rao(V, W).T
        shape = (ud.shape[0], len(V), len(W))
    else:
        theta = np.asarray(theta, dtype=float)
        shape = theta.shape
    if shape != x.dims:
        raise ValueError(f"logits shape {shape} does not match data {x.dims}")
    p1, p2, p3 = shape
    rows = min(p1, max(1, BLOCK_CELLS // (p2 * p3)))
    tmp, th_buf = np.empty((2, rows, p2, p3))
    obs = None if x.fully_observed else x.mask
    nll = resid = 0.0
    for a in range(0, p1, rows):
        b = min(a + rows, p1)
        th, t = (th_buf[: b - a] if cp else theta[a:b]), tmp[: b - a]
        if cp:
            np.matmul(ud[a:b], krt, out=th.reshape(b - a, -1))
            th += mu
        xb, ob = x.values[a:b], None if obs is None else obs[a:b]
        # without `out` the loss is all that is asked for, so e may be t
        e = np.copysign(th, -1.0, out=t if out is None else out[a:b])  # -|theta|
        with np.errstate(under="ignore"):  # exp(-|theta|) < 1e-308 is 0 to double precision
            np.exp(e, out=e)
        np.log1p(e, out=t)
        nll += _observed_sum(t, ob)
        np.maximum(th, 0.0, out=t)
        nll += _observed_sum(t, ob) - np.vdot(xb, th)
        if out is None:
            continue
        np.add(e, 1.0, out=t)
        np.divide(e, t, out=e)  # sigmoid(-|theta|)
        np.subtract(0.5, e, out=e)
        np.copysign(e, th, out=e)
        e += 0.5  # sigmoid(theta)
        np.subtract(xb, e, out=e)
        e *= 4.0
        resid += _observed_sum(e, ob)
        e += th
    return float(nll) if out is None else (float(nll), float(resid) / 4.0)


def _observed_sum(a, obs):
    # zeroing the unobserved cells of `a` in place and taking a plain sum is
    # several times faster than sum(where=obs)
    if obs is not None:
        a *= obs
    return a.sum()


def majorizer_gap(x, theta, anchor):
    """Surrogate minus exact cell negative log-likelihood (vectorized).

    The quadratic surrogate around `anchor` is
        nll(anchor) + (sigmoid(anchor) - x) * (theta - anchor)
                    + (theta - anchor)**2 / 8
    with nll(t) = softplus(t) - x*t. The gap is >= 0 everywhere and 0 at
    theta == anchor.
    """
    x = np.asarray(x, dtype=float)
    if not np.all((x == 0.0) | (x == 1.0)):
        raise ValueError("x must be 0 or 1")
    theta = np.asarray(theta, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    diff = theta - anchor
    surrogate = (softplus(anchor) - x * anchor) + (sigmoid(anchor) - x) * diff + diff * diff / 8.0
    exact = softplus(theta) - x * theta
    return surrogate - exact


def impute(probs, threshold=0.5):
    """Hard labels from probabilities; p >= threshold maps to 1 (inclusive).

    The threshold must be a finite number in [0, 1].
    """
    probs = np.asarray(probs, dtype=float)
    if not np.all((probs >= 0) & (probs <= 1)):
        raise ValueError("probabilities must lie in [0, 1]")
    threshold = float(threshold)
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be a finite number in [0, 1], got {threshold!r}")
    return (probs >= threshold).astype(float)
