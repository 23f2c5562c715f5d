"""Bernoulli likelihood for logit-parameterized binary 3-way tensors.

An observation x_ijk in {0, 1} has P(x_ijk = 1) = sigmoid(theta_ijk). The
logits are modeled as theta = mu + sum_r d_r u_r o v_r o w_r (a CP expansion
plus a global offset). Unobserved cells are carried in an explicit mask and
never contribute to likelihood sums.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

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
    """Elementwise logistic function 1/(1 + exp(-t)), stable for large |t|."""
    if out is None:
        return expit(t)
    return expit(t, out)


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


def _theta_of(model, dims=None):
    if isinstance(model, LogitModel):
        theta = model.theta()
    else:
        theta = np.asarray(model, dtype=float)
    if dims is not None and theta.shape != tuple(dims):
        raise ValueError(f"logits shape {theta.shape} does not match data {tuple(dims)}")
    return theta


def neg_loglik(x, model):
    """Negative Bernoulli log-likelihood over the observed cells.

    `model` may be a LogitModel or a raw logit tensor. Computed as
    sum softplus(theta) - <x, theta>, the saturated model scoring 0.
    """
    return loss_and_working(x, _theta_of(model, x.dims))


def deviance(x, model):
    """Residual deviance: twice the negative log-likelihood."""
    return 2.0 * neg_loglik(x, model)


def loss_and_working(x, theta, out=None):
    """Negative log-likelihood of the logit tensor theta over the observed
    cells; with `out`, also the working tensor around theta written into it.

    The working tensor holds the quadratic-majorizer targets: observed
    cells get z = theta + 4*(x - sigmoid(theta)), unobserved cells keep
    theta, which makes the surrogate ignore them.

    Both come from one e = exp(-|theta|): the loss is
    sum max(theta, 0) + log1p(e) - <x, theta>, and the working tensor uses
    sigmoid(theta) = 0.5 + copysign(0.5 - e/(1 + e), theta).
    """
    theta = _theta_of(theta, x.dims)
    e = np.abs(theta, out=out)
    np.negative(e, out=e)
    with np.errstate(under="ignore"):  # exp(-|theta|) < 1e-308 is 0 to double precision
        np.exp(e, out=e)
    # without `out` the loss is all that is asked for, so it may consume e
    tmp = e if out is None else np.empty_like(e)
    obs = None if x.fully_observed else x.mask

    def observed_sum(a):
        return a.sum() if obs is None else a.sum(where=obs)

    np.log1p(e, out=tmp)
    nll = observed_sum(tmp)
    np.maximum(theta, 0.0, out=tmp)
    nll += observed_sum(tmp) - ops.inner(x.values, theta)
    if out is None:
        return float(nll)
    np.add(e, 1.0, out=tmp)
    np.divide(e, tmp, out=e)  # sigmoid(-|theta|)
    np.subtract(0.5, e, out=e)
    np.copysign(e, theta, out=e)
    e += 0.5  # sigmoid(theta)
    np.subtract(x.values, e, out=e)
    e *= 4.0
    if obs is not None:
        e *= obs
    e += theta
    return float(nll)


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
    """Hard labels from probabilities; p >= threshold maps to 1 (inclusive)."""
    probs = np.asarray(probs, dtype=float)
    if np.any(probs < 0) or np.any(probs > 1):
        raise ValueError("probabilities must lie in [0, 1]")
    return (probs >= threshold).astype(float)
