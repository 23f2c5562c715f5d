"""Bernoulli likelihood for logit-parameterized binary 3-way tensors.

An observation x_ijk in {0, 1} has P(x_ijk = 1) = sigmoid(theta_ijk). The
logits are modeled as theta = mu + sum_r d_r u_r o v_r o w_r (a CP expansion
plus a global offset). Unobserved cells are carried in an explicit mask and
never contribute to likelihood sums.
"""

from dataclasses import dataclass

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
    overflows to inf and the result is 0, and above t = 708.4 it underflows
    and the result is 1; neither warns. A scalar t gives a scalar; with
    `out`, which may be t itself, the result is written there and returned.
    """
    # every step runs in the one buffer negative() returns
    e = np.asarray(np.negative(t, out=out, dtype=float))
    with np.errstate(over="ignore", under="ignore"):
        _sigmoid_of_negated(e)
    return e if out is not None or e.ndim else e[()]


def _one_plus_exp(n, out):
    """1 + exp(n) into out, which may be n; past n = 709.78 it is inf. The
    caller silences that overflow and the underflow, once per call rather
    than once per block."""
    np.exp(n, out=out)
    out += 1.0
    return out


def _sigmoid_of_negated(n, out=None, denom=None):
    """sigmoid(-n) = 1/(1 + exp(n)), the formula sigmoid() and the scoring
    kernels share for the negated logits n, into out (default n itself).
    1 + exp(n) is formed in denom (default out), which keeps it. As in
    _one_plus_exp, the caller silences overflow and underflow."""
    out = n if out is None else out
    denom = _one_plus_exp(n, out if denom is None else denom)
    return np.divide(1.0, denom, out=out)


def softplus(t):
    """log(1 + exp(t)) without overflow for large |t|, as
    max(t, 0) + log1p(exp(-|t|))."""
    with np.errstate(under="ignore"):  # exp(-|t|) < 1e-308 is 0 to double precision
        return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


@dataclass
class BinaryTensor:
    """Binary observations with an observation mask.

    values: (p1, p2, p3) bool array, one byte per cell; unobserved cells
            hold False.
    mask:   boolean array of the same shape, True where observed.

    Bool values are taken as they are. Any other input is read as floats,
    whose observed cells must be exactly 0 or 1, and converted to bool once.
    Unobserved cells may hold anything on input; they are set to False (in
    a copy, only when one of them is True). Arithmetic on bool values
    converts them to floats exactly: 2 * values - 1 is +-1.
    """

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 3:
            raise ValueError(f"values must be 3-way, got shape {values.shape}")
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.shape != values.shape:
            raise ValueError(
                f"mask shape {self.mask.shape} does not match values shape {values.shape}"
            )
        if not self.mask.any():
            raise ValueError("mask is empty: at least one cell must be observed")
        if values.dtype != bool:
            values = np.asarray(values, dtype=float)
            ones = values == 1.0
            # nonzero but not 1 (nan and inf count as nonzero), where observed
            bad = values != 0.0
            bad ^= ones
            bad &= self.mask
            if bad.any():
                raise ValueError("observed values must be exactly 0 or 1")
            values = ones
        # unobserved cells are forced to False so array arithmetic can ignore them
        if not self.mask.all() and np.greater(values, self.mask).any():
            values = values & self.mask
        self.values = values

    @classmethod
    def dense(cls, values):
        """Fully observed tensor."""
        values = np.asarray(values)
        return cls(values, np.ones(values.shape, dtype=bool))

    @property
    def dims(self):
        return self.values.shape

    @property
    def n_observed(self):
        return int(np.count_nonzero(self.mask))

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


def _logit_blocks(x, theta, scratch=0):
    """The negated logits -theta of x's cells, one block of mode-1 rows of
    about BLOCK_CELLS cells at a time, so no full-size array is built.

    theta is a logit tensor of x's shape or the CP pieces (mu, d, U, V, W)
    of one. Yields (a, b, n, *spare) for rows a:b: n holds the block's
    negated logits and `scratch` spare buffers its shape; all are reused
    from block to block and free for the caller to overwrite. The logits
    come negated because exp(-theta) is what the callers take. CP logits
    are formed by one matmul whose left factor is negated and whose extra
    column carries the offset, [-U[a:b] diag(d), -mu 1] [khatri_rao(V, W), 1]^T:
    its inner size is R + 1 >= 2, so rank-one logits avoid BLAS's slow
    inner-size-1 path and no separate pass adds the offset or negates. IEEE
    rounding is symmetric in sign, so the product is exactly the negation
    of the one without the minus, as np.negative is of a logit tensor.
    """
    cp = isinstance(theta, tuple)
    if cp:
        mu, d, U, V, W = theta
        U = np.asarray(U, dtype=float)
        r = U.shape[1]
        shape = (U.shape[0], len(V), len(W))
        nud = np.empty((shape[0], r + 1))  # [-U diag(d), -mu 1]
        np.multiply(U, -np.asarray(d, dtype=float).reshape(-1), out=nud[:, :r])
        nud[:, r] = -mu
        krt = np.ones((r + 1, shape[1] * shape[2]))  # [khatri_rao(V, W), 1]^T
        krt[:r] = ops.khatri_rao(V, W).T
    else:
        theta = np.asarray(theta, dtype=float)
        shape = theta.shape
    if shape != x.dims:
        raise ValueError(f"logits shape {shape} does not match data {x.dims}")
    p1, p2, p3 = shape
    rows = min(p1, max(1, BLOCK_CELLS // (p2 * p3)))
    buf = np.empty((1 + scratch, rows, p2, p3))
    for a in range(0, p1, rows):
        b = min(a + rows, p1)
        blk = buf[:, : b - a]
        if cp:
            np.matmul(nud[a:b], krt, out=blk[0].reshape(b - a, -1))
        else:
            np.negative(theta[a:b], out=blk[0])
        yield (a, b, *blk)


def loss_and_working(x, theta, out=None):
    """Negative log-likelihood of the logits theta over the observed cells;
    theta is a logit tensor of x's shape or the CP pieces (mu, d, U, V, W)
    of one. With `out`, the working tensor z around theta is also written
    into it and (loss, sum(z - theta)) is returned. z holds the quadratic
    majorizer's targets: observed cells get z = theta + 4*(x - sigmoid(theta)),
    unobserved cells keep theta, which makes the surrogate ignore them. The
    residual sum(z - theta) over the cell count is the majorizer's offset step.

    The negated logits come block by block from _logit_blocks, so no logit
    tensor is built. In a block both results come from one e = exp(-theta):
    the loss sums the cell losses softplus(theta) = log(1 + e) + theta and
    subtracts <x, theta>, so the loss alone takes no division; the working
    tensor is theta + 4*(x - s) with s = 1/(1 + e), formed by the helper
    sigmoid() uses, so s is sigmoid(theta) bit for bit. Below theta =
    -709.78, e overflows to inf: s is then 0, as sigmoid() gives, but the
    block's loss is not finite, so that block's cell losses are rescored
    with the stable softplus. Neither the overflow nor an underflow warns.
    """
    obs = None if x.fully_observed else x.mask
    nll = resid = 0.0
    # an overflowed cell's loss is inf, and nan where the mask zeroes it
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for a, b, n, e, xb, ob in _logit_blocks(x, theta, scratch=3):
            if obs is None:
                ob = None
            else:
                np.copyto(ob, obs[a:b])  # the block's mask as floats, converted once
            if out is None:
                _one_plus_exp(n, e)
            else:
                s = _sigmoid_of_negated(n, out[a:b], denom=e)
            np.log(e, out=e)
            e -= n  # softplus(theta)
            loss = _observed_sum(e, ob)
            if not np.isfinite(loss):
                loss = _observed_sum(softplus(-n), ob)
            np.copyto(xb, x.values[a:b])  # the block's data as floats, converted once
            nll += loss + np.vdot(xb, n)
            if out is not None:
                np.subtract(xb, s, out=s)
                s *= 4.0
                resid += _observed_sum(s, ob)
                s -= n  # z; unobserved cells hold 0 + theta
    return float(nll) if out is None else (float(nll), float(resid))


def _offset_sums(x, pieces, curve):
    """The offset solve's sums at the CP pieces (mu, d, U, V, W): the
    gradient sum over observed cells of x - p and, if curve, the curvature
    sum of p(1 - p) (else 0.0), with p = sigmoid(theta). Summed block by
    block from the negated logits, as loss_and_working scores them."""
    obs = None if x.fully_observed else x.mask
    g = h = 0.0
    with np.errstate(over="ignore", under="ignore"):
        for a, b, p, r in _logit_blocks(x, pieces, scratch=1):
            ob = None if obs is None else obs[a:b]
            _sigmoid_of_negated(p)  # p held -theta
            if curve:
                np.subtract(1.0, p, out=r)
                r *= p
                h += _observed_sum(r, ob)
            np.copyto(r, x.values[a:b])  # bool data as floats: one cast, then a float subtract
            np.subtract(r, p, out=p)
            g += _observed_sum(p, ob)
    return float(g), float(h)


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
