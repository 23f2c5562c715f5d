"""Majorization-minimization solvers for logistic CP decomposition.

All four fitting routines share one outer loop: the Bernoulli negative
log-likelihood is majorized at the current logits by a separable quadratic
(whose targets are the working tensor z = theta + 4*(x - sigmoid(theta))),
and the quadratic is decreased by block updates. The unpenalized tensor
power method, its l1 (soft-threshold) and l0 (hard-truncation) variants,
and the rank-R alternating least squares routine differ only in the block
update. The quadratic's curvature 1/8 bounds the Bernoulli curvature
everywhere, so every outer pass is guaranteed not to increase the negative
log-likelihood.

Rank-R models for the power family come from many independent rank-one fits
followed by greedy clustering: repeatedly take the heaviest remaining
candidate, re-estimate from it, and drop all candidates within a factor
distance nu of it. There is no deflation; components are kept as found and
ordered by weight.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import ops
from .likelihood import (
    BLOCK_CELLS,
    LogitModel,
    _offset_sums,
    loss_and_working,
    neg_loglik,
    sigmoid,
)

__all__ = [
    "DegenerateDirectionError",
    "FitConfig",
    "FitReport",
    "StopRecord",
    "RankOneFit",
    "soft_threshold",
    "truncate_top",
    "l1_project",
    "power_update",
    "rank_one_mm_fit",
    "final_offset",
    "als_fit",
    "fit_rank_path",
    "fit",
    "c_from_ratio",
    "s_from_ratio",
    "method_config",
]

# method name -> the penalty of its block update
PENALTIES = {"als": "none", "tp": "none", "tsp": "l1", "ttp": "l0"}
METHODS = tuple(PENALTIES)
# penalty -> the power-family method running it
_POWER_METHODS = {PENALTIES[m]: m for m in ("tp", "tsp", "ttp")}


class DegenerateDirectionError(ValueError):
    """A block update produced a zero direction that cannot be normalized."""


def _seed_tuple(seed, *key):
    """seed (an int or a tuple of ints) extended by key, as one tuple of
    ints; the package derives every random stream from such a tuple."""
    if isinstance(seed, (tuple, list)):
        return (*(int(s) for s in seed), *key)
    return (int(seed), *key)


def _rng(seed, *key):
    return np.random.default_rng(_seed_tuple(seed, *key))


# ---------------------------------------------------------------- config


@dataclass
class FitConfig:
    """Solver settings.

    penalty selects the block update: "none" (plain power method / ALS),
    "l1" (soft-threshold with per-mode budgets c), or "l0" (hard truncation
    to per-mode cardinalities s). n_starts defaults to max(10, rank**3).
    seed may be an int or a tuple of ints; all randomness derives from it.
    ALS fits from one start, so it ignores n_starts and cluster_threshold,
    and it refuses symmetric_uv and every penalty but "none".
    """

    rank: int = 1
    penalty: str = "none"
    c: tuple | None = None
    s: tuple | None = None
    n_starts: int | None = None
    init: str = "spectral"
    cluster_threshold: float = 0.5
    inner_tol: float = 1e-4
    outer_abs_tol: float = 1e-2
    outer_rel_tol: float = 1e-5
    factor_tol: float = 1e-4
    max_outer_iters: int = 50
    max_inner_iters: int = 100
    symmetric_uv: bool = False
    seed: int | tuple = 0

    @property
    def effective_starts(self):
        if self.n_starts is not None:
            return int(self.n_starts)
        return max(10, self.rank**3)


def c_from_ratio(dims, ratio):
    """Per-mode l1 budgets c_i = ratio * sqrt(p_i)."""
    return tuple(float(ratio) * math.sqrt(p) for p in dims)


def s_from_ratio(dims, ratio):
    """Per-mode l0 cardinalities s_i = floor(ratio * p_i)."""
    ratio = float(ratio)
    if not math.isfinite(ratio):
        raise ValueError(f"l0 ratio {ratio} is not finite")
    return tuple(int(math.floor(ratio * p)) for p in dims)


def _penalty_of(method):
    if method not in PENALTIES:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return PENALTIES[method]


def method_config(cfg, method, dims, ratio=None):
    """cfg set up for `method`: its penalty, plus the l1 budgets
    c_from_ratio(dims, ratio) for tsp or the l0 cardinalities
    s_from_ratio(dims, ratio) for ttp."""
    penalty = _penalty_of(method)
    if penalty != "none" and ratio is None:
        raise ValueError(f"{method} needs a sparsity ratio")
    c = c_from_ratio(dims, ratio) if penalty == "l1" else None
    s = s_from_ratio(dims, ratio) if penalty == "l0" else None
    return replace(cfg, penalty=penalty, c=c, s=s)


def _check_settings(dims, cfg):
    """Check cfg against a tensor of shape dims; returns the l1 budgets c
    and l0 cardinalities s as tuples, or None where the penalty has none."""
    p1, p2, p3 = dims
    if cfg.rank < 1:
        raise ValueError(f"rank must be >= 1, got {cfg.rank}")
    if cfg.penalty not in ("none", "l1", "l0"):
        raise ValueError(f"unknown penalty {cfg.penalty!r}")
    if cfg.init not in ("spectral", "random"):
        raise ValueError(f"unknown init {cfg.init!r}")
    for name in ("inner_tol", "outer_abs_tol", "outer_rel_tol", "factor_tol"):
        if getattr(cfg, name) <= 0:
            raise ValueError(f"{name} must be positive")
    if cfg.max_outer_iters < 1 or cfg.max_inner_iters < 1:
        raise ValueError("iteration limits must be >= 1")
    if cfg.symmetric_uv and p1 != p2:
        raise ValueError(
            f"symmetric mode needs p1 == p2, got dims ({p1}, {p2}, {p3})"
        )
    c = s = None
    if cfg.penalty == "l1":
        if cfg.c is None or len(cfg.c) != 3:
            raise ValueError("l1 penalty needs c = (c1, c2, c3)")
        c = tuple(float(v) for v in cfg.c)
        for ci, p in zip(c, (p1, p2, p3)):
            if not 1.0 <= ci <= math.sqrt(p) + 1e-12:
                raise ValueError(
                    f"l1 budget {ci} outside [1, sqrt({p})] for mode of size {p}"
                )
        if cfg.s is not None:
            raise ValueError("s is only meaningful with the l0 penalty")
    elif cfg.penalty == "l0":
        if cfg.s is None or len(cfg.s) != 3:
            raise ValueError("l0 penalty needs s = (s1, s2, s3)")
        s = tuple(int(v) for v in cfg.s)
        for si, p in zip(s, (p1, p2, p3)):
            if not 1 <= si <= p:
                raise ValueError(
                    f"l0 cardinality {si} outside [1, {p}] for mode of size {p}"
                )
        if cfg.c is not None:
            raise ValueError("c is only meaningful with the l1 penalty")
    else:
        if cfg.c is not None or cfg.s is not None:
            raise ValueError("c/s given but penalty is 'none'")
    return c, s


def _check_pool(cfg):
    """Check the multi-start pool's settings, which ALS (one start) never reads."""
    if not 1e-4 <= cfg.cluster_threshold <= 1.0:
        raise ValueError("cluster_threshold must lie in [1e-4, 1]")
    if cfg.effective_starts < cfg.rank:
        raise ValueError(
            f"n_starts={cfg.effective_starts} must be at least rank={cfg.rank}"
        )


def _check_config(x, cfg):
    """_check_settings on x's shape, and a refusal of constant data."""
    c, s = _check_settings(x.dims, cfg)
    v = x.values  # unobserved cells hold 0
    if not v.any() or (v.all() if x.fully_observed else np.count_nonzero(v) == x.n_observed):
        raise ValueError(f"every observed cell is {int(v.any())}; constant data have no finite fit")
    return c, s


# ----------------------------------------------------- sparsity operators


def soft_threshold(v, lam):
    """S(v, lam): shrink magnitudes by lam, clipping at zero."""
    if lam < 0:
        raise ValueError("threshold must be nonnegative")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)


def truncate_top(v, s):
    """Keep the s largest-magnitude entries of v, zeroing the rest.

    Ties at the cut magnitude keep the lowest index (stable order).
    """
    v = np.asarray(v, dtype=float)
    if not 1 <= s <= v.size:
        raise ValueError(f"cardinality {s} outside [1, {v.size}]")
    if s == v.size:
        return v.copy()
    order = np.argsort(-np.abs(v), kind="stable")
    out = np.zeros_like(v)
    keep = order[:s]
    out[keep] = v[keep]
    return out


def _norm(a):
    """np.linalg.norm(a) of a real array by numpy's formula, minus its dispatch cost."""
    a = a.ravel(order="K")
    return math.sqrt(a.dot(a))


def l1_project(g, c):
    """Unit vector Normalize(S(g, lam)) with l1 norm capped at c.

    lam is the smallest nonnegative threshold making the normalized result
    feasible: 0 when ||g/||g||_2||_1 <= c already, otherwise the exact root
    of ||Normalize(S(g, lam))||_1 = c. That ratio is nonincreasing in lam;
    with the magnitudes sorted, a_1 >= a_2 >= ..., it is known in closed
    form at each breakpoint lam = a_(k+1), and between breakpoints (k
    entries active) the equation is a quadratic in lam.
    """
    g = np.asarray(g, dtype=float)
    if c < 1.0:
        raise ValueError(f"l1 budget must be >= 1, got {c}")
    nrm = _norm(g)
    if nrm == 0.0 or not math.isfinite(nrm):
        raise DegenerateDirectionError("cannot project a zero direction")
    u0 = g / nrm
    if np.abs(u0).sum() <= c:
        return u0
    a = -np.sort(-np.abs(g))
    c2 = c * c
    if np.count_nonzero(a == a[0]) > c2:
        # m entries tied at max|g| keep the ratio at sqrt(m) or above for
        # every lam below max|g|, so the budget is unattainable; fall back to
        # a single spike
        out = np.zeros_like(g)
        j = int(np.argmax(np.abs(g)))
        out[j] = math.copysign(1.0, g[j])
        return out
    k = np.arange(1.0, a.size + 1.0)
    s1 = np.cumsum(a)  # l1 and squared l2 norms of the k largest magnitudes
    s2 = np.cumsum(a * a)
    nxt = np.append(a[1:], 0.0)
    # ratio^2 >= c^2 at lam = a_(k+1), over the segments of positive length
    l1 = s1 - k * nxt
    l2sq = s2 - 2.0 * nxt * s1 + k * nxt * nxt
    crossed = (a > nxt) & (l1 * l1 >= c2 * l2sq)
    # the last segment, ending at lam = 0, crosses: u0 is over budget. Its
    # test above can miss that when u0 is over by a rounding error only, and
    # with nothing crossed the threshold would be a_2, leaving a single spike
    crossed[np.flatnonzero(a > nxt)[-1]] = True
    j = int(np.argmax(crossed))
    kj, s1j, s2j = k[j], s1[j], s2[j]
    if kj > c2:
        lam = (s1j - c * math.sqrt(max(kj * s2j - s1j * s1j, 0.0) / (kj - c2))) / kj
        lam = min(max(lam, nxt[j]), a[j])
    else:  # the k active entries are equal and c = sqrt(k): any lam on the segment
        lam = nxt[j]
    shrunk = soft_threshold(g, lam)
    return shrunk / _norm(shrunk)


# ------------------------------------------------------------ power steps


def _project(g, mode, penalty, c, s):
    """g mapped onto the unit-norm feasible set of `mode` (1, 2 or 3):
    l1_project under the l1 budget c[mode-1], truncate_top to the l0
    cardinality s[mode-1] then normalize, or just normalize. The descent
    guarantee needs every iterate, starts included, inside this set."""
    if penalty == "l1":
        return l1_project(g, c[mode - 1])
    if penalty == "l0":
        g = truncate_top(g, s[mode - 1])
    n = _norm(g)
    if n == 0.0 or not math.isfinite(n):
        raise DegenerateDirectionError(f"zero or non-finite direction along mode {mode}")
    return g / n


def power_update(zc, u, v, w, mode, penalty="none", c=None, s=None):
    """One penalized tensor-power block update along `mode` (1, 2 or 3).

    Contracts the centered working tensor with the other two factors and
    projects the result onto the mode's feasible set.
    """
    if mode == 1:
        g = ops.rank_one_contract(zc, v=v, w=w)
    elif mode == 2:
        g = ops.rank_one_contract(zc, u=u, w=w)
    elif mode == 3:
        g = ops.rank_one_contract(zc, u=u, v=v)
    else:
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    return _project(g, mode, penalty, c, s)


def final_offset(x, theta_c=None):
    """Offset maximizing the observed-data log-likelihood for fixed centered
    logits theta_c: the CP pieces (d, U, V, W) of a model without its
    offset, or None for all-zero logits.

    The gradient sum(x - sigmoid(mu + theta_c)) is strictly decreasing in mu,
    so the root is unique; Newton steps are safeguarded by bisection on
    [-40, 40]. If the gradient never changes sign there, that end is
    returned; logits beyond 40 saturate at double precision anyway. Among
    fitted models this needs centered logits extreme enough to fit the data
    alone, since the solvers refuse all-ones and all-zeros data before
    fitting (a direct call on such data returns 40 or -40). The search
    stops once |gradient| < 1e-8, or after 200 steps.

    The gradient, and on Newton steps the curvature, come from the scoring
    kernel's block sums (likelihood._offset_sums), so no full-size array is
    built. Without components (None, or pieces of rank 0) every cell has
    logit mu and both sums are closed-form.
    """
    tol = 1e-8
    if theta_c is not None and not (isinstance(theta_c, tuple) and len(theta_c) == 4):
        got = f"{len(theta_c)} pieces" if isinstance(theta_c, tuple) else type(theta_c).__name__
        raise ValueError(f"centered logits need the CP pieces (d, U, V, W) or None, got {got}")
    if theta_c is None or np.size(theta_c[0]) == 0:
        n, ones = x.n_observed, float(x.values.sum())  # unobserved cells hold 0

        def sums(mu, curve):
            p = float(sigmoid(mu))
            return ones - n * p, n * p * (1.0 - p)

    else:
        def sums(mu, curve):
            return _offset_sums(x, (mu, *theta_c), curve)

    lo, hi = -40.0, 40.0
    if sums(lo, False)[0] <= tol:
        return lo
    if sums(hi, False)[0] >= -tol:
        return hi
    mu = 0.0
    for _ in range(200):
        g, curve = sums(mu, True)
        if abs(g) < tol:
            return mu
        if g > 0:
            lo = mu
        else:
            hi = mu
        if curve > 0:
            step = mu + g / curve
        else:
            step = 0.5 * (lo + hi)
        mu = step if lo < step < hi else 0.5 * (lo + hi)
    return mu


# ----------------------------------------------------------- fit records


# the reason of a run stopped by the pass cap rather than a tolerance
MAX_PASSES_REASON = "maximum outer iterations reached"


@dataclass
class StopRecord:
    """How one MM run went: trace holds the negative log-likelihood at the
    start and after each outer pass (nonincreasing), reason the stop rule."""

    trace: np.ndarray
    reason: str

    @property
    def n_outer(self):
        return len(self.trace) - 1

    @property
    def converged(self):
        return self.reason != MAX_PASSES_REASON


@dataclass
class RankOneFit(StopRecord):
    """Result of one rank-one MM run: its stop record and the fitted component."""

    mu: float
    weight: float
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray


@dataclass
class FitReport:
    """What a solver hands back: the model plus how it got there.

    start_traces and component_traces are the stop-record traces of the
    pool's runs and of each component's re-estimation (ALS lists its one
    run as both). loss_trace, the first component's, is the primary run's.
    """

    model: LogitModel
    converged: bool
    reason: str
    method: str
    start_traces: list
    component_traces: list

    @property
    def loss_trace(self):
        return self.component_traces[0]

    @property
    def clusters_found(self):
        return self.model.rank

    @property
    def n_starts_used(self):
        return len(self.start_traces)


# ------------------------------------------------------------- MM engine


def _factor_change(new, old):
    """Largest Frobenius change over the three factors."""
    return max(_norm(a - b) for a, b in zip(new, old))


def _columns(f):
    return f[:, None] if f.ndim == 1 else f


def _mm_passes(x, cfg, mu, d, factors, sweep):
    """Outer MM passes shared by every solver.

    Starts from the logits of (mu, d, factors). Each pass takes the exact
    offset step mean(y - theta_c) over all cells, which is mu plus the
    working residual sum(y - theta) that loss_and_working returns, over the
    cell count N; it centers the working tensor y, runs
    sweep(zc, factors) -> (d, factors) up to max_inner_iters times to
    decrease the quadratic surrogate, then scores the new logits from the
    factors, writing the next pass's working tensor and residual sum in the
    same sweep. Both loops share one scale, the square root of the number of
    components being updated: the sweeps stop once a sweep changes the
    factors by at most inner_tol times it, and the passes stop when the loss
    change falls below the absolute or relative tolerance, or when a pass
    changes the factors by at most factor_tol times it.

    Returns (mu, d, factors, StopRecord).
    """
    scale = math.sqrt(np.size(d))
    y = np.empty(x.dims)
    nll_prev, resid = loss_and_working(x, (mu, d, *map(_columns, factors)), y)
    trace = [nll_prev]
    reason = MAX_PASSES_REASON
    n_outer = 0
    while n_outer < cfg.max_outer_iters:
        n_outer += 1
        mu += resid / y.size
        y -= mu  # y buffer now holds the centered working tensor
        old = factors
        for _ in range(cfg.max_inner_iters):
            prev = factors
            d, factors = sweep(y, factors)
            if _factor_change(factors, prev) <= scale * cfg.inner_tol:
                break
        pieces = (mu, d, *map(_columns, factors))
        if n_outer < cfg.max_outer_iters:
            nll, resid = loss_and_working(x, pieces, y)
        else:  # no pass follows, so no working tensor is needed
            nll = neg_loglik(x, pieces)
        trace.append(nll)
        dn = abs(nll_prev - nll)
        if dn < cfg.outer_abs_tol:
            reason = "loss change below absolute tolerance"
        elif dn <= cfg.outer_rel_tol * max(abs(nll), 1e-12):
            reason = "loss change below relative tolerance"
        elif _factor_change(factors, old) <= scale * cfg.factor_tol:
            reason = "factor change below tolerance"
        if reason != MAX_PASSES_REASON:
            break
        nll_prev = nll
    return mu, d, factors, StopRecord(np.asarray(trace), reason)


# ------------------------------------------------------------ rank-one MM


def _random_unit(rng, p):
    while True:
        g = rng.standard_normal(p)
        n = np.linalg.norm(g)
        if n > 0:
            return g / n


def rank_one_mm_fit(x, cfg, init, mu0=None):
    """MM fit of a single rank-one logit component (power-method family).

    init: (u, v, w) directions, starting at weight 0, or (u, v, w, d) with
    a starting weight; the multi-start pools draw it. An init of another
    length, or a vector whose length is not its mode's size, raises
    ValueError. Each start vector is
    projected onto its mode's feasible set first, so a zero one raises
    DegenerateDirectionError, as does a zero contraction in a later power
    step. mu0 defaults to the mean of 2x - 1 over all cells (unobserved
    ones counting 0).
    """
    c, s = _check_config(x, cfg)
    if len(init) not in (3, 4):
        raise ValueError(f"init needs (u, v, w) or (u, v, w, d), got {len(init)} entries")
    u, v, w = (np.asarray(f, dtype=float) for f in init[:3])
    for mode, (f, p) in enumerate(zip((u, v, w), x.dims), start=1):
        if f.shape != (p,):
            raise ValueError(f"init vector for mode {mode} has shape {f.shape}, data need ({p},)")
    d = float(init[3]) if len(init) == 4 else 0.0
    u = _project(u, 1, cfg.penalty, c, s)
    v = u if cfg.symmetric_uv else _project(v, 2, cfg.penalty, c, s)
    w = _project(w, 3, cfg.penalty, c, s)
    if mu0 is None:
        mu0 = _sign_mean(x)

    def sweep(zc, factors):
        u, v, w = factors
        u = power_update(zc, u, v, w, 1, cfg.penalty, c, s)
        # Z x1 u serves the v-step, the w-step and the weight, so a sweep
        # reads the working tensor twice
        m = ops.rank_one_contract(zc, u=u)
        v = u if cfg.symmetric_uv else _project(m @ w, 2, cfg.penalty, c, s)
        vm = v @ m
        w = _project(vm, 3, cfg.penalty, c, s)
        # w keeps the signs of vm, so d is positive
        return float(vm @ w), (u, v, w)

    mu, d, (u, v, w), stop = _mm_passes(x, cfg, float(mu0), d, (u, v, w), sweep)
    return RankOneFit(stop.trace, stop.reason, mu, d, u, v, w)


# -------------------------------------------------------- initializations


def _sign_mean(x):
    """Mean of 2x - 1 over all cells, unobserved ones counting 0: exact
    integer sums, then one division."""
    return (2.0 * float(x.values.sum()) - x.n_observed) / x.values.size


def _base_tensor(x):
    """Centered sign tensor: 2x - 1 with unobserved cells 0, then its mean
    removed. Returns (Q, mean)."""
    q = 2.0 * x.values
    q -= 1.0 if x.fully_observed else x.mask  # unobserved cells hold 0, and stay 0
    mu = _sign_mean(x)
    q -= mu
    return q, mu


def _spectral_pair(q, s, rng):
    # leading singular pair of Q contracted with one random probe on mode 3,
    # truncated to the l0 pattern; None when the probe slice is degenerate
    p3 = q.shape[2]
    s1, s2, s3 = q.shape if s is None else s
    probe = truncate_top(rng.standard_normal(p3), min(max(s1, s2, s3), p3))
    try:
        um, sv, vmt = np.linalg.svd(ops.rank_one_contract(q, w=probe), full_matrices=False)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(sv[0]) or sv[0] <= 0:
        return None
    u = truncate_top(um[:, 0], s1)
    v = truncate_top(vmt[0], s2)
    if np.linalg.norm(u) == 0.0 or np.linalg.norm(v) == 0.0:
        return None
    return u, v


def _init_power(q, cfg, s, rng, spectral):
    """Rank-one start (u, v, w, d): u and v from the spectral pair, or
    Gaussian when spectral is False or the pair is degenerate; w and d then
    solved from the centered sign tensor q of _base_tensor."""
    pair = _spectral_pair(q, s, rng) if spectral else None
    if pair is None:
        u = rng.standard_normal(q.shape[0])
        v = rng.standard_normal(q.shape[1])
        if s is not None:
            u = truncate_top(u, s[0])
            v = truncate_top(v, s[1])
    else:
        u, v = pair
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    if cfg.symmetric_uv:
        v = u.copy()
    wbar = ops.rank_one_contract(q, u=u, v=v)
    d = float(np.linalg.norm(wbar))
    w = wbar / d if d > 0 else _random_unit(rng, q.shape[2])
    return u, v, w, d


# -------------------------------------------------------------------- ALS


def _leading_left_singular(m, r, rng, gram=None):
    """Top-r left singular vectors of the matrix m as unit columns; columns
    past m's numerical rank are random unit vectors.

    They are the top eigenvectors of the smaller Gram matrix g: g = m m^T
    itself, or g = m^T m, whose eigenvectors m maps to the left ones.
    numpy's eigh has no top-r subset, so when g has more rows than 21 blocks
    of r + 4 columns, eigh runs on g projected onto the block Krylov space
    those blocks span (Musco & Musco 2015). That iteration multiplies by m
    and m^T in turn, so it forms no Gram matrix and no identity basis;
    only a g small enough for a direct eigh is formed. A caller that has
    summed m m^T itself passes it as `gram`, with m None.
    """
    if m is None:
        wide, g = True, gram
        n = g.shape[0]

        def gmul(b):
            return g @ b

    else:
        wide = m.shape[0] <= m.shape[1]
        n = m.shape[0] if wide else m.shape[1]

        def gmul(b):
            return m @ (m.T @ b) if wide else m.T @ (m @ b)

    b, steps = min(r + 4, n), 20
    basis = None
    if n > b * (steps + 1):
        blocks = [np.linalg.qr(rng.standard_normal((n, b)))[0]]
        for _ in range(steps):
            blocks.append(np.linalg.qr(gmul(blocks[-1]))[0])
        basis = np.linalg.qr(np.hstack(blocks))[0]
        h = basis.T @ gmul(basis)
    elif m is None:
        h = g
    else:
        h = m @ m.T if wide else m.T @ m
    try:
        ev, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError:
        ev, vecs = np.zeros(0), np.zeros((h.shape[0], 0))
    cols = vecs[:, np.flatnonzero(ev > 0)[::-1][:r]]
    if basis is not None:
        cols = basis @ cols
    cols = cols if wide else m @ cols
    fill = rng.standard_normal((n if wide else m.shape[0], r - cols.shape[1]))
    return _normalize_cols_inplace(np.hstack([cols, fill]), rng)


def _init_als(x, cfg, rng):
    """ALS start (mu, d, U, V, W). U and V are the top-r left singular
    vectors of the mode-1 and mode-2 unfoldings of the centered sign tensor
    (HOSVD-style), or Gaussian columns with init="random"; W and d then
    come from the least-squares solve of the mode-3 unfolding.

    No unfolding is copied, except mode 2's when it is tall. A permutation
    of an unfolding's columns keeps its left singular vectors, so mode 1
    reads the C-order view (p1, p2*p3); mode 2's Gram is summed over blocks
    of mode-1 rows; and mode 3 solves on the C-order view (p1*p2, p3), with
    the rows of the pseudo-inverse permuted to its (i, j) order, j fastest.
    """
    q, mu = _base_tensor(x)
    p1, p2, p3 = x.dims
    r = cfg.rank
    if cfg.init == "spectral":
        u_mat = _leading_left_singular(q.reshape(p1, -1), r, rng)
        if p2 <= p1 * p3:
            g2 = np.zeros((p2, p2))
            rows = max(1, BLOCK_CELLS // (p2 * p3))
            for a in range(0, p1, rows):
                m2 = q[a:a + rows].transpose(1, 0, 2).reshape(p2, -1)
                g2 += m2 @ m2.T
            v_mat = _leading_left_singular(None, r, rng, gram=g2)
        else:  # a tall unfolding, whose p2 x p2 Gram would outgrow the tensor
            v_mat = _leading_left_singular(ops.matricize(q, 2), r, rng)
    else:
        u_mat = _normalize_cols_inplace(rng.standard_normal((p1, r)), rng)
        v_mat = _normalize_cols_inplace(rng.standard_normal((p2, r)), rng)
    pinv = np.linalg.pinv(ops.khatri_rao(v_mat, u_mat).T, rcond=1e-10)  # rows (j, i), i fastest
    cmat = q.reshape(p1 * p2, p3).T @ pinv.reshape(p2, p1, r).transpose(1, 0, 2).reshape(p1 * p2, r)
    d = np.linalg.norm(cmat, axis=0)
    w_mat = _normalize_cols_inplace(cmat, rng)
    order = np.argsort(-d, kind="stable")
    return mu, d[order], u_mat[:, order], v_mat[:, order], w_mat[:, order]


def _normalize_cols_inplace(mat, rng):
    norms = np.linalg.norm(mat, axis=0)
    for j in np.flatnonzero(~np.isfinite(norms) | (norms == 0.0)):
        mat[:, j] = _random_unit(rng, mat.shape[0])
        norms[j] = 1.0
    mat /= norms
    return mat


def als_fit(x, cfg):
    """Rank-R MM fit by alternating least squares on the working tensor.

    Starts from _init_als: HOSVD-style columns on modes 1 and 2 (or
    Gaussian ones with init="random") and mode 3 by least squares. That is
    its one start, so n_starts and cluster_threshold do not apply. Each
    outer pass rebuilds the working tensor and offset, then cycles
    factor-matrix least-squares solves (Gram form, pseudo-inverse with
    cutoff 1e-10) until the factors settle. Weights and signs live in the
    last mode's solve; the output model has weights sorted nonincreasing.
    """
    _check_config(x, cfg)
    if cfg.penalty != "none":
        raise ValueError("ALS supports penalty 'none' only")
    if cfg.symmetric_uv:
        raise ValueError("symmetric mode is only available for the power-method solvers")
    rng = _rng(cfg.seed, 4)
    mu, d, u_mat, v_mat, w_mat = _init_als(x, cfg, rng)
    r = cfg.rank

    def sweep(zc, factors):
        p1, p2, p3 = zc.shape
        z1 = zc.reshape(p1, p2 * p3)  # columns ordered (j, k), k fastest
        u_mat, v_mat, w_mat = factors
        gram = (w_mat.T @ w_mat) * (v_mat.T @ v_mat)
        a = z1 @ ops.khatri_rao(v_mat, w_mat) @ np.linalg.pinv(gram, rcond=1e-10)
        u_mat = _normalize_cols_inplace(a, rng)
        # zu[r] is zc contracted with u_r along mode 1; modes 2 and 3
        # contract it further with w_r and v_r
        zu = (u_mat.T @ z1).reshape(r, p2, p3)
        gram = (w_mat.T @ w_mat) * (u_mat.T @ u_mat)
        b = (zu @ w_mat.T[:, :, None])[:, :, 0].T @ np.linalg.pinv(gram, rcond=1e-10)
        v_mat = _normalize_cols_inplace(b, rng)
        gram = (v_mat.T @ v_mat) * (u_mat.T @ u_mat)
        cm = (v_mat.T[:, None, :] @ zu)[:, 0, :].T @ np.linalg.pinv(gram, rcond=1e-10)
        d = np.linalg.norm(cm, axis=0)
        w_mat = _normalize_cols_inplace(cm, rng)
        return d, (u_mat, v_mat, w_mat)

    mu, d, (u_mat, v_mat, w_mat), stop = _mm_passes(x, cfg, mu, d, (u_mat, v_mat, w_mat), sweep)
    order = np.argsort(-d, kind="stable")
    order = order[d[order] > 0]  # a zero-weight component is degenerate: drop it
    full = order.size == r
    return FitReport(
        model=LogitModel(mu, d[order], u_mat[:, order], v_mat[:, order], w_mat[:, order]),
        converged=stop.converged and full,
        reason=stop.reason if full else "degenerate zero-weight components dropped",
        method="als",
        start_traces=[stop.trace],
        component_traces=[stop.trace],
    )


# ----------------------------------------------- multi-start power family


def _tuple_distance(a, b):
    """Similarity used for pruning: min over modes of the sign-resolved
    factor distance min(||f_a - f_b||, ||f_a + f_b||)."""
    dists = []
    for fa, fb in ((a.u, b.u), (a.v, b.v), (a.w, b.w)):
        dists.append(min(np.linalg.norm(fa - fb), np.linalg.norm(fa + fb)))
    return min(dists)


def _run_pool(x, cfg, s, stream):
    # every start reads the base tensor only, through its own random stream,
    # so all of them are drawn first and the base tensor is freed before the
    # MM runs allocate their working tensor; each run starts its offset at
    # the base tensor's mean, rank_one_mm_fit's default
    q = _base_tensor(x)[0]
    spectral = cfg.init == "spectral" and stream == 1
    starts = [_init_power(q, cfg, s, _rng(cfg.seed, stream, tau), spectral)
              for tau in range(cfg.effective_starts)]
    del q
    pool = []
    for init in starts:
        try:
            pool.append(rank_one_mm_fit(x, cfg, init=init))
        except DegenerateDirectionError:
            pass
    return pool


def fit_rank_path(x, cfg, ranks):
    """Rank-r fits of the power-method family (penalty "none", "l1" or
    "l0") for every r in ranks, from one multi-start pool. Returns
    {rank: FitReport}.

    Runs n_starts independent rank-one MM fits (n_starts for max(ranks)),
    then extracts components greedily: take the heaviest candidate,
    re-estimate from it, and prune all candidates within cluster_threshold
    of it. An exhausted pool gets one top-up round of fresh random starts;
    if it empties again the reports carry clusters_found < rank and
    converged=False. There is no deflation, so the rank-r model is a prefix
    of the rank-R one and equals a fit at rank r with the same n_starts.
    Each report's offset is re-maximized once with its components fixed.
    """
    ranks = sorted(set(int(r) for r in ranks))
    if not ranks:
        raise ValueError("ranks must be positive integers")
    if ranks[0] < 1:
        raise ValueError(f"rank must be >= 1, got {ranks[0]}")
    cfg_max = replace(cfg, rank=ranks[-1])
    _, s = _check_config(x, cfg_max)
    _check_pool(cfg_max)
    start_traces, components = [], []
    for stream in (1, 2):
        pool = _run_pool(x, cfg_max, s, stream)
        if not pool and stream == 1:
            raise RuntimeError("all multi-start fits failed; data may be degenerate")
        start_traces += [f.trace for f in pool]
        while pool and len(components) < cfg_max.rank:
            best = max(pool, key=lambda f: f.weight)
            components.append(rank_one_mm_fit(
                x, cfg_max, init=(best.u, best.v, best.w, best.weight), mu0=best.mu
            ))
            pool = [f for f in pool if _tuple_distance(f, best) > cfg.cluster_threshold]
        if len(components) == cfg_max.rank:
            break
    return {r: _report_from_components(x, cfg, r, components[:r], start_traces) for r in ranks}


def _report_from_components(x, cfg, rank, comps, start_traces):
    comps = sorted(comps, key=lambda f: -f.weight)
    found = len(comps)
    d = np.array([f.weight for f in comps])
    u_mat = np.column_stack([f.u for f in comps])
    v_mat = np.column_stack([f.v for f in comps])
    w_mat = np.column_stack([f.w for f in comps])
    mu = final_offset(x, (d, u_mat, v_mat, w_mat))
    if found < rank:
        reason = f"component pool exhausted: found {found} of {rank} clusters"
    elif not all(f.converged for f in comps):
        reason = "a component re-estimation hit the outer iteration limit"
    else:
        reason = "ok"
    return FitReport(
        model=LogitModel(mu, d, u_mat, v_mat, w_mat),
        converged=reason == "ok",
        reason=reason,
        method=_POWER_METHODS[cfg.penalty],
        start_traces=list(start_traces),
        component_traces=[f.trace for f in comps],
    )


# ------------------------------------------------------------- dispatcher


def fit(x, cfg, method):
    """Fit by method name: "als", "tp" (unpenalized power), "tsp" (l1) or
    "ttp" (l0). cfg.penalty must be the method's penalty."""
    expected = _penalty_of(method)
    if cfg.penalty != expected:
        raise ValueError(
            f"method {method!r} needs penalty {expected!r}, config has {cfg.penalty!r}"
        )
    if method == "als":
        return als_fit(x, cfg)
    return fit_rank_path(x, cfg, [cfg.rank])[cfg.rank]
