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
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from . import ops
from .likelihood import LogitModel, loss_and_working, neg_loglik, sigmoid

__all__ = [
    "DegenerateDirectionError",
    "FitConfig",
    "FitReport",
    "RankOneFit",
    "soft_threshold",
    "truncate_top",
    "l1_project",
    "power_update",
    "rank_one_mm_fit",
    "offset_update",
    "final_offset",
    "als_fit",
    "multi_start_fit",
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
    """Knobs shared by every solver.

    penalty selects the block update: "none" (plain power method / ALS),
    "l1" (soft-threshold with per-mode budgets c), or "l0" (hard truncation
    to per-mode cardinalities s). n_starts defaults to max(10, rank**3).
    seed may be an int or a tuple of ints; all randomness derives from it.
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
    return tuple(int(math.floor(float(ratio) * p)) for p in dims)


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


def _check_config(x, cfg):
    p1, p2, p3 = x.dims
    if cfg.rank < 1:
        raise ValueError(f"rank must be >= 1, got {cfg.rank}")
    if cfg.penalty not in ("none", "l1", "l0"):
        raise ValueError(f"unknown penalty {cfg.penalty!r}")
    if cfg.init not in ("spectral", "random"):
        raise ValueError(f"unknown init {cfg.init!r}")
    if not 1e-4 <= cfg.cluster_threshold <= 1.0:
        raise ValueError("cluster_threshold must lie in [1e-4, 1]")
    if cfg.effective_starts < cfg.rank:
        raise ValueError(
            f"n_starts={cfg.effective_starts} must be at least rank={cfg.rank}"
        )
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
    nrm = np.linalg.norm(g)
    if nrm == 0.0 or not np.isfinite(nrm):
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
    j = int(np.argmax(crossed))
    kj, s1j, s2j = k[j], s1[j], s2[j]
    if kj > c2:
        lam = (s1j - c * math.sqrt(max(kj * s2j - s1j * s1j, 0.0) / (kj - c2))) / kj
        lam = min(max(lam, nxt[j]), a[j])
    else:  # the k active entries are equal and c = sqrt(k): any lam on the segment
        lam = nxt[j]
    shrunk = soft_threshold(g, lam)
    return shrunk / np.linalg.norm(shrunk)


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
    n = np.linalg.norm(g)
    if n == 0.0 or not np.isfinite(n):
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


def offset_update(y, theta_c):
    """Exact offset step for the quadratic surrogate: mean of y - theta_c
    over all cells."""
    y = np.asarray(y, dtype=float)
    theta_c = np.asarray(theta_c, dtype=float)
    if y.shape != theta_c.shape:
        raise ValueError(f"shape mismatch: {y.shape} vs {theta_c.shape}")
    return float(y.mean() - theta_c.mean())


def final_offset(x, theta_c=None):
    """Offset maximizing the observed-data log-likelihood for fixed centered
    logits.

    The gradient sum(x - sigmoid(mu + theta_c)) is strictly decreasing in mu,
    so the root is unique; Newton steps are safeguarded by bisection on
    [-40, 40]. If the gradient never changes sign there (all-ones or
    all-zeros data) the bracket end is returned; logits beyond 40 saturate
    at double precision anyway. The search stops once |gradient| < 1e-8, or
    after 200 steps.
    """
    tol = 1e-8
    if theta_c is None:
        tc = np.zeros(x.n_observed)
    else:
        theta_c = np.asarray(theta_c, dtype=float)
        if theta_c.shape != x.dims:
            raise ValueError(
                f"centered logits shape {theta_c.shape} does not match data {x.dims}"
            )
        tc = theta_c[x.mask]
    xv = x.values[x.mask]

    def grad(mu):
        return float(np.sum(xv - sigmoid(mu + tc)))

    lo, hi = -40.0, 40.0
    glo, ghi = grad(lo), grad(hi)
    if glo <= tol:
        return lo
    if ghi >= -tol:
        return hi
    mu = 0.0
    for _ in range(200):
        p = sigmoid(mu + tc)
        g = float(np.sum(xv - p))
        if abs(g) < tol:
            return mu
        if g > 0:
            lo = mu
        else:
            hi = mu
        curve = float(np.sum(p * (1.0 - p)))
        if curve > 0:
            step = mu + g / curve
        else:
            step = 0.5 * (lo + hi)
        mu = step if lo < step < hi else 0.5 * (lo + hi)
    return mu


# ----------------------------------------------------------- fit records


@dataclass
class RankOneFit:
    """Result of one rank-one MM run."""

    mu: float
    weight: float
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    trace: np.ndarray
    n_outer: int
    converged: bool
    reason: str


@dataclass
class FitReport:
    """What a solver hands back: the model plus how it got there.

    loss_trace is the negative log-likelihood after each outer pass of the
    primary run (the dominant component's re-estimation for the multi-start
    pipeline, the MM loop itself for ALS); it is nonincreasing by
    construction.
    """

    model: LogitModel
    loss_trace: np.ndarray
    n_starts_used: int
    clusters_found: int
    converged: bool
    reason: str
    method: str = ""
    start_traces: list = field(default_factory=list)
    component_traces: list = field(default_factory=list)


# ------------------------------------------------------------- MM engine


def _factor_change(new, old):
    """Largest Frobenius change over the three factors."""
    return max(np.linalg.norm(a - b) for a, b in zip(new, old))


def _columns(f):
    return f[:, None] if f.ndim == 1 else f


def _mm_passes(x, cfg, mu, d, factors, block_update):
    """Outer MM passes shared by every solver.

    Starts from the logits of (mu, d, factors). Each pass takes the exact
    offset step on the working tensor, centers, lets
    block_update(zc, factors) -> (d, factors) decrease the quadratic
    surrogate, then reconstructs and scores the logits, building the next
    pass's working tensor from the same exp(-|theta|). The loop stops when
    the loss change falls below the absolute or relative tolerance, or when
    the factor change falls below factor_tol scaled by the square root of
    the number of components being updated.

    Returns (mu, d, factors, trace, n_outer, converged, reason); trace holds
    the negative log-likelihood at the start and after each pass.
    """
    scale = math.sqrt(np.size(d))
    theta = ops.cp_reconstruct(mu, d, *map(_columns, factors))
    y = np.empty_like(theta)
    nll_prev = loss_and_working(x, theta, y)
    trace = [nll_prev]
    converged, reason = False, "maximum outer iterations reached"
    n_outer = 0
    while n_outer < cfg.max_outer_iters:
        n_outer += 1
        theta -= mu  # theta buffer now holds the centered logits
        mu = offset_update(y, theta)
        y -= mu  # y buffer now holds the centered working tensor
        old = factors
        d, factors = block_update(y, factors)
        ops.cp_reconstruct(mu, d, *map(_columns, factors), out=theta)
        if n_outer < cfg.max_outer_iters:
            nll = loss_and_working(x, theta, y)
        else:  # no pass follows, so no working tensor is needed
            nll = neg_loglik(x, theta)
        trace.append(nll)
        dn = abs(nll_prev - nll)
        if dn < cfg.outer_abs_tol:
            converged, reason = True, "loss change below absolute tolerance"
        elif dn <= cfg.outer_rel_tol * max(abs(nll), 1e-12):
            converged, reason = True, "loss change below relative tolerance"
        elif _factor_change(factors, old) <= scale * cfg.factor_tol:
            converged, reason = True, "factor change below tolerance"
        if converged:
            break
        nll_prev = nll
    return mu, d, factors, trace, n_outer, converged, reason


# ------------------------------------------------------------ rank-one MM


def _random_unit(rng, p):
    while True:
        g = rng.standard_normal(p)
        n = np.linalg.norm(g)
        if n > 0:
            return g / n


def rank_one_mm_fit(x, cfg, init=None, mu0=None, rng=None):
    """MM fit of a single rank-one logit component (power-method family).

    init: (u, v, w) directions or (u, v, w, d) with a starting weight;
    None draws one according to cfg.init. Each start vector is projected
    onto its mode's feasible set first, so a zero one raises
    DegenerateDirectionError. mu0 defaults to the mean of
    2x - 1 over all cells (unobserved zero-filled). The returned trace
    holds the negative log-likelihood at the start and after each outer
    pass.
    """
    c, s = _check_config(x, cfg)
    if rng is None:
        rng = _rng(cfg.seed, 9)
    if init is None:
        u, v, w, d, mu_init = _init_power(_base_tensor(x), cfg, s, rng, cfg.init == "spectral")
        if mu0 is None:
            mu0 = mu_init
    else:
        u, v, w = (np.asarray(f, dtype=float) for f in init[:3])
        d = float(init[3]) if len(init) == 4 else 0.0
    u = _project(u, 1, cfg.penalty, c, s)
    v = u if cfg.symmetric_uv else _project(v, 2, cfg.penalty, c, s)
    w = _project(w, 3, cfg.penalty, c, s)
    if mu0 is None:
        mu0 = _base_tensor(x)[1]

    def block_update(zc, factors):
        if ops.frob_norm(zc) == 0.0:
            return 0.0, factors
        u, v, w = factors
        for _t in range(cfg.max_inner_iters):
            old = (u, v, w)
            u = _power_step(zc, u, v, w, 1, cfg.penalty, c, s, rng)
            v = u if cfg.symmetric_uv else _power_step(zc, u, v, w, 2, cfg.penalty, c, s, rng)
            w = _power_step(zc, u, v, w, 3, cfg.penalty, c, s, rng)
            if _factor_change((u, v, w), old) <= cfg.inner_tol:
                break
        d = float(ops.rank_one_contract(zc, u, v, w))
        if d < 0.0:
            w, d = -w, -d
        return d, (u, v, w)

    mu, d, (u, v, w), trace, n_outer, converged, reason = _mm_passes(
        x, cfg, float(mu0), d, (u, v, w), block_update
    )
    return RankOneFit(
        mu=mu,
        weight=d,
        u=u,
        v=v,
        w=w,
        trace=np.asarray(trace),
        n_outer=n_outer,
        converged=converged,
        reason=reason,
    )


def _power_step(zc, u, v, w, mode, penalty, c, s, rng):
    # a zero contraction on nonzero data is a measure-zero accident; the
    # caller-reinitializes contract is a fresh random direction
    try:
        return power_update(zc, u, v, w, mode, penalty, c, s)
    except DegenerateDirectionError:
        p = zc.shape[mode - 1]
        fresh = [u, v, w]
        fresh[mode - 1] = _random_unit(rng, p)
        return power_update(zc, fresh[0], fresh[1], fresh[2], mode, penalty, c, s)


# -------------------------------------------------------- initializations


def _base_tensor(x):
    """Centered sign tensor: 2x - 1 with unobserved cells zero-filled, then
    its mean removed. Returns (Q, mean)."""
    q = 2.0 * x.values - 1.0
    if not x.fully_observed:
        q[~x.mask] = 0.0
    mu = float(q.mean())
    return q - mu, mu


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


def _init_power(base, cfg, s, rng, spectral):
    """Rank-one start (u, v, w, d, mu): u and v from the spectral pair, or
    Gaussian when spectral is False or the pair is degenerate; w and d then
    solved from the centered sign tensor. base is _base_tensor(x)."""
    q, mu = base
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
    return u, v, w, d, mu


# -------------------------------------------------------------------- ALS


def _leading_left_singular(m, r, rng):
    # the top-r eigenpairs of the smaller Gram matrix: its eigenvalues are
    # the squared singular values of m, and its eigenvectors the left
    # singular vectors (m m^T) or the right ones (m^T m), which m maps to
    # the left ones
    n, k = m.shape
    wide = n <= k
    gram = m @ m.T if wide else m.T @ m
    size = gram.shape[0]
    try:
        ev, vecs = scipy.linalg.eigh(gram, subset_by_index=(max(size - r, 0), size - 1))
    except (np.linalg.LinAlgError, ValueError):
        ev, vecs = None, None
    cols = []
    if vecs is not None:
        for j in range(vecs.shape[1] - 1, -1, -1):
            if not (np.isfinite(ev[j]) and ev[j] > 0):
                continue
            if wide:
                cols.append(vecs[:, j])
                continue
            col = m @ vecs[:, j]
            nrm = np.linalg.norm(col)
            if nrm > 0 and np.isfinite(nrm):
                cols.append(col / nrm)
    while len(cols) < r:
        cols.append(_random_unit(rng, m.shape[0]))
    return np.column_stack(cols)


def _init_als(x, cfg, rng, spectral):
    q, mu = _base_tensor(x)
    p1, p2, p3 = x.dims
    r = cfg.rank
    if spectral:
        u_mat = _leading_left_singular(ops.matricize(q, 1), r, rng)
        v_mat = _leading_left_singular(ops.matricize(q, 2), r, rng)
    else:
        u_mat = rng.standard_normal((p1, r))
        v_mat = rng.standard_normal((p2, r))
        u_mat /= np.linalg.norm(u_mat, axis=0)
        v_mat /= np.linalg.norm(v_mat, axis=0)
    kr = ops.khatri_rao(v_mat, u_mat)
    cmat = ops.matricize(q, 3) @ np.linalg.pinv(kr.T, rcond=1e-10)
    d = np.linalg.norm(cmat, axis=0)
    w_mat = np.empty_like(cmat)
    for j in range(r):
        if d[j] > 0:
            w_mat[:, j] = cmat[:, j] / d[j]
        else:
            w_mat[:, j] = _random_unit(rng, p3)
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

    Each outer pass rebuilds the working tensor and offset, then cycles
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
    mu, d, u_mat, v_mat, w_mat = _init_als(x, cfg, rng, spectral=(cfg.init == "spectral"))
    r = cfg.rank
    inner_tol = math.sqrt(r) * cfg.inner_tol

    def block_update(zc, factors):
        p1, p2, p3 = zc.shape
        z1 = zc.reshape(p1, p2 * p3)  # columns ordered (j, k), k fastest
        u_mat, v_mat, w_mat = factors
        for _t in range(cfg.max_inner_iters):
            old = (u_mat, v_mat, w_mat)
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
            if _factor_change((u_mat, v_mat, w_mat), old) <= inner_tol:
                break
        return d, (u_mat, v_mat, w_mat)

    mu, d, (u_mat, v_mat, w_mat), trace, _, converged, reason = _mm_passes(
        x, cfg, mu, d, (u_mat, v_mat, w_mat), block_update
    )

    order = np.argsort(-d, kind="stable")
    d = d[order]
    u_mat, v_mat, w_mat = u_mat[:, order], v_mat[:, order], w_mat[:, order]
    keep = d > 0
    if not keep.all():
        d, u_mat, v_mat, w_mat = d[keep], u_mat[:, keep], v_mat[:, keep], w_mat[:, keep]
        converged = False
        reason = "degenerate zero-weight components dropped"
    return FitReport(
        model=LogitModel(mu, d, u_mat, v_mat, w_mat),
        loss_trace=np.asarray(trace),
        n_starts_used=1,
        clusters_found=int(d.shape[0]),
        converged=converged and int(d.shape[0]) == r,
        reason=reason,
        method="als",
        component_traces=[np.asarray(trace)],
    )


# ----------------------------------------------- multi-start power family


def _tuple_distance(a, b):
    """Similarity used for pruning: min over modes of the sign-resolved
    factor distance min(||f_a - f_b||, ||f_a + f_b||)."""
    dists = []
    for fa, fb in ((a.u, b.u), (a.v, b.v), (a.w, b.w)):
        dists.append(min(np.linalg.norm(fa - fb), np.linalg.norm(fa + fb)))
    return min(dists)


def _run_pool(x, cfg, s, count, stream):
    base = _base_tensor(x)
    spectral = cfg.init == "spectral" and stream == 1

    def one(tau):
        rng = _rng(cfg.seed, stream, tau)
        try:
            u, v, w, d, mu0 = _init_power(base, cfg, s, rng, spectral)
            return rank_one_mm_fit(x, cfg, init=(u, v, w, d), mu0=mu0, rng=rng)
        except DegenerateDirectionError:
            return None

    return [f for f in map(one, range(count)) if f is not None]


def multi_start_fit(x, cfg):
    """Rank-R fit for the power-method family (penalty "none", "l1" or "l0").

    Runs n_starts independent rank-one MM fits, then extracts R components
    greedily: take the heaviest candidate, re-estimate from it, and prune
    all candidates within cluster_threshold of it. An exhausted pool gets
    one top-up round of fresh random starts; if it empties again the report
    carries clusters_found < rank and converged=False. The offset is
    re-maximized once at the end with all components fixed.
    """
    reports = _multi_start_reports(x, cfg, [cfg.rank])
    return reports[cfg.rank]


def fit_rank_path(x, cfg, ranks):
    """Nested fits for several ranks from one multi-start pool.

    Greedy extraction makes the rank-r model a prefix of the rank-R one, so
    a sweep over ranks only needs the pool once. Equivalent to calling
    multi_start_fit per rank with the same n_starts (the pool here is sized
    for max(ranks)). Returns {rank: FitReport}.
    """
    ranks = sorted(set(int(r) for r in ranks))
    if not ranks or ranks[0] < 1:
        raise ValueError("ranks must be positive integers")
    return _multi_start_reports(x, cfg, ranks)


def _multi_start_reports(x, cfg, ranks):
    r_max = max(ranks)
    cfg_max = replace(cfg, rank=r_max)
    _, s = _check_config(x, cfg_max)
    n = cfg_max.effective_starts
    pool = _run_pool(x, cfg_max, s, n, stream=1)
    n_used = len(pool)
    if not pool:
        raise RuntimeError("all multi-start fits failed; data may be degenerate")
    start_traces = [f.trace for f in pool]

    components = []
    topped_up = False
    attempt = 0
    while len(components) < r_max:
        if not pool:
            if topped_up:
                break
            topped_up = True
            pool = _run_pool(x, cfg_max, s, n, stream=2)
            n_used += len(pool)
            start_traces.extend(f.trace for f in pool)
            continue
        best = max(pool, key=lambda f: f.weight)
        refit = rank_one_mm_fit(
            x,
            cfg_max,
            init=(best.u, best.v, best.w, best.weight),
            mu0=best.mu,
            rng=_rng(cfg.seed, 3, attempt),
        )
        attempt += 1
        pool = [f for f in pool if _tuple_distance(f, best) > cfg.cluster_threshold]
        if refit.weight > 0:
            components.append(refit)

    reports = {}
    for r in ranks:
        comps = components[: min(r, len(components))]
        reports[r] = _report_from_components(x, cfg, r, comps, n_used, start_traces)
    return reports


def _report_from_components(x, cfg, rank, comps, n_starts_used, start_traces):
    comps = sorted(comps, key=lambda f: -f.weight)
    found = len(comps)
    if found == 0:
        raise RuntimeError("no usable components extracted; data may be degenerate")
    d = np.array([f.weight for f in comps])
    u_mat = np.column_stack([f.u for f in comps])
    v_mat = np.column_stack([f.v for f in comps])
    w_mat = np.column_stack([f.w for f in comps])
    theta_c = ops.cp_reconstruct(0.0, d, u_mat, v_mat, w_mat)
    mu = final_offset(x, theta_c)
    all_converged = all(f.converged for f in comps)
    if found < rank:
        converged = False
        reason = f"component pool exhausted: found {found} of {rank} clusters"
    elif not all_converged:
        converged = False
        reason = "a component re-estimation hit the outer iteration limit"
    else:
        converged = True
        reason = "ok"
    return FitReport(
        model=LogitModel(mu, d, u_mat, v_mat, w_mat),
        loss_trace=comps[0].trace,
        n_starts_used=n_starts_used,
        clusters_found=found,
        converged=converged,
        reason=reason,
        method=_POWER_METHODS[cfg.penalty],
        start_traces=list(start_traces),
        component_traces=[f.trace for f in comps],
    )


# ------------------------------------------------------------- dispatcher


def fit(x, cfg, method=None):
    """Fit by method name: "als", "tp" (unpenalized power), "tsp" (l1) or
    "ttp" (l0). method None infers it from cfg.penalty (power family)."""
    if method is None:
        method = _POWER_METHODS[cfg.penalty]
    expected = _penalty_of(method)
    if cfg.penalty != expected:
        raise ValueError(
            f"method {method!r} needs penalty {expected!r}, config has {cfg.penalty!r}"
        )
    if method == "als":
        return als_fit(x, cfg)
    return multi_start_fit(x, cfg)
