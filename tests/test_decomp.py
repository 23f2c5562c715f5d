"""Solvers: sparsity operators, power updates, MM loops, multi-start."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logitcp import decomp, likelihood, ops
from logitcp.decomp import (
    DegenerateDirectionError,
    FitConfig,
    _base_tensor,
    _check_config,
    _init_als,
    _init_power,
    _leading_left_singular,
    _mm_passes,
    _project,
    als_fit,
    c_from_ratio,
    final_offset,
    fit,
    fit_rank_path,
    l1_project,
    method_config,
    power_update,
    rank_one_mm_fit,
    s_from_ratio,
    soft_threshold,
    truncate_top,
)
from logitcp.likelihood import BinaryTensor, neg_loglik, sigmoid, softplus
from logitcp.simulate import SimConfig, gen_dataset, gen_sparse_factors

MONOTONE_SLACK = 1e-9


def bernoulli_tensor(theta, seed=0):
    rng = np.random.default_rng(seed)
    vals = (rng.random(theta.shape) < sigmoid(theta)).astype(float)
    return BinaryTensor.dense(vals)


def planted_rank_one(dims=(30, 8, 6), weight=25.0, sparsity=0.25, seed=0):
    """A data tensor with one sparse planted component, plus its factors."""
    rng = np.random.default_rng(seed)
    cfg = SimConfig(dims=dims, rank=1, snr=(1.0,), sparsity=sparsity, seed=seed)
    u, v, w = gen_sparse_factors(cfg, rng)
    theta = ops.cp_reconstruct(0.0, [weight], u, v, w)
    x = bernoulli_tensor(theta, seed=seed + 1)
    return x, (u[:, 0], v[:, 0], w[:, 0])


# ------------------------------------------------------ sparsity operators


def test_soft_threshold_hand_example():
    np.testing.assert_array_equal(
        soft_threshold(np.array([3.0, -1.0, 0.5]), 1.0), [2.0, 0.0, 0.0]
    )


def test_soft_threshold_zero_lambda_is_identity():
    v = np.array([1.0, -2.0, 0.0, 3.5])
    np.testing.assert_array_equal(soft_threshold(v, 0.0), v)


def test_soft_threshold_l1_norm_nonincreasing_in_lambda():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(20)
    norms = [np.abs(soft_threshold(v, lam)).sum() for lam in np.linspace(0, 3, 31)]
    assert np.all(np.diff(norms) <= 1e-12)


def test_truncate_top_hand_examples():
    np.testing.assert_array_equal(truncate_top(np.array([3.0, -1.0, 2.0]), 2), [3.0, 0.0, 2.0])
    v = np.array([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(truncate_top(v, 3), v)
    # ties keep the lowest index
    np.testing.assert_array_equal(truncate_top(np.array([1.0, 1.0, 1.0]), 1), [1.0, 0.0, 0.0])


def test_truncate_top_rejects_bad_cardinality():
    with pytest.raises(ValueError):
        truncate_top(np.ones(3), 0)
    with pytest.raises(ValueError):
        truncate_top(np.ones(3), 4)


def test_l1_project_feasibility_endpoint_is_normalize():
    g = np.array([3.0, -1.0, 0.5, 2.0])
    got = l1_project(g, np.sqrt(4))
    np.testing.assert_allclose(got, g / np.linalg.norm(g), atol=1e-12)


def test_l1_project_unit_budget_is_one_hot():
    got = l1_project(np.array([1.0, -4.0, 2.0]), 1.0)
    np.testing.assert_allclose(got, [0.0, -1.0, 0.0], atol=1e-12)


def test_l1_project_matches_lambda_grid_oracle():
    # independent oracle: scan a dense lambda grid for the value whose
    # normalized soft-threshold lands on the budget
    g = np.array([3.0, 1.0])
    c = 1.2
    lams = np.linspace(0.0, np.abs(g).max(), 3_000_001)[:-1]
    shrunk = np.sign(g) * np.clip(np.abs(g)[None, :] - lams[:, None], 0.0, None)
    norms = np.linalg.norm(shrunk, axis=1)
    keep = norms > 0
    l1 = np.abs(shrunk[keep]).sum(axis=1) / norms[keep]
    best = np.argmin(np.abs(l1 - c))
    oracle = shrunk[keep][best] / norms[keep][best]
    got = l1_project(g, c)
    np.testing.assert_allclose(got, oracle, atol=1e-4)
    assert np.abs(got).sum() == pytest.approx(c, abs=1e-6)
    assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-10)


def _bisection_l1_project(g, c, steps=200):
    # reference: bisect lam on [0, max|g|] for ||Normalize(S(g, lam))||_1 = c,
    # keeping the feasible end; a single spike when no lam is feasible
    lo, hi = 0.0, float(np.abs(g).max())
    best = None
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        shrunk = np.sign(g) * np.maximum(np.abs(g) - mid, 0.0)
        n = np.linalg.norm(shrunk)
        if n == 0.0:
            hi = mid
        elif np.abs(shrunk).sum() / n > c:
            lo = mid
        else:
            hi, best = mid, shrunk / n
    if best is None:
        best = np.zeros_like(g)
        j = int(np.argmax(np.abs(g)))
        best[j] = np.sign(g[j])
    return best


def _random_directions(rng, count):
    for case in range(count):
        p = int(rng.integers(2, 1201))
        g = rng.standard_normal(p)
        if case % 4 == 1:
            g[rng.random(p) < 0.5] = 0.0  # many exact zeros
        elif case % 4 == 2:
            g = np.round(g, 1)  # many ties, including at the top
        elif case % 4 == 3:
            g = g ** 3  # heavy tails
        if not g.any():
            g[0] = 1.0
        c = 1.0 + rng.random() * (np.sqrt(p) - 1.0)
        yield g, c


def test_l1_project_matches_bisection_reference():
    rng = np.random.default_rng(12)
    for g, c in _random_directions(rng, 300):
        got = l1_project(g, c)
        want = _bisection_l1_project(g, c)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_l1_project_meets_a_binding_budget_exactly():
    rng = np.random.default_rng(13)
    binding = 0
    for g, c in _random_directions(rng, 300):
        u0 = g / np.linalg.norm(g)
        top = np.abs(g) == np.abs(g).max()
        if np.abs(u0).sum() <= c or top.sum() > c * c:
            continue  # feasible input, or the tie fallback
        binding += 1
        got = l1_project(g, c)
        assert np.abs(got).sum() == pytest.approx(c, rel=0, abs=1e-12)
        assert np.linalg.norm(got) == pytest.approx(1.0, rel=0, abs=1e-12)
    assert binding > 150


def test_l1_project_over_budget_by_rounding_stays_put():
    # a budget one ulp below ||u0||_1: the projection is u0 up to rounding,
    # not the single spike a threshold at the second magnitude would give
    rng = np.random.default_rng(14)
    for _ in range(300):
        g = rng.standard_normal(int(rng.integers(5, 400)))
        u0 = g / np.linalg.norm(g)
        c = np.nextafter(np.abs(u0).sum(), 0.0)
        got = l1_project(g, c)
        np.testing.assert_allclose(got, u0, rtol=0, atol=1e-12)
        assert np.abs(got).sum() <= c + 1e-12


def test_l1_project_feasible_input_and_tie_fallback():
    g = np.array([3.0, -1.0, 0.5, 2.0])
    np.testing.assert_array_equal(l1_project(g, 1.9), g / np.linalg.norm(g))
    # two entries tied at max|g| hold the ratio at sqrt(2) or above, so a
    # budget below sqrt(2) falls back to a spike at the first of them
    np.testing.assert_array_equal(l1_project(np.array([1.0, -4.0, 4.0, 2.0]), 1.3), [0, -1, 0, 0])
    # at exactly sqrt(2) the tied pair itself is the answer
    got = l1_project(np.array([1.0, -4.0, 4.0, 2.0]), np.sqrt(2.0))
    np.testing.assert_allclose(got, [0.0, -np.sqrt(0.5), np.sqrt(0.5), 0.0], atol=1e-15)


def test_l1_project_rejects_zero_vector():
    with pytest.raises(DegenerateDirectionError):
        l1_project(np.zeros(3), 1.5)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=2, max_size=8).filter(
        lambda v: max(abs(t) for t in v) > 1e-3
    ),
    st.floats(0.0, 1.0),
)
def test_l1_project_always_feasible_and_unit(vec, frac):
    g = np.asarray(vec)
    p = len(g)
    c = 1.0 + frac * (np.sqrt(p) - 1.0)
    got = l1_project(g, c)
    assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-8)
    assert np.abs(got).sum() <= c + 1e-6


# ------------------------------------------------- power and offset updates


def test_power_update_fixed_point_on_exact_rank_one():
    rng = np.random.default_rng(1)
    u = rng.standard_normal(5)
    v = rng.standard_normal(4)
    w = rng.standard_normal(3)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    w /= np.linalg.norm(w)
    z = ops.cp_reconstruct(0.0, [6.0], u[:, None], v[:, None], w[:, None])
    got_u = power_update(z, None, v, w, 1)
    got_v = power_update(z, u, None, w, 2)
    got_w = power_update(z, u, v, None, 3)
    np.testing.assert_allclose(np.abs(got_u @ u), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.abs(got_v @ v), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.abs(got_w @ w), 1.0, atol=1e-12)


def test_power_update_zero_contraction_raises():
    with pytest.raises(DegenerateDirectionError):
        power_update(np.zeros((3, 3, 3)), None, np.ones(3) / np.sqrt(3), np.ones(3) / np.sqrt(3), 1)


def test_power_update_penalty_off_matches_plain():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((5, 4, 3))
    v = rng.standard_normal(4)
    w = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    w /= np.linalg.norm(w)
    plain = power_update(z, None, v, w, 1)
    c = c_from_ratio(z.shape, 1.0)
    s = s_from_ratio(z.shape, 1.0)
    np.testing.assert_allclose(power_update(z, None, v, w, 1, "l1", c=c), plain, atol=1e-12)
    np.testing.assert_allclose(power_update(z, None, v, w, 1, "l0", s=s), plain, atol=1e-12)


@pytest.mark.parametrize("dims", [(3, 4, 2), (70, 30, 40)], ids=["one-block", "three-blocks"])
@pytest.mark.parametrize("masked", [False, True])
def test_offset_step_is_mean_of_working_minus_centered_logits(dims, masked):
    # the pass's offset step mu + 4*sum_obs(x - sigmoid(theta))/N is the exact
    # surrogate step mean(y - theta_c) over all cells, y the working tensor
    rng = np.random.default_rng(3)
    d = np.array([4.0, 1.5])
    U, V, W = (np.linalg.qr(rng.standard_normal((p, 2)))[0] for p in dims)
    mu0 = -0.7
    theta_c = ops.cp_reconstruct(0.0, d, U, V, W)
    theta = theta_c + mu0
    vals = (rng.random(dims) < sigmoid(theta)).astype(float)
    mask = rng.random(dims) < (0.6 if masked else 1.1)
    x = BinaryTensor(np.where(mask, vals, 0.0), mask)
    y = np.where(mask, theta + 4.0 * (x.values - sigmoid(theta)), theta)
    want = float(np.mean(y - theta_c))
    seen = []

    def block_update(zc, factors):
        seen.append(zc.copy())
        return d, factors

    cfg = FitConfig(rank=2, max_outer_iters=1)
    mu = _mm_passes(x, cfg, mu0, d, (U, V, W), block_update)[0]
    assert mu == pytest.approx(want, rel=1e-12, abs=1e-12)
    # the block update sees the working tensor centered at the new offset
    np.testing.assert_allclose(seen[0], y - mu, rtol=0, atol=1e-12)


def zero_logits(form, dims):
    """All-zero centered logits in one of final_offset's input forms."""
    if form == "none":
        return None
    if form == "tensor":
        return np.zeros(dims)
    r = int(form[-1])  # "pieces0" or "pieces1": (d, U, V, W) of that rank
    return (np.zeros(r), *(np.eye(p, r) for p in dims))


@pytest.mark.parametrize("form", ["none", "tensor", "pieces0", "pieces1"])
def test_final_offset_symmetry_and_saturation(form):
    half = np.zeros((2, 2, 2))
    half[0] = 1.0
    x = BinaryTensor.dense(half)
    assert final_offset(x, zero_logits(form, x.dims)) == pytest.approx(0.0, abs=1e-6)
    ones = BinaryTensor.dense(np.ones((2, 2, 2)))
    assert final_offset(ones, zero_logits(form, ones.dims)) == 40.0
    zeros = BinaryTensor.dense(np.zeros((2, 2, 2)))
    assert final_offset(zeros, zero_logits(form, zeros.dims)) == -40.0


@pytest.mark.parametrize("rank", [0, 1, 2])
@pytest.mark.parametrize("masked", [False, True])
def test_final_offset_matches_grid_oracle(masked, rank, monkeypatch):
    # blocks of one mode-1 row, so the block sums run over several blocks
    monkeypatch.setattr(likelihood, "BLOCK_CELLS", 1)
    rng = np.random.default_rng(4)
    dims = (4, 3, 3)
    vals = (rng.random(dims) < 0.3).astype(float)
    mask = rng.random(dims) >= 0.25 if masked else np.ones(dims, dtype=bool)
    x = BinaryTensor(vals, mask)
    d = np.sort(1.0 + rng.random(rank))[::-1]
    factors = [f / np.linalg.norm(f, axis=0) for f in (rng.standard_normal((p, rank)) for p in dims)]
    theta_c = ops.cp_reconstruct(0.0, d, *factors)
    got = final_offset(x, theta_c)
    assert final_offset(x, (d, *factors)) == pytest.approx(got, rel=0, abs=1e-12)
    # the observed-cell negative log-likelihood at every grid offset
    grid = np.arange(-6.0, 6.0, 1e-4)[:, None]
    t = grid + theta_c[mask]
    nlls = (softplus(t) - vals[mask] * t).sum(axis=1)
    oracle = grid[int(np.argmin(nlls)), 0]
    assert got == pytest.approx(oracle, abs=1e-3)


# ----------------------------------------------------------- rank-one MM


def power_start(x, cfg, spectral, seed=None):
    """A rank-one start (u, v, w, d, mu) as the multi-start pools draw it,
    from the stream of `seed` (default cfg.seed)."""
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    return _init_power(_base_tensor(x), cfg, cfg.s, rng, spectral)


def mm_fit(x, cfg, seed=None):
    """rank_one_mm_fit from a power_start of cfg.init's kind."""
    u, v, w, d, mu = power_start(x, cfg, cfg.init == "spectral", seed)
    return rank_one_mm_fit(x, cfg, init=(u, v, w, d), mu0=mu)


def test_rank_one_traces_monotone_all_penalties_and_inits():
    x, (u, v, w) = planted_rank_one()
    c_or = tuple(float(np.abs(f).sum()) for f in (u, v, w))
    s_or = tuple(int(np.sum(f != 0)) for f in (u, v, w))
    for seed in range(4):
        for penalty, kw in (("none", {}), ("l1", {"c": c_or}), ("l0", {"s": s_or})):
            for init in ("spectral", "random"):
                cfg = FitConfig(rank=1, penalty=penalty, init=init, seed=seed, **kw)
                f = mm_fit(x, cfg)
                steps = np.diff(f.trace)
                assert steps.size == 0 or steps.max() <= MONOTONE_SLACK
                assert f.weight >= 0.0
                for vec in (f.u, f.v, f.w):
                    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-8)


def test_rank_one_fit_is_deterministic():
    x, _ = planted_rank_one()
    cfg = FitConfig(rank=1, seed=11)
    a = mm_fit(x, cfg)
    b = mm_fit(x, cfg)
    assert np.array_equal(a.trace, b.trace)
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v) and np.array_equal(a.w, b.w)
    assert a.mu == b.mu and a.weight == b.weight


def test_rank_one_respects_l0_cardinalities():
    x, _ = planted_rank_one()
    s = (5, 2, 2)
    cfg = FitConfig(rank=1, penalty="l0", s=s, seed=3)
    f = mm_fit(x, cfg)
    for vec, si in zip((f.u, f.v, f.w), s):
        assert int(np.sum(np.abs(vec) > 1e-10)) <= si


def test_rank_one_respects_l1_budgets():
    x, _ = planted_rank_one()
    c = (2.5, 1.4, 1.3)
    cfg = FitConfig(rank=1, penalty="l1", c=c, seed=3)
    f = mm_fit(x, cfg)
    for vec, ci in zip((f.u, f.v, f.w), c):
        assert np.abs(vec).sum() <= ci + 1e-6


def test_penalty_off_equivalence_from_shared_init():
    x, _ = planted_rank_one()
    rng = np.random.default_rng(7)
    init = tuple(
        g / np.linalg.norm(g) for g in (rng.standard_normal(p) for p in x.dims)
    )
    base = FitConfig(rank=1, seed=5)
    plain = rank_one_mm_fit(x, base, init=init)
    relaxed_l1 = FitConfig(rank=1, penalty="l1", c=c_from_ratio(x.dims, 1.0), seed=5)
    relaxed_l0 = FitConfig(rank=1, penalty="l0", s=s_from_ratio(x.dims, 1.0), seed=5)
    for cfg in (relaxed_l1, relaxed_l0):
        other = rank_one_mm_fit(x, cfg, init=init)
        assert np.abs(other.u - plain.u).max() < 1e-12
        assert np.abs(other.v - plain.v).max() < 1e-12
        assert np.abs(other.w - plain.w).max() < 1e-12
        np.testing.assert_allclose(other.trace, plain.trace, atol=1e-9)


def test_infeasible_start_is_projected_before_first_pass():
    # a dense start under a tight l1 budget must not break descent
    x, _ = planted_rank_one()
    dense_init = tuple(np.ones(p) / np.sqrt(p) for p in x.dims)
    cfg = FitConfig(rank=1, penalty="l1", c=(1.5, 1.2, 1.2), seed=0)
    f = rank_one_mm_fit(x, cfg, init=dense_init)
    steps = np.diff(f.trace)
    assert steps.size == 0 or steps.max() <= MONOTONE_SLACK


def _reference_rank_one(x, cfg, init, mu0):
    """rank_one_mm_fit written the long way: a sweep of three power_update
    contractions, and the weight from a contraction on all three modes."""
    c, s = _check_config(x, cfg)
    u, v, w, d = init
    u = _project(u, 1, cfg.penalty, c, s)
    v = u if cfg.symmetric_uv else _project(v, 2, cfg.penalty, c, s)
    w = _project(w, 3, cfg.penalty, c, s)

    def sweep(zc, factors):
        u, v, w = factors
        u = power_update(zc, u, v, w, 1, cfg.penalty, c, s)
        v = u if cfg.symmetric_uv else power_update(zc, u, v, w, 2, cfg.penalty, c, s)
        w = power_update(zc, u, v, w, 3, cfg.penalty, c, s)
        return float(ops.rank_one_contract(zc, u, v, w)), (u, v, w)

    return _mm_passes(x, cfg, mu0, d, (u, v, w), sweep)


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize(
    "penalty,symmetric",
    [("none", False), ("l1", False), ("l0", False), ("none", True), ("l1", True)],
)
def test_rank_one_sweep_matches_three_contraction_reference(penalty, symmetric, masked):
    x, _ = planted_rank_one(dims=(8, 8, 6) if symmetric else (30, 8, 6), seed=4)
    if masked:
        mask = np.random.default_rng(5).random(x.dims) < 0.6
        x = BinaryTensor(np.where(mask, x.values, 0.0), mask)
    kw = {"l1": {"c": c_from_ratio(x.dims, 0.6)}, "l0": {"s": s_from_ratio(x.dims, 0.5)}}
    for passes in (1, 2):
        cfg = FitConfig(
            rank=1, penalty=penalty, symmetric_uv=symmetric, max_outer_iters=passes,
            outer_abs_tol=1e-12, seed=3, **kw.get(penalty, {}),
        )
        _, s = _check_config(x, cfg)
        u, v, w, d, mu0 = _init_power(_base_tensor(x), cfg, s, np.random.default_rng(8), True)
        got = rank_one_mm_fit(x, cfg, init=(u, v, w, d), mu0=mu0)
        mu, d, (ru, rv, rw), stop = _reference_rank_one(x, cfg, (u, v, w, d), mu0)
        assert got.n_outer == stop.n_outer == passes
        assert got.mu == mu and got.weight == d
        for a, b in ((got.u, ru), (got.v, rv), (got.w, rw), (got.trace, stop.trace)):
            assert np.array_equal(a, b)


def test_zero_contraction_in_a_sweep_raises():
    # logits 0 on data with as many observed ones as zeros make the centred
    # working tensor +-2 on observed cells and exactly 0 on unobserved ones;
    # with v and w spikes on an unobserved fiber the mode-1 contraction is 0
    vals = np.zeros((4, 3, 2))
    vals[::2] = 1.0
    mask = np.ones((4, 3, 2), dtype=bool)
    mask[:, 0, 0] = False
    x = BinaryTensor(vals, mask)
    assert 2 * x.values.sum() == x.n_observed
    init = (np.ones(4), np.eye(3)[0], np.eye(2)[0])
    with pytest.raises(DegenerateDirectionError, match="mode 1"):
        rank_one_mm_fit(x, FitConfig(rank=1), init=init, mu0=0.0)


def test_rank_one_on_masked_data():
    x_full, _ = planted_rank_one()
    rng = np.random.default_rng(9)
    mask = rng.random(x_full.dims) < 0.6
    mask.ravel()[0] = True
    vals = np.where(mask, x_full.values, 0.0)
    x = BinaryTensor(vals, mask)
    f = mm_fit(x, FitConfig(rank=1, seed=2))
    steps = np.diff(f.trace)
    assert steps.size == 0 or steps.max() <= MONOTONE_SLACK
    theta = ops.cp_reconstruct(
        f.mu, [f.weight], f.u[:, None], f.v[:, None], f.w[:, None]
    )
    assert f.trace[-1] == pytest.approx(neg_loglik(x, theta), abs=1e-8)


def test_rank_one_fit_from_logits_beyond_exp_overflow():
    # a start whose logits reach below -709.78, where exp(-theta) overflows
    # inside the scoring kernel's sigmoid; the overflow is harmless there
    # (sigmoid is 0) and must not warn or spoil the loss
    x, _ = planted_rank_one()
    cfg = FitConfig(rank=1, seed=3)
    u, v, w, _, mu = power_start(x, cfg, spectral=False)
    d = 1500.0 / -ops.cp_reconstruct(0.0, [1.0], u[:, None], v[:, None], w[:, None]).min()
    start = ops.cp_reconstruct(mu, [d], u[:, None], v[:, None], w[:, None])
    assert start.min() < -709.78
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        f = rank_one_mm_fit(x, cfg, init=(u, v, w, d), mu0=mu)
    want = np.logaddexp(0.0, start).sum() - np.vdot(x.values, start)
    assert f.trace[0] == pytest.approx(want, rel=1e-12)
    assert np.all(np.isfinite(f.trace))
    steps = np.diff(f.trace)
    assert steps.size and steps.max() <= MONOTONE_SLACK


# -------------------------------------------------------------- init makers


def test_spectral_init_recovers_sign_tensor_direction():
    rng = np.random.default_rng(10)
    u = np.sign(rng.standard_normal(20))
    v = np.sign(rng.standard_normal(8))
    w = np.sign(rng.standard_normal(6))
    vals = (np.einsum("i,j,k->ijk", u, v, w) > 0).astype(float)
    x = BinaryTensor.dense(vals)
    ui, vi, wi, d, mu = power_start(x, FitConfig(rank=1, seed=0), spectral=True)
    assert abs(ui @ (u / np.linalg.norm(u))) == pytest.approx(1.0, abs=1e-8)
    assert abs(vi @ (v / np.linalg.norm(v))) == pytest.approx(1.0, abs=1e-8)
    assert d > 0


def test_init_shapes_and_determinism():
    x, _ = planted_rank_one()
    cfg = FitConfig(rank=1, seed=4)
    a = power_start(x, cfg, spectral=False)
    b = power_start(x, cfg, spectral=False)
    for va, vb in zip(a, b):
        np.testing.assert_array_equal(va, vb)
    for u, v, w, d, mu in (a, power_start(x, cfg, spectral=True)):
        assert u.shape == (x.dims[0],) and v.shape == (x.dims[1],) and w.shape == (x.dims[2],)
        assert d > 0 and np.isfinite(mu)
    with pytest.raises(ValueError, match="unknown init"):
        mm_fit(x, FitConfig(rank=1, init="other"))


def test_l0_inits_are_feasible():
    x, _ = planted_rank_one()
    s = (5, 2, 2)
    cfg = FitConfig(rank=1, penalty="l0", s=s, seed=1)
    for spectral in (True, False):
        u, v, w, d, mu = power_start(x, cfg, spectral)
        assert int(np.sum(u != 0)) <= s[0]
        assert int(np.sum(v != 0)) <= s[1]


def test_malformed_init_is_refused_before_any_work():
    x, _ = planted_rank_one()
    cfg = FitConfig(rank=1)
    with pytest.raises(ValueError, match=r"init needs \(u, v, w\) or \(u, v, w, d\), got 2"):
        rank_one_mm_fit(x, cfg, init=(np.ones(30), np.ones(8)))
    for mode in range(3):
        init = [np.ones(p) for p in x.dims]
        init[mode] = np.ones(x.dims[mode] + 1)
        with pytest.raises(ValueError, match=f"^init vector for mode {mode + 1} has shape"):
            rank_one_mm_fit(x, cfg, init=tuple(init))


@pytest.mark.parametrize("penalty", ["none", "l1", "l0"])
@pytest.mark.parametrize("bad", [0.0, np.nan])
def test_zero_or_non_finite_start_vector_raises(penalty, bad):
    x, _ = planted_rank_one()
    kw = {"l1": {"c": c_from_ratio(x.dims, 0.5)}, "l0": {"s": s_from_ratio(x.dims, 0.5)}}
    cfg = FitConfig(rank=1, penalty=penalty, seed=0, **kw.get(penalty, {}))
    for mode in range(3):
        init = [np.ones(p) for p in x.dims]
        init[mode] = np.full(x.dims[mode], bad)
        with pytest.raises(DegenerateDirectionError):
            rank_one_mm_fit(x, cfg, init=tuple(init))


# ------------------------------------------------------------- full fits


def test_multi_start_single_start_matches_rank_one_plus_offset():
    x, _ = planted_rank_one()
    cfg = FitConfig(rank=1, n_starts=1, seed=6)
    report = fit(x, cfg, "tp")
    # the pipeline re-estimates from the winning start; mirror it manually
    first = mm_fit(x, cfg, seed=(6, 1, 0))
    re = rank_one_mm_fit(
        x, cfg, init=(first.u, first.v, first.w, first.weight), mu0=first.mu
    )
    theta_c = ops.cp_reconstruct(
        0.0, [re.weight], re.u[:, None], re.v[:, None], re.w[:, None]
    )
    mu_hat = final_offset(x, theta_c)
    assert report.model.rank == 1
    assert report.model.mu == pytest.approx(mu_hat, abs=1e-10)
    assert report.model.d[0] == pytest.approx(re.weight, abs=1e-10)
    np.testing.assert_allclose(np.abs(report.model.U[:, 0] @ re.u), 1.0, atol=1e-10)


def test_multi_start_all_traces_monotone_and_deterministic():
    x, _ = planted_rank_one()
    cfg = FitConfig(rank=2, n_starts=6, seed=8)
    a = fit(x, cfg, "tp")
    b = fit(x, cfg, "tp")
    assert np.array_equal(a.loss_trace, b.loss_trace)
    assert a.model.mu == b.model.mu
    np.testing.assert_array_equal(a.model.d, b.model.d)
    for trace in [a.loss_trace, *a.start_traces, *a.component_traces]:
        steps = np.diff(np.asarray(trace))
        assert steps.size == 0 or steps.max() <= MONOTONE_SLACK
    assert a.n_starts_used >= 6
    assert a.clusters_found <= 2
    assert list(a.model.d) == sorted(a.model.d, reverse=True)


def test_fit_rank_path_matches_direct_fits():
    x, _ = planted_rank_one()
    cfg = FitConfig(rank=2, n_starts=6, seed=12)
    path = fit_rank_path(x, cfg, ranks=(1, 2))
    direct1 = fit(x, FitConfig(rank=1, n_starts=6, seed=12), "tp")
    direct2 = fit(x, FitConfig(rank=2, n_starts=6, seed=12), "tp")
    np.testing.assert_allclose(path[1].model.d, direct1.model.d, atol=1e-10)
    np.testing.assert_allclose(path[2].model.d, direct2.model.d, atol=1e-10)
    assert path[1].model.mu == pytest.approx(direct1.model.mu, abs=1e-10)


def test_symmetric_mode_ties_u_and_v():
    rng = np.random.default_rng(13)
    u = rng.standard_normal(12)
    u /= np.linalg.norm(u)
    w = rng.standard_normal(5)
    w /= np.linalg.norm(w)
    theta = 18.0 * np.einsum("i,j,k->ijk", u, u, w)
    x = bernoulli_tensor(theta, seed=14)
    cfg = FitConfig(rank=1, symmetric_uv=True, n_starts=4, seed=0)
    report = fit(x, cfg, "tp")
    np.testing.assert_array_equal(report.model.U, report.model.V)
    bad_dims = bernoulli_tensor(rng.standard_normal((4, 5, 3)), seed=15)
    with pytest.raises(ValueError):
        fit(bad_dims, FitConfig(rank=1, symmetric_uv=True), "tp")


def test_als_fit_runs_and_descends():
    x, _ = planted_rank_one()
    cfg = FitConfig(rank=2, seed=3)
    report = als_fit(x, cfg)
    steps = np.diff(report.loss_trace)
    assert steps.size == 0 or steps.max() <= MONOTONE_SLACK
    assert report.model.rank == 2
    assert list(report.model.d) == sorted(report.model.d, reverse=True)
    with pytest.raises(ValueError):
        als_fit(x, FitConfig(rank=1, penalty="l1", c=c_from_ratio(x.dims, 0.9)))
    with pytest.raises(ValueError):
        als_fit(x, FitConfig(rank=1, symmetric_uv=True))


def test_als_random_start_fits_and_descends():
    x, _ = planted_rank_one()
    report = als_fit(x, FitConfig(rank=2, init="random", seed=3))
    m = report.model
    assert m.rank == 2 and report.n_starts_used == 1
    for f in (m.U, m.V, m.W):
        np.testing.assert_allclose(np.linalg.norm(f, axis=0), 1.0, atol=1e-12)
    assert list(m.d) == sorted(m.d, reverse=True)
    assert np.diff(report.loss_trace).max() <= MONOTONE_SLACK
    # the start is the random one, not the spectral one
    assert report.loss_trace[0] != als_fit(x, FitConfig(rank=2, seed=3)).loss_trace[0]


def test_als_drops_zero_weight_components(monkeypatch):
    # a run that ends with a zero weight: that component is dropped, the
    # rest are sorted by weight, and the report counts the clusters kept
    x, _ = planted_rank_one()
    real, ran = decomp._mm_passes, []

    def zero_middle(*args):
        mu, d, factors, stop = real(*args)
        ran.append((np.array([d[0], 0.0, d[2]]), factors, stop))
        return mu, *ran[-1]

    monkeypatch.setattr(decomp, "_mm_passes", zero_middle)
    report = als_fit(x, FitConfig(rank=3, seed=3))
    (d, (u_mat, v_mat, w_mat), stop), = ran
    kept = [j for j in np.argsort(-d, kind="stable") if d[j] > 0]
    assert report.reason == "degenerate zero-weight components dropped"
    assert report.converged is False
    assert report.clusters_found == report.model.rank == 2
    assert report.n_starts_used == 1 and report.loss_trace is stop.trace
    m = report.model
    for got, want in ((m.d, d), (m.U, u_mat.T), (m.V, v_mat.T), (m.W, w_mat.T)):
        assert np.array_equal(got.T, want[kept])


def test_als_reads_no_pool_settings():
    # ALS fits from one start: a pool smaller than the rank, or any cluster
    # threshold, is no error and changes nothing
    x, _ = planted_rank_one()
    ref = fit(x, FitConfig(rank=2, seed=3), "als")
    for cfg in (FitConfig(rank=2, n_starts=1, seed=3),
                FitConfig(rank=2, cluster_threshold=5.0, seed=3)):
        report = fit(x, cfg, "als")
        assert np.array_equal(report.loss_trace, ref.loss_trace)
        assert np.array_equal(report.model.U, ref.model.U)
    for cfg in (FitConfig(rank=2, n_starts=1), FitConfig(rank=1, cluster_threshold=5.0)):
        with pytest.raises(ValueError, match="n_starts|cluster_threshold"):
            fit(x, cfg, "tp")


def test_exhausted_pool_reports_the_clusters_it_found():
    # one planted component and a threshold of 1 prune each pool down to a
    # few clusters; the top-up round of 4 fresh starts does not reach 4
    x, _ = gen_dataset(SimConfig((30, 10, 8), 1, (5.0,), seed=2), baseline_weight=60.0)
    report = fit(x, FitConfig(rank=4, n_starts=4, cluster_threshold=1.0, seed=2), "tp")
    assert report.reason == "component pool exhausted: found 3 of 4 clusters"
    assert report.clusters_found == 3 and report.model.rank == 3
    assert report.n_starts_used == 8 and len(report.start_traces) == 8
    assert len(report.component_traces) == 3
    assert report.converged is False


# two passes stop every run at the cap; a loose loss tolerance stops them first
STOPS = {"cap": {"max_outer_iters": 2}, "tolerance": {"outer_abs_tol": 1.0}}


@pytest.mark.parametrize("stop", STOPS)
@pytest.mark.parametrize("method,ratio", [("als", None), ("tp", None), ("tsp", 0.7), ("ttp", 0.5)])
def test_reports_and_runs_derive_their_facts_from_one_record(method, ratio, stop, monkeypatch):
    # every rank-one run, pool starts included, and the report built from
    # them: each derived fact agrees with the trace and reason it comes from
    x, _ = planted_rank_one()
    runs, real = [], decomp.rank_one_mm_fit

    def recorded(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(decomp, "rank_one_mm_fit", recorded)
    base = FitConfig(rank=2, n_starts=6, seed=5, **STOPS[stop])
    report = fit(x, method_config(base, method, x.dims, ratio), method)
    for f in runs:
        assert f.n_outer == len(f.trace) - 1 >= 1
        assert f.converged == (f.reason != decomp.MAX_PASSES_REASON)
    assert np.array_equal(report.loss_trace, report.component_traces[0])
    assert report.clusters_found == report.model.rank
    assert report.n_starts_used == len(report.start_traces)
    if method == "als":
        # one MM run, listed as the one start and the one component trace
        assert runs == [] and report.n_starts_used == 1
        assert report.start_traces[0] is report.component_traces[0]
        assert report.converged == (report.reason != decomp.MAX_PASSES_REASON)
        capped = [report.reason == decomp.MAX_PASSES_REASON]
    else:
        assert len(runs) == report.n_starts_used + report.clusters_found
        traces = {id(f.trace) for f in runs}
        assert {id(t) for t in report.start_traces + report.component_traces} <= traces
        assert report.converged == (report.reason == "ok")
        capped = [not f.converged for f in runs]
    assert set(capped) == {stop == "cap"}


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_als_spectral_start_matches_svd_subspace(mode):
    # mode 1 of a 60x4x3 tensor is a tall unfolding (60x12), modes 2 and 3
    # are wide; both sides must give the leading left singular subspace
    rng = np.random.default_rng(21)
    m = ops.matricize(rng.standard_normal((60, 4, 3)), mode)
    r = 3
    cols = _leading_left_singular(m, r, np.random.default_rng(0))
    ref = np.linalg.svd(m, full_matrices=False)[0][:, :r]
    assert cols.shape == (m.shape[0], r)
    np.testing.assert_allclose(cols.T @ cols, np.eye(r), atol=1e-10)
    np.testing.assert_allclose(cols @ cols.T, ref @ ref.T, atol=1e-10)
    np.testing.assert_allclose(np.abs(np.sum(cols * ref, axis=0)), 1.0, atol=1e-10)


@pytest.mark.parametrize("shape", [(300, 400), (400, 300)])
@pytest.mark.parametrize("true_rank", [3, 300])
def test_als_spectral_start_on_a_large_gram_matches_svd_subspace(shape, true_rank):
    # a 300 x 300 Gram is larger than the Krylov space (21 blocks of r + 4
    # columns), so this runs the projected route; at true rank 3 the space
    # runs out of directions after its first block
    rng = np.random.default_rng(5)
    p, q = shape
    left = np.linalg.qr(rng.standard_normal((p, true_rank)))[0]
    right = np.linalg.qr(rng.standard_normal((q, true_rank)))[0]
    m = (left * np.r_[100.0, 80.0, np.linspace(60.0, 1.0, true_rank - 2)]) @ right.T
    r = 2
    cols = _leading_left_singular(m, r, np.random.default_rng(0))
    ref = left[:, :r]
    np.testing.assert_allclose(cols.T @ cols, np.eye(r), atol=1e-10)
    np.testing.assert_allclose(np.abs(np.sum(cols * ref, axis=0)), 1.0, atol=1e-10)


@pytest.mark.parametrize("dims", [(150, 20, 10), (60, 4, 3), (2, 30, 3)],
                         ids=["mode1-krylov", "mode1-tall", "mode2-tall"])
def test_als_start_matches_the_unfoldings_it_never_copies(dims, monkeypatch):
    # blocks of 3 mode-1 rows at (150, 20, 10), so mode 2's Gram sums 50 of them
    monkeypatch.setattr(decomp, "BLOCK_CELLS", 600)
    rng = np.random.default_rng(7)
    if dims[0] > 21 * 6:
        # mode 1 takes the Krylov route (21 blocks of r + 4 = 6 columns); a
        # rank-one sign pattern makes the centered sign tensor rank two, so
        # the leading two-dimensional subspaces are exact
        signs = [np.sign(rng.standard_normal(p)) for p in dims]
        x = BinaryTensor.dense(np.einsum("i,j,k->ijk", *signs) > 0)
    else:  # a direct eigh of a small Gram matrix
        x = BinaryTensor.dense(rng.random(dims) < 0.5)
    q = _base_tensor(x)[0]
    mu, d, u_mat, v_mat, w_mat = _init_als(x, FitConfig(rank=2), np.random.default_rng(0), True)
    for mode, cols in ((1, u_mat), (2, v_mat)):
        ref = np.linalg.svd(ops.matricize(q, mode), full_matrices=False)[0][:, :2]
        np.testing.assert_allclose(cols @ cols.T, ref @ ref.T, atol=1e-10)
    cmat = ops.matricize(q, 3) @ np.linalg.pinv(ops.khatri_rao(v_mat, u_mat).T, rcond=1e-10)
    np.testing.assert_allclose(w_mat * d, cmat, atol=1e-10)


@pytest.mark.parametrize("shape", [(40, 6), (6, 40)])
def test_als_spectral_start_falls_back_to_random_columns(shape):
    cols = _leading_left_singular(np.zeros(shape), 2, np.random.default_rng(0))
    assert cols.shape == (shape[0], 2)
    np.testing.assert_allclose(np.linalg.norm(cols, axis=0), 1.0)


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("value", [0, 1])
@pytest.mark.parametrize("method", ["als", "tp", "tsp", "ttp"])
def test_constant_data_is_refused_before_any_fit(method, value, masked):
    dims = (6, 5, 4)
    mask = np.ones(dims, dtype=bool)
    if masked:
        mask[np.random.default_rng(0).random(dims) < 0.3] = False
    x = BinaryTensor(np.full(dims, float(value)), mask)
    cfg = method_config(FitConfig(rank=1), method, dims, None if method in ("als", "tp") else 0.5)
    with pytest.raises(ValueError, match=f"^every observed cell is {value};"):
        fit(x, cfg, method)


def test_power_fit_with_both_classes_keeps_a_positive_weight():
    # the weight is the last mode-3 contraction against its own projection,
    # so it is positive for any penalty or start, down to unit l1 budgets
    # and single-entry l0 supports
    rng = np.random.default_rng(8)
    x = BinaryTensor.dense((rng.random((7, 5, 4)) < 0.3).astype(float))
    for penalty, extra in (
        ("none", {}),
        ("l1", {"c": (1.2, 1.2, 1.2)}),
        ("l1", {"c": (1.0, 1.0, 1.0)}),
        ("l0", {"s": (2, 2, 2)}),
        ("l0", {"s": (1, 1, 1)}),
    ):
        cfg = FitConfig(rank=1, penalty=penalty, max_outer_iters=5, **extra)
        for seed in range(5):
            start = [rng.standard_normal(p) for p in x.dims]
            assert rank_one_mm_fit(x, cfg, init=start).weight > 0.0


TINY = 1e-300
STOP_REASONS = {
    "outer_abs_tol": "loss change below absolute tolerance",
    "outer_rel_tol": "loss change below relative tolerance",
    "factor_tol": "factor change below tolerance",
}


def _stop_run(solver, x, **tols):
    if solver == "rank_one":
        f = mm_fit(x, FitConfig(rank=1, seed=1, **tols))
        return f.converged, f.reason, len(f.trace) - 1
    report = als_fit(x, FitConfig(rank=2, seed=1, **tols))
    return report.converged, report.reason, len(report.loss_trace) - 1


@pytest.mark.parametrize("solver", ["rank_one", "als"])
def test_outer_stop_rule_reasons(solver):
    x, _ = planted_rank_one()
    tight = dict.fromkeys(STOP_REASONS, TINY)
    for loose, reason in STOP_REASONS.items():
        converged, got, passes = _stop_run(solver, x, **{**tight, loose: 1e300})
        assert (converged, got, passes) == (True, reason, 1)
    converged, got, passes = _stop_run(solver, x, max_outer_iters=1, **tight)
    assert (converged, got, passes) == (False, "maximum outer iterations reached", 1)
    converged, got, passes = _stop_run(solver, x, max_outer_iters=3, **tight)
    assert (converged, got, passes) == (False, "maximum outer iterations reached", 3)


@pytest.mark.parametrize("solver", ["rank_one", "als"])
def test_inner_stop_rule_counts_sweeps(solver, monkeypatch):
    # a rank-one sweep makes one power_update call; an ALS sweep makes three
    # pinv solves, and the ALS start one more
    x, _ = planted_rank_one()
    target = (decomp, "power_update") if solver == "rank_one" else (np.linalg, "pinv")
    real = getattr(*target)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(*target, counted)
    for inner_tol, sweeps in ((TINY, 4), (1e300, 1)):
        calls.clear()
        _stop_run(solver, x, max_outer_iters=1, max_inner_iters=4, inner_tol=inner_tol)
        assert len(calls) == (sweeps if solver == "rank_one" else 1 + 3 * sweeps)


def test_fit_dispatch_and_config_validation():
    x, _ = planted_rank_one(dims=(12, 6, 5))
    r = fit(x, FitConfig(rank=1, seed=0, n_starts=2), "tp")
    assert r.method == "tp"
    r = fit(x, FitConfig(rank=1, penalty="l0", s=(3, 2, 2), seed=0, n_starts=2), "ttp")
    assert r.method == "ttp"
    with pytest.raises(ValueError):
        fit(x, FitConfig(rank=1), "nope")
    with pytest.raises(ValueError):
        fit(x, FitConfig(rank=1, penalty="l1", c=(2.0, 1.5, 1.5)), "tp")
    with pytest.raises(ValueError):
        fit(x, FitConfig(rank=1, penalty="l1"), "tsp")  # missing budgets
    with pytest.raises(ValueError):
        fit(x, FitConfig(rank=1, penalty="l1", c=(0.5, 1.5, 1.5)), "tsp")  # c1 < 1
    with pytest.raises(ValueError):
        fit(x, FitConfig(rank=1, penalty="l0", s=(99, 2, 2)), "ttp")  # s1 > p1
    with pytest.raises(ValueError):
        fit(x, FitConfig(rank=3, n_starts=2), "tp")  # fewer starts than rank


def test_ratio_helpers():
    dims = (16, 9, 4)
    np.testing.assert_allclose(c_from_ratio(dims, 0.5), (2.0, 1.5, 1.0), atol=1e-12)
    assert s_from_ratio(dims, 0.5) == (8, 4, 2)
    assert s_from_ratio(dims, 1.0) == dims
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            s_from_ratio(dims, bad)
