"""Solvers: sparsity operators, power updates, MM loops, multi-start."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logitcp import ops
from logitcp.decomp import (
    DegenerateDirectionError,
    FitConfig,
    _base_tensor,
    _init_power,
    _leading_left_singular,
    als_fit,
    c_from_ratio,
    final_offset,
    fit,
    fit_rank_path,
    l1_project,
    multi_start_fit,
    offset_update,
    power_update,
    rank_one_mm_fit,
    s_from_ratio,
    soft_threshold,
    truncate_top,
)
from logitcp.likelihood import BinaryTensor, neg_loglik, sigmoid
from logitcp.simulate import SimConfig, gen_sparse_factors

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


def test_offset_update_is_mean_difference():
    rng = np.random.default_rng(3)
    theta_c = rng.standard_normal((3, 4, 2))
    assert offset_update(theta_c + 3.0, theta_c) == pytest.approx(3.0, abs=1e-12)
    assert offset_update(theta_c, theta_c) == pytest.approx(0.0, abs=1e-12)


def test_final_offset_symmetry_and_saturation():
    half = np.zeros((2, 2, 2))
    half[0] = 1.0
    x = BinaryTensor.dense(half)
    assert final_offset(x) == pytest.approx(0.0, abs=1e-6)
    ones = BinaryTensor.dense(np.ones((2, 2, 2)))
    assert final_offset(ones) == 40.0


def test_final_offset_matches_grid_oracle():
    rng = np.random.default_rng(4)
    vals = (rng.random((3, 3, 3)) < 0.3).astype(float)
    x = BinaryTensor.dense(vals)
    theta_c = rng.standard_normal((3, 3, 3))
    got = final_offset(x, theta_c)
    grid = np.arange(-6.0, 6.0, 1e-4)
    nlls = [neg_loglik(x, m + theta_c) for m in grid]
    oracle = grid[int(np.argmin(nlls))]
    assert got == pytest.approx(oracle, abs=1e-3)


# ----------------------------------------------------------- rank-one MM


def test_rank_one_traces_monotone_all_penalties_and_inits():
    x, (u, v, w) = planted_rank_one()
    c_or = tuple(float(np.abs(f).sum()) for f in (u, v, w))
    s_or = tuple(int(np.sum(f != 0)) for f in (u, v, w))
    for seed in range(4):
        for penalty, kw in (("none", {}), ("l1", {"c": c_or}), ("l0", {"s": s_or})):
            for init in ("spectral", "random"):
                cfg = FitConfig(rank=1, penalty=penalty, init=init, seed=seed, **kw)
                f = rank_one_mm_fit(x, cfg)
                steps = np.diff(f.trace)
                assert steps.size == 0 or steps.max() <= MONOTONE_SLACK
                assert f.weight >= 0.0
                for vec in (f.u, f.v, f.w):
                    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-8)


def test_rank_one_fit_is_deterministic():
    x, _ = planted_rank_one()
    cfg = FitConfig(rank=1, seed=11)
    a = rank_one_mm_fit(x, cfg)
    b = rank_one_mm_fit(x, cfg)
    assert np.array_equal(a.trace, b.trace)
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v) and np.array_equal(a.w, b.w)
    assert a.mu == b.mu and a.weight == b.weight


def test_rank_one_respects_l0_cardinalities():
    x, _ = planted_rank_one()
    s = (5, 2, 2)
    cfg = FitConfig(rank=1, penalty="l0", s=s, seed=3)
    f = rank_one_mm_fit(x, cfg)
    for vec, si in zip((f.u, f.v, f.w), s):
        assert int(np.sum(np.abs(vec) > 1e-10)) <= si


def test_rank_one_respects_l1_budgets():
    x, _ = planted_rank_one()
    c = (2.5, 1.4, 1.3)
    cfg = FitConfig(rank=1, penalty="l1", c=c, seed=3)
    f = rank_one_mm_fit(x, cfg)
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


def test_rank_one_on_masked_data():
    x_full, _ = planted_rank_one()
    rng = np.random.default_rng(9)
    mask = rng.random(x_full.dims) < 0.6
    mask.ravel()[0] = True
    vals = np.where(mask, x_full.values, 0.0)
    x = BinaryTensor(vals, mask)
    f = rank_one_mm_fit(x, FitConfig(rank=1, seed=2))
    steps = np.diff(f.trace)
    assert steps.size == 0 or steps.max() <= MONOTONE_SLACK
    theta = ops.cp_reconstruct(
        f.mu, [f.weight], f.u[:, None], f.v[:, None], f.w[:, None]
    )
    assert f.trace[-1] == pytest.approx(neg_loglik(x, theta), abs=1e-8)


# -------------------------------------------------------------- init makers


def power_start(x, cfg, spectral):
    """A rank-one start (u, v, w, d, mu) as the multi-start pools draw it."""
    return _init_power(_base_tensor(x), cfg, cfg.s, np.random.default_rng(cfg.seed), spectral)


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
    with pytest.raises(ValueError):
        rank_one_mm_fit(x, FitConfig(rank=1, init="other"))


def test_l0_inits_are_feasible():
    x, _ = planted_rank_one()
    s = (5, 2, 2)
    cfg = FitConfig(rank=1, penalty="l0", s=s, seed=1)
    for spectral in (True, False):
        u, v, w, d, mu = power_start(x, cfg, spectral)
        assert int(np.sum(u != 0)) <= s[0]
        assert int(np.sum(v != 0)) <= s[1]


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
    report = multi_start_fit(x, cfg)
    # the pipeline re-estimates from the winning start; mirror it manually
    rng = np.random.default_rng((6, 1, 0))
    first = rank_one_mm_fit(x, cfg, rng=rng)
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
    a = multi_start_fit(x, cfg)
    b = multi_start_fit(x, cfg)
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
    direct1 = multi_start_fit(x, FitConfig(rank=1, n_starts=6, seed=12))
    direct2 = multi_start_fit(x, FitConfig(rank=2, n_starts=6, seed=12))
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
    report = multi_start_fit(x, cfg)
    np.testing.assert_array_equal(report.model.U, report.model.V)
    bad_dims = bernoulli_tensor(rng.standard_normal((4, 5, 3)), seed=15)
    with pytest.raises(ValueError):
        multi_start_fit(bad_dims, FitConfig(rank=1, symmetric_uv=True))


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


@pytest.mark.parametrize("shape", [(40, 6), (6, 40)])
def test_als_spectral_start_falls_back_to_random_columns(shape):
    cols = _leading_left_singular(np.zeros(shape), 2, np.random.default_rng(0))
    assert cols.shape == (shape[0], 2)
    np.testing.assert_allclose(np.linalg.norm(cols, axis=0), 1.0)


TINY = 1e-300
STOP_REASONS = {
    "outer_abs_tol": "loss change below absolute tolerance",
    "outer_rel_tol": "loss change below relative tolerance",
    "factor_tol": "factor change below tolerance",
}


def _stop_run(solver, x, **tols):
    if solver == "rank_one":
        f = rank_one_mm_fit(x, FitConfig(rank=1, seed=1, **tols))
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


def test_fit_dispatch_and_config_validation():
    x, _ = planted_rank_one(dims=(12, 6, 5))
    r = fit(x, FitConfig(rank=1, seed=0, n_starts=2), "tp")
    assert r.method == "tp"
    inferred = fit(x, FitConfig(rank=1, penalty="l0", s=(3, 2, 2), seed=0, n_starts=2))
    assert inferred.method == "ttp"
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
