"""Synthetic data generation: sparse factors, SNR calibration, holdout."""

import math

import numpy as np
import pytest

from logitcp import simulate
from logitcp.likelihood import sigmoid
from logitcp.simulate import (
    SCENARIOS,
    SimConfig,
    calibrate_baseline,
    drop_uniform,
    gen_dataset,
    gen_sparse_factors,
    scenario,
)


def test_simconfig_validation():
    SimConfig((10, 8, 6), 2, (5.0, 3.0))  # valid
    with pytest.raises(ValueError, match="nonincreasing"):
        SimConfig((10, 8, 6), 2, (3.0, 5.0))
    with pytest.raises(ValueError, match="one snr per component"):
        SimConfig((10, 8, 6), 2, (3.0,))
    with pytest.raises(ValueError, match="positive"):
        SimConfig((10, 8, 6), 1, (0.0,))
    with pytest.raises(ValueError, match="sparsity"):
        SimConfig((10, 8, 6), 1, (3.0,), sparsity=0.0)
    with pytest.raises(ValueError, match="sparsity"):
        SimConfig((10, 8, 6), 1, (3.0,), sparsity=1.5)
    with pytest.raises(ValueError, match="dims"):
        SimConfig((10, 8), 1, (3.0,))
    with pytest.raises(ValueError, match="rank"):
        SimConfig((10, 8, 6), 0, ())


def test_scenario_presets_are_frozen():
    assert SCENARIOS["I"] == ((1000, 10, 10), 1, (3.0,))
    assert SCENARIOS["II"] == ((1000, 10, 10), 2, (5.0, 3.0))
    assert SCENARIOS["III"] == ((1000, 100, 10), 1, (3.0,))
    assert SCENARIOS["IV"] == ((1000, 100, 10), 2, (5.0, 3.0))
    cfg = scenario("II")
    assert (cfg.dims, cfg.rank, cfg.snr) == ((1000, 10, 10), 2, (5.0, 3.0))
    assert cfg.sparsity == 0.2


def test_scenario_scale_shrinks_first_mode_only():
    cfg = scenario("I", scale=0.2)
    assert cfg.dims == (200, 10, 10)
    cfg = scenario("iii", scale=0.2, snr=(4.0,), seed=9)
    assert cfg.dims == (200, 100, 10)
    assert cfg.snr == (4.0,)
    assert cfg.seed == 9
    with pytest.raises(ValueError, match="unknown scenario"):
        scenario("V")


def test_sparse_factors_cardinality_and_norms():
    cfg = SimConfig((25, 11, 7), 2, (5.0, 3.0), sparsity=0.2, seed=0)
    u_mat, v_mat, w_mat = gen_sparse_factors(cfg, np.random.default_rng(0))
    for mat, p in zip((u_mat, v_mat, w_mat), cfg.dims):
        assert mat.shape == (p, 2)
        for r in range(2):
            assert np.count_nonzero(mat[:, r]) == math.ceil(0.2 * p)
            assert np.linalg.norm(mat[:, r]) == pytest.approx(1.0, abs=1e-12)
    again = gen_sparse_factors(cfg, np.random.default_rng(0))
    for a, b in zip((u_mat, v_mat, w_mat), again):
        assert np.array_equal(a, b)


def test_gen_dataset_weights_probs_and_determinism():
    cfg = SimConfig((20, 12, 8), 2, (4.0, 2.0), seed=5)
    x, truth = gen_dataset(cfg, baseline_weight=2.5)
    np.testing.assert_allclose(truth.model.d, [10.0, 5.0], atol=1e-12)
    assert truth.baseline_weight == 2.5
    np.testing.assert_allclose(truth.probs, sigmoid(truth.model.theta()), atol=1e-12)
    assert x.fully_observed and x.dims == (20, 12, 8)
    assert set(np.unique(x.values)) <= {0.0, 1.0}
    x2, truth2 = gen_dataset(cfg, baseline_weight=2.5)
    assert np.array_equal(x.values, x2.values)
    assert np.array_equal(truth.model.U, truth2.model.U)
    x3, _ = gen_dataset(SimConfig((20, 12, 8), 2, (4.0, 2.0), seed=6), baseline_weight=2.5)
    assert not np.array_equal(x.values, x3.values)
    with pytest.raises(ValueError, match="baseline"):
        gen_dataset(cfg, baseline_weight=0.0)


def test_drop_uniform_partitions_observed_cells():
    cfg = SimConfig((12, 9, 5), 1, (3.0,), seed=1)
    x, _ = gen_dataset(cfg, baseline_weight=3.0)
    kept, heldout = drop_uniform(x, 0.1, seed=4)
    n = x.values.size
    k = int(round(0.1 * n))
    assert heldout.n_observed == k
    assert kept.n_observed == n - k
    assert not np.any(kept.mask & heldout.mask)
    assert np.array_equal(kept.mask | heldout.mask, x.mask)
    # true labels travel with their cells
    assert np.array_equal(x.values[heldout.mask], heldout.values[heldout.mask])
    assert np.array_equal(x.values[kept.mask], kept.values[kept.mask])
    kept2, heldout2 = drop_uniform(x, 0.1, seed=4)
    assert np.array_equal(kept.mask, kept2.mask)
    assert np.array_equal(heldout.values, heldout2.values)


def test_drop_uniform_rejects_degenerate_fractions():
    cfg = SimConfig((4, 3, 2), 1, (3.0,), seed=2)
    x, _ = gen_dataset(cfg, baseline_weight=3.0)
    with pytest.raises(ValueError):
        drop_uniform(x, 0.0)
    with pytest.raises(ValueError):
        drop_uniform(x, 1.0)
    with pytest.raises(ValueError, match="dropping"):
        drop_uniform(x, 0.001)  # rounds to zero cells on 24 entries


def test_calibrate_baseline_positive_stable_and_memoized(monkeypatch):
    d1 = calibrate_baseline((7, 6, 5), 1, seed=0, reps=4)
    d2 = calibrate_baseline((7, 6, 5), 1, seed=1, reps=4)
    assert d1 > 0 and d2 > 0
    # pure-noise recoveries at one shape agree loosely across seeds
    assert abs(d1 - d2) / d1 < 0.5
    # memoized: a repeat call never refits
    def boom(*args, **kwargs):
        raise AssertionError("refit despite cache")

    monkeypatch.setattr(simulate.decomp, "multi_start_fit", boom)
    assert calibrate_baseline((7, 6, 5), 1, seed=0, reps=4) == d1


def test_gen_dataset_uses_calibrated_baseline():
    cfg = SimConfig((7, 6, 5), 1, (3.0,), seed=3, baseline_reps=4)
    x, truth = gen_dataset(cfg)
    db = calibrate_baseline((7, 6, 5), 1, seed=0, reps=4)  # memoized repeat
    assert truth.baseline_weight == db
    assert truth.model.d[0] == pytest.approx(3.0 * db, abs=1e-12)
