"""Dense tensor kernels: matricization, Khatri-Rao, contractions."""

import itertools

import numpy as np
import pytest

from logitcp import ops


def small_tensor():
    # entries 1..8 laid out with the first index fastest
    return np.arange(1.0, 9.0).reshape((2, 2, 2), order="F")


def test_matricize_mode1_hand_example():
    t = small_tensor()
    expected = np.array([[1.0, 3.0, 5.0, 7.0], [2.0, 4.0, 6.0, 8.0]])
    np.testing.assert_array_equal(ops.matricize(t, 1), expected)


def test_matricize_modes_2_and_3_hand_examples():
    t = small_tensor()
    m2 = np.array([[1.0, 2.0, 5.0, 6.0], [3.0, 4.0, 7.0, 8.0]])
    m3 = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
    np.testing.assert_array_equal(ops.matricize(t, 2), m2)
    np.testing.assert_array_equal(ops.matricize(t, 3), m3)


def test_matricize_fold_round_trip_exact():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((3, 4, 5))
    for mode in (1, 2, 3):
        m = ops.matricize(t, mode)
        np.testing.assert_array_equal(ops.fold(m, mode, t.shape), t)


def test_matricize_rejects_bad_mode():
    t = small_tensor()
    with pytest.raises(ValueError):
        ops.matricize(t, 0)
    with pytest.raises(ValueError):
        ops.matricize(t, 4)


def test_fold_rejects_wrong_size():
    with pytest.raises(ValueError):
        ops.fold(np.zeros((2, 5)), 1, (2, 2, 2))


def test_rank_one_contract_single_vector_matches_triple_loop():
    rng = np.random.default_rng(1)
    t = rng.standard_normal((3, 4, 5))
    vecs = {1: rng.standard_normal(3), 2: rng.standard_normal(4), 3: rng.standard_normal(5)}
    for mode, v in vecs.items():
        got = ops.rank_one_contract(t, **{"uvw"[mode - 1]: v})
        shape = [3, 4, 5]
        del shape[mode - 1]
        want = np.zeros(shape)
        for i in range(3):
            for j in range(4):
                for k in range(5):
                    idx = [i, j, k]
                    w = v[idx.pop(mode - 1)]
                    want[tuple(idx)] += w * t[i, j, k]
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_rank_one_contract_matches_triple_loop():
    rng = np.random.default_rng(2)
    t = rng.standard_normal((3, 4, 5))
    u = rng.standard_normal(3)
    v = rng.standard_normal(4)
    w = rng.standard_normal(5)
    # full contraction is the scalar <t, u o v o w>
    want = 0.0
    for i in range(3):
        for j in range(4):
            for k in range(5):
                want += t[i, j, k] * u[i] * v[j] * w[k]
    assert ops.rank_one_contract(t, u, v, w) == pytest.approx(want, abs=1e-10)
    # leaving one mode open returns that mode's vector
    got_u = ops.rank_one_contract(t, v=v, w=w)
    want_u = np.array(
        [sum(t[i, j, k] * v[j] * w[k] for j in range(4) for k in range(5)) for i in range(3)]
    )
    np.testing.assert_allclose(got_u, want_u, atol=1e-10)


def _contract_oracle(t, vecs):
    # sum over the modes that have a vector, by explicit loops
    p = t.shape
    open_modes = [m for m in range(3) if vecs[m] is None]
    out = np.zeros([p[m] for m in open_modes])
    for idx in itertools.product(*(range(n) for n in p)):
        weight = 1.0
        for m in range(3):
            if vecs[m] is not None:
                weight *= vecs[m][idx[m]]
        out[tuple(idx[m] for m in open_modes)] += weight * t[idx]
    return out


def test_rank_one_contract_all_subsets_and_layouts():
    rng = np.random.default_rng(9)
    base = rng.standard_normal((4, 3, 5))
    layouts = {
        "C": np.ascontiguousarray(base),
        "F": np.asfortranarray(base),
        # views that are neither C- nor F-contiguous
        "transposed": np.ascontiguousarray(base.transpose(1, 0, 2)).transpose(1, 0, 2),
        "strided": np.repeat(base, 2, axis=1)[:, ::2, :],
    }
    vecs = [rng.standard_normal(n) for n in base.shape]
    for (name, t), given in itertools.product(layouts.items(), itertools.product((0, 1), repeat=3)):
        args = [v if g else None for v, g in zip(vecs, given)]
        got = ops.rank_one_contract(t, *args)
        want = _contract_oracle(base, args)
        if all(given):
            assert isinstance(got, float)
            assert got == pytest.approx(float(want), abs=1e-12)
        else:
            assert got.shape == want.shape, (name, given)
            np.testing.assert_allclose(got, want, atol=1e-12, err_msg=f"{name} {given}")


def test_rank_one_contract_rejects_wrong_vector_length():
    t = np.zeros((2, 3, 4))
    with pytest.raises(ValueError):
        ops.rank_one_contract(t, v=np.ones(2))


def test_khatri_rao_hand_example():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    want = np.array([[5.0, 12.0], [7.0, 16.0], [15.0, 24.0], [21.0, 32.0]])
    np.testing.assert_array_equal(ops.khatri_rao(a, b), want)


def test_khatri_rao_rejects_column_mismatch():
    with pytest.raises(ValueError):
        ops.khatri_rao(np.zeros((2, 2)), np.zeros((2, 3)))


def test_khatri_rao_gram_identity():
    # (A kr B)^T (A kr B) == (A^T A) * (B^T B)  over 100 random draws
    rng = np.random.default_rng(3)
    for _ in range(100):
        m, n, r = rng.integers(2, 7, size=3)
        a = rng.standard_normal((m, r))
        b = rng.standard_normal((n, r))
        kr = ops.khatri_rao(a, b)
        np.testing.assert_allclose(kr.T @ kr, (a.T @ a) * (b.T @ b), atol=1e-8)


def test_cp_reconstruct_matches_loop():
    rng = np.random.default_rng(4)
    d = np.array([2.0, 0.5])
    U = rng.standard_normal((3, 2))
    V = rng.standard_normal((4, 2))
    W = rng.standard_normal((5, 2))
    got = ops.cp_reconstruct(0.7, d, U, V, W)
    want = np.full((3, 4, 5), 0.7)
    for r in range(2):
        for i in range(3):
            for j in range(4):
                for k in range(5):
                    want[i, j, k] += d[r] * U[i, r] * V[j, r] * W[k, r]
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert got.flags.c_contiguous


def test_cp_reconstruct_rank_zero_is_constant():
    got = ops.cp_reconstruct(1.5, [], np.zeros((3, 0)), np.zeros((4, 0)), np.zeros((5, 0)))
    np.testing.assert_array_equal(got, np.full((3, 4, 5), 1.5))
    assert got.flags.c_contiguous


def test_unfolding_pairs_with_khatri_rao():
    # matricize(sum_r d_r u o v o w, 1) == (U d) kr-weighted: U diag(d) (W kr V)^T
    rng = np.random.default_rng(6)
    d = np.array([1.5, 0.75])
    U = rng.standard_normal((3, 2))
    V = rng.standard_normal((4, 2))
    W = rng.standard_normal((5, 2))
    theta = ops.cp_reconstruct(0.0, d, U, V, W)
    np.testing.assert_allclose(
        ops.matricize(theta, 1), (U * d) @ ops.khatri_rao(W, V).T, atol=1e-10
    )
    np.testing.assert_allclose(
        ops.matricize(theta, 2), (V * d) @ ops.khatri_rao(W, U).T, atol=1e-10
    )
    np.testing.assert_allclose(
        ops.matricize(theta, 3), (W * d) @ ops.khatri_rao(V, U).T, atol=1e-10
    )
