"""Dense 3-way tensor kernels.

Tensors are plain numpy arrays of shape (p1, p2, p3). Wherever a flat layout
matters (matricization, file records) the convention is mode-1 index fastest,
i.e. entry (i, j, k) sits at flat position i + p1*j + p1*p2*k, which is
numpy's Fortran order.

Mode-n matricization stacks the mode-n fibers as columns, remaining indices
ordered with the earlier mode varying fastest; fold() is its exact inverse.
Under this convention a rank-R tensor sum_r d_r u_r o v_r o w_r unfolds as

    T_(1) = U diag(d) khatri_rao(W, V)^T
    T_(2) = V diag(d) khatri_rao(W, U)^T
    T_(3) = W diag(d) khatri_rao(V, U)^T
"""

import numpy as np

__all__ = [
    "matricize",
    "fold",
    "rank_one_contract",
    "khatri_rao",
    "cp_reconstruct",
]


def _as_tensor3(t, name="tensor"):
    t = np.asarray(t, dtype=float)
    if t.ndim != 3:
        raise ValueError(f"{name} must be a 3-way array, got shape {t.shape}")
    return t


def matricize(t, mode):
    """Mode-n matricization of a 3-way tensor.

    Returns a (p_mode, prod of other dims) matrix whose columns are the
    mode-n fibers of t.
    """
    t = _as_tensor3(t)
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    return np.reshape(np.moveaxis(t, mode - 1, 0), (t.shape[mode - 1], -1), order="F")


def fold(m, mode, dims):
    """Inverse of matricize: rebuild the (p1, p2, p3) tensor from its mode-n
    matricization."""
    m = np.asarray(m, dtype=float)
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    p1, p2, p3 = dims
    rest = [d for i, d in enumerate(dims) if i != mode - 1]
    expect = (dims[mode - 1], rest[0] * rest[1])
    if m.shape != expect:
        raise ValueError(
            f"matricization has shape {m.shape}, expected {expect} for dims {tuple(dims)}"
        )
    t = np.reshape(m, (dims[mode - 1], *rest), order="F")
    return np.moveaxis(t, 0, mode - 1)


def _mode_vector(vec, t, mode):
    if vec is None:
        return None
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (t.shape[mode - 1],):
        raise ValueError(
            f"vector for mode {mode} has shape {vec.shape}, extent is {t.shape[mode - 1]}"
        )
    return vec


def rank_one_contract(t, u=None, v=None, w=None):
    """Contract a 3-way tensor with vectors on any subset of its modes.

    One vector leaves a matrix over the other two modes, two leave the fiber
    along the remaining mode, and all three give a scalar. Every case is a
    matrix product over a reshaped view of t, so t is read once.
    """
    t = _as_tensor3(t)
    u, v, w = (_mode_vector(vec, t, mode) for mode, vec in ((1, u), (2, v), (3, w)))
    p1, p2, p3 = t.shape
    if u is None:
        if v is None:
            return t if w is None else (t.reshape(p1 * p2, p3) @ w).reshape(p1, p2)
        if w is None:
            return np.matmul(v, t)
        return t.reshape(p1, p2 * p3) @ np.outer(v, w).ravel()
    m = (u @ t.reshape(p1, p2 * p3)).reshape(p2, p3)
    if v is None:
        return m if w is None else m @ w
    m = v @ m
    return m if w is None else float(m @ w)


def khatri_rao(a, b):
    """Columnwise Kronecker product: column r is kron(a_r, b_r), the second
    factor's index varying fastest."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(
            f"khatri_rao needs matrices with equal column counts, got {a.shape} and {b.shape}"
        )
    m, r = a.shape
    n = b.shape[0]
    return (a[:, None, :] * b[None, :, :]).reshape(m * n, r)


def cp_reconstruct(mu, d, U, V, W):
    """Dense logits mu + sum_r d_r u_r o v_r o w_r, C-ordered.

    Computed as the (p1, p2*p3) product (U diag(d)) khatri_rao(V, W)^T.
    Empty d (rank 0) gives the constant tensor mu.
    """
    d = np.asarray(d, dtype=float).reshape(-1)
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    W = np.asarray(W, dtype=float)
    r = d.shape[0]
    for name, f in (("U", U), ("V", V), ("W", W)):
        if f.ndim != 2 or f.shape[1] != r:
            raise ValueError(
                f"{name} has shape {f.shape}, expected ({name} rows, {r}) to match d"
            )
    dims = (U.shape[0], V.shape[0], W.shape[0])
    out = ((U * d) @ khatri_rao(V, W).T).reshape(dims)
    out += mu
    return out
