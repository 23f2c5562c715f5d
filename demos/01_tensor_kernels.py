"""
Tensor kernels: matricization, Khatri-Rao, rank-one contractions
================================================================

The building blocks every solver in logitcp rests on, shown on a tensor
small enough to print.
"""

import numpy as np

from logitcp import ops

# A 2 x 2 x 2 tensor whose entries 1..8 follow the storage layout: the
# first index varies fastest, then the second, then the third.
t = np.arange(1.0, 9.0).reshape((2, 2, 2), order="F")
print("tensor, frontal slices:")
print(t[:, :, 0])
print(t[:, :, 1])

# Matricization lays mode-n fibers out as columns. Mode 1 keeps rows,
# and folding inverts it exactly.
for mode in (1, 2, 3):
    m = ops.matricize(t, mode)
    print(f"\nmode-{mode} unfolding, shape {m.shape}:")
    print(m)
    assert np.array_equal(ops.fold(m, mode, t.shape), t)

# The Khatri-Rao product is the columnwise Kronecker product. Column r of
# khatri_rao(a, b) is kron(a[:, r], b[:, r]), with b's index fastest.
a = np.array([[1.0, 2.0], [3.0, 4.0]])
b = np.array([[5.0, 6.0], [7.0, 8.0]])
kr = ops.khatri_rao(a, b)
print("\nkhatri_rao(a, b):")
print(kr)

# Its Gram matrix never needs the tall product: it is the Hadamard product
# of the small Grams. This identity is what makes the ALS updates cheap.
print("\nGram identity gap:",
      np.abs(kr.T @ kr - (a.T @ a) * (b.T @ b)).max())

# A CP model stacks rank-one layers d_r * u_r o v_r o w_r on an offset.
rng = np.random.default_rng(0)
u = rng.standard_normal((4, 2))
v = rng.standard_normal((3, 2))
w = rng.standard_normal((2, 2))
u, v, w = (m / np.linalg.norm(m, axis=0) for m in (u, v, w))
theta = ops.cp_reconstruct(0.5, [3.0, 1.0], u, v, w)
print("\nreconstructed logits, shape:", theta.shape)

# rank_one_contract is the adjoint: it projects a tensor onto a rank-one
# direction, and dropping one vector gives the vector-valued contraction
# the power updates maximize. The projection returns the first weight (3.0)
# plus cross-talk from the second, non-orthogonal layer.
d = ops.rank_one_contract(theta - 0.5, u[:, 0], v[:, 0], w[:, 0])
print("projection onto the first layer's direction: %.6f" % d)
print("mode-1 contraction, free index kept:",
      np.round(ops.rank_one_contract(theta - 0.5, None, v[:, 0], w[:, 0]), 4))
