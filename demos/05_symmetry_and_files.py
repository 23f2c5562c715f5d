"""
Symmetric factors and the model file format
===========================================

Some tensors are adjacency-like: the first two modes index the same
objects, so the model should use one factor matrix for both. The
symmetric_uv flag ties U and V inside every power update (it is a
constraint on the solver, not a post-hoc averaging). The second half of
the demo saves the fit to the plain-text model format and reloads it.
"""

import tempfile
from pathlib import Path

import numpy as np

from logitcp import decomp, fileio
from logitcp.likelihood import BinaryTensor, sigmoid

# Plant a symmetric rank-one signal: the same 25-vector on modes 1 and 2,
# a 6-vector on mode 3. Single Bernoulli draws are NOT symmetric — only
# the underlying probabilities are — so the flag has real work to do.
rng = np.random.default_rng(23)
u = rng.standard_normal(25)
u /= np.linalg.norm(u)
w = np.abs(rng.standard_normal(6))
w /= np.linalg.norm(w)
theta = -0.3 + 40.0 * np.einsum("i,j,k->ijk", u, u, w)
x = BinaryTensor.dense(rng.random(theta.shape) < sigmoid(theta))

cfg = decomp.FitConfig(rank=1, symmetric_uv=True, seed=2,
                       max_outer_iters=200)
report = decomp.fit(x, cfg, method="tp")
model = report.model
print("converged:", report.converged)
print("U and V identical:", bool(np.array_equal(model.U, model.V)))
# Sign is only identified jointly (u, u) ~ (-u, -u); align before comparing.
fit_u = model.U[:, 0] * np.sign(model.U[:, 0] @ u)
print("max |fit u - true u|: %.4f" % np.abs(fit_u - u).max())
print("fit weight: %.2f (true 40.0)   fit offset: %.3f (true -0.3)"
      % (model.d[0], model.mu))

# An unconstrained fit on the same draw also finds the signal, but its U
# and V disagree with each other: each factor chases its own mode's noise,
# buying a slightly lower in-sample loss with twice the parameters and no
# exact symmetry.
free = decomp.fit(x, decomp.FitConfig(rank=1, seed=2, max_outer_iters=200),
                  method="tp")
fu = free.model.U[:, 0] * np.sign(free.model.U[:, 0] @ u)
fv = free.model.V[:, 0] * np.sign(free.model.V[:, 0] @ u)
print("unconstrained fit, max |U - V| after sign alignment: %.4f"
      % np.abs(fu - fv).max())

# The model file is line-oriented text: weights, factor blocks, optional
# metadata. Writes are atomic and byte-stable, so identical models produce
# identical files.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "symmetric.model"
    fileio.write_model(path, model, meta={"note": "demo fit"})
    print("\nfirst lines of the file:")
    for line in path.read_text().splitlines()[:4]:
        print("  |", line)
    loaded, meta = fileio.read_model(path)
    same = (
        loaded.mu == model.mu
        and np.array_equal(loaded.d, model.d)
        and np.array_equal(loaded.U, model.U)
        and np.array_equal(loaded.V, model.V)
        and np.array_equal(loaded.W, model.W)
    )
    print("round trip lossless:", bool(same), "  meta:", meta)
