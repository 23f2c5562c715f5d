"""Sparse logistic CP decomposition of binary three-way tensors.

Binary tensors are modeled as independent Bernoulli draws whose logits form
a low-rank CP structure plus a global offset. Estimation runs a
minorize-maximize scheme that turns each update into a least-squares problem
on a working tensor, with optional l1 or l0 sparsity on the factor columns,
multi-start clustering for stability, and information-criterion or
cross-validation model selection on top.
"""

from . import decomp, fileio, likelihood, metrics, ops, selection, simulate

__version__ = "0.1.0"
