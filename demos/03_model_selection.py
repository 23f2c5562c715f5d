"""
Choosing the rank (and the sparsity budget)
===========================================

Simulates a rank-2 signal, then asks the selection tools to find that rank
three different ways: AIC and BIC sweeps, and held-out cross-validation.
The two-stage grid search then tunes rank and sparsity ratio together for
the cardinality-constrained solver, and the explained-deviance ladder
breaks the chosen model down component by component.
"""

from dataclasses import replace

from logitcp import decomp, selection, simulate

# Two well-separated components on a 60 x 15 x 12 tensor; 80% of the
# entries in each factor are nonzero, so rank detection is not starved for
# signal mass.
cfg = simulate.SimConfig(dims=(60, 15, 12), rank=2, snr=(8.0, 5.0),
                         sparsity=0.8, seed=11, baseline_reps=5)
x, truth = simulate.gen_dataset(cfg)
print("true rank: 2   weights:",
      tuple(round(float(d), 1) for d in truth.model.d))

# The grid machinery overrides the rank (and budgets) per cell; the base
# config only carries the shared knobs.
fit_cfg = decomp.FitConfig(rank=1, n_starts=6, max_outer_iters=200, seed=3)

# Information criteria: refit at each candidate rank and score. df counts
# the offset plus the nonzero factor entries, minus the norm constraints.
grid = selection.SelectionGrid(ranks=(1, 2, 3), criterion="aic")
for criterion in ("aic", "bic"):
    table = selection.ic_sweep(x, fit_cfg, replace(grid, criterion=criterion),
                               method="tp")
    best = table.best()
    print("\n%s sweep:" % criterion)
    for row in table.rows:
        print("  rank %d: score %10.2f  df %5.0f%s"
              % (row.rank, row.score, row.df,
                 "   <- chosen" if row is best else ""))

# Cross-validation: hold out a stratified fold of cells, fit on the rest,
# and score the summed held-out negative log-likelihood, averaged over
# folds drawn from the fit config's seed.
cv_grid = selection.SelectionGrid(ranks=(1, 2, 3), criterion="cv",
                                  cv_folds=3)
table = selection.cross_validate(x, fit_cfg, cv_grid, method="tp")
best = table.best()
print("\n3-fold cv sweep:")
for row in table.rows:
    print("  rank %d: held-out nll %9.2f%s"
          % (row.rank, row.score, "   <- chosen" if row is best else ""))

# For the sparse solvers the grid has a second axis: the sparsity ratio.
# select_model first sweeps the ratio at the largest rank, then sweeps the
# rank at the winning ratio. Here BIC picks a budget tighter than the
# generating truth: it is willing to trade a little fit for fewer degrees
# of freedom.
sparse_grid = selection.SelectionGrid(ranks=(1, 2, 3),
                                      ratios=(0.6, 0.8, 1.0),
                                      criterion="bic")
rank, ratio, table = selection.select_model(x, fit_cfg, sparse_grid,
                                            method="ttp")
print("\ntwo-stage ttp selection: rank %d at ratio %.1f" % (rank, ratio))
for row in table.rows:
    print("  rank %d  ratio %.1f: score %10.2f%s"
          % (row.rank, row.ratio, row.score,
             "   <- chosen" if row.chosen else ""))

# The deviance ladder of the chosen rank: each component's marginal share
# of the offset-only deviance, and the running total. Both components earn
# their keep; a third would have a marginal share near zero (the "deviance"
# criterion in select_model automates exactly this check).
report = decomp.fit(x, decomp.FitConfig(rank=rank, n_starts=6,
                                        max_outer_iters=200, seed=3),
                    method="tp")
ladder = selection.explained_deviance(x, report.model)
print("\nexplained deviance (rank-%d fit):" % report.model.rank)
for r in range(report.model.rank):
    print("  component %d: marginal %6.3f   cumulative %6.3f"
          % (r + 1, ladder.marginal[r], ladder.cumulative[r]))
