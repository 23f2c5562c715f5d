"""Command line interface.

Subcommands: simulate, fit, select, complete, report. Exit codes: 0 on
success, 2 on usage or validation errors, 3 on non-convergence or failed
computation (partial output is still written where applicable). Outputs are
deterministic for a fixed seed on one machine with one BLAS thread count.
"""

import argparse
import os
import sys

import numpy as np

from . import decomp, fileio, metrics, selection, simulate
from .likelihood import impute, neg_loglik


class UsageError(Exception):
    pass


def _ints(text):
    return tuple(int(t) for t in text.split(","))


def _floats(text):
    return tuple(float(t) for t in text.split(","))


# ------------------------------------------------------------- simulate


def _run_simulate(args):
    common = dict(
        sparsity=args.sparsity,
        mu=args.mu,
        seed=args.seed,
        baseline_reps=args.baseline_reps,
    )
    if args.scenario:
        # a scenario fixes dims and rank; --snr overrides its signal strengths
        given = [f for f, v in (("--dims", args.dims), ("--rank", args.rank)) if v is not None]
        if given:
            raise UsageError(f"{', '.join(given)} cannot be combined with --scenario")
        scale = 1.0 if args.scale is None else args.scale
        cfg = simulate.scenario(args.scenario, snr=args.snr, scale=scale, **common)
    else:
        if args.scale is not None:
            raise UsageError("--scale only applies to --scenario")
        if args.dims is None or args.rank is None or args.snr is None:
            raise UsageError("simulate needs --scenario or all of --dims/--rank/--snr")
        cfg = simulate.SimConfig(dims=args.dims, rank=args.rank, snr=args.snr, **common)
    x, truth = simulate.gen_dataset(cfg, baseline_weight=args.baseline_weight)
    fileio.write_binary_tensor(args.out, x)
    meta = {
        "kind": "ground-truth",
        "dims": " ".join(str(p) for p in cfg.dims),
        "rank": str(cfg.rank),
        "snr": ",".join(repr(v) for v in cfg.snr),
        "sparsity": repr(cfg.sparsity),
        "seed": str(cfg.seed),
        "baseline_weight": repr(truth.baseline_weight),
    }
    fileio.write_model(args.out + ".truth", truth.model, meta)
    print(
        f"wrote {args.out} ({x.n_observed} cells, dims {cfg.dims}) "
        f"and {args.out}.truth (baseline weight {truth.baseline_weight:.4f})"
    )
    return 0


# ------------------------------------------------------------------ fit


def _fit_cfg(args, dims):
    """(method, FitConfig) from the fit flags; a flag left out takes the
    method tp or FitConfig's default."""
    method = args.method or "tp"
    flags = (("--c-ratio", args.c_ratio, "tsp"), ("--s-ratio", args.s_ratio, "ttp"))
    for flag, ratio, owner in flags:
        if method == owner and ratio is None:
            raise UsageError(f"--method {owner} needs {flag}")
        if method != owner and ratio is not None:
            raise UsageError(f"{flag} only applies to --method {owner}")
    _refuse_for_als(method, symmetric_uv=args.symmetric_uv, starts=args.starts)
    given = dict(rank=args.rank, n_starts=args.starts, init=args.init,
                 max_outer_iters=args.max_outer, symmetric_uv=args.symmetric_uv, seed=args.seed)
    cfg = decomp.FitConfig(**{name: v for name, v in given.items() if v is not None})
    ratio = args.c_ratio if method == "tsp" else args.s_ratio
    return method, decomp.method_config(cfg, method, dims, ratio)


def _refuse_for_als(method, **flags):
    # ALS fits from one start with free factors: no pool, no symmetric mode
    for dest, value in flags.items():
        if method == "als" and value is not None:
            raise UsageError(f"--{dest.replace('_', '-')} is only available for tp/tsp/ttp")


def _config_echo(cfg, method):
    parts = [f"method={method}", f"rank={cfg.rank}", f"penalty={cfg.penalty}"]
    if cfg.c is not None:
        parts.append("c=" + ",".join(repr(v) for v in cfg.c))
    if cfg.s is not None:
        parts.append("s=" + ",".join(str(v) for v in cfg.s))
    parts.extend(
        [
            f"n_starts={cfg.effective_starts}",
            f"init={cfg.init}",
            f"cluster_threshold={cfg.cluster_threshold!r}",
            f"symmetric_uv={cfg.symmetric_uv}",
            f"max_outer_iters={cfg.max_outer_iters}",
            f"seed={cfg.seed}",
        ]
    )
    if method == "als":  # one start, so the pool's settings do not apply
        parts = [p for p in parts if not p.startswith(("n_starts=", "cluster_threshold="))]
    return " ".join(parts)


def _model_meta(report, cfg, method):
    return {
        "kind": "fit",
        "method": method,
        "converged": str(report.converged).lower(),
        "reason": report.reason,
        "n_starts_used": str(report.n_starts_used),
        "clusters_found": str(report.clusters_found),
        "loss_trace": ",".join(repr(float(v)) for v in report.loss_trace),
        "config": _config_echo(cfg, method),
    }


def _fit_report_text(x, report, cfg, method):
    m = report.model
    nll, df = neg_loglik(x, m), selection.model_df(m)  # AIC and BIC score no model again
    lines = [
        "logistic CP fit",
        f"dims: {m.dims[0]} x {m.dims[1]} x {m.dims[2]} "
        f"({x.n_observed} observed cells)",
        f"method: {method}",
        f"rank: {m.rank} (clusters found: {report.clusters_found})",
        f"converged: {'yes' if report.converged else 'NO'} ({report.reason})",
        f"starts used: {report.n_starts_used}",
        f"offset mu: {m.mu:.6f}",
        f"neg log-likelihood: {nll:.6f}",
        f"df: {df}",
        f"AIC: {selection.information_criterion(x, nll, df, 'aic'):.6f}",
        f"BIC: {selection.information_criterion(x, nll, df, 'bic'):.6f}",
        "",
        "component  weight      single-dev    cum-explained  marg-explained",
    ]
    ladder = selection.explained_deviance(x, m)
    for r in range(m.rank):
        lines.append(
            f"{r + 1:9d}  {m.d[r]:<10.4f}  {ladder.component_deviance[r]:<12.4f}"
            f"  {ladder.cumulative[r]:<13.4f}  {ladder.marginal[r]:<.4f}"
        )
    lines.append("")
    lines.append("loss trace: " + ", ".join(f"{v:.4f}" for v in report.loss_trace))
    return "\n".join(lines) + "\n"


def _run_fit(args):
    x = fileio.read_binary_tensor(args.data)
    method, cfg = _fit_cfg(args, x.dims)
    report = decomp.fit(x, cfg, method=method)
    fileio.write_model(args.out, report.model, _model_meta(report, cfg, method))
    fileio.atomic_write_text(
        args.out + ".report.txt", _fit_report_text(x, report, cfg, method)
    )
    status = "converged" if report.converged else f"NOT converged ({report.reason})"
    print(f"wrote {args.out} and {args.out}.report.txt; {status}")
    return 0 if report.converged else 3


# ---------------------------------------------------------------- select


def _run_select(args):
    _refuse_for_als(args.method, starts=args.starts)
    if args.folds is not None and args.criterion != "cv":
        raise UsageError("--folds only applies to --criterion cv")
    x = fileio.read_binary_tensor(args.data)
    folds = {} if args.folds is None else {"cv_folds": args.folds}
    grid = selection.SelectionGrid(
        ranks=args.ranks, ratios=args.ratios, criterion=args.criterion, **folds
    )
    base = decomp.FitConfig(rank=1, n_starts=args.starts, init=args.init, seed=args.seed)
    rank, ratio, table = selection.select_model(x, base, grid, method=args.method)
    fileio.atomic_write_text(args.out, "\n".join(table.csv_lines()) + "\n")
    chosen = f"chosen rank={rank}"
    if ratio is not None:
        chosen += f" ratio={ratio}"
    print(f"wrote {args.out}")
    print(chosen)
    return 0


# -------------------------------------------------------------- complete


def _run_complete(args):
    if args.model:
        given = [f"--{d.replace('_', '-')}" for d in _FIT_FLAGS if getattr(args, d) is not None]
        if given:
            raise UsageError(f"{', '.join(given)} cannot be combined with --model")
    impute((), args.threshold)  # refuses a bad threshold before anything is fitted
    x = fileio.read_binary_tensor(args.data)
    if x.fully_observed:
        raise UsageError("data has no missing cells to complete")
    heldout = fileio.read_binary_tensor(args.holdout) if args.holdout else None
    if heldout is not None and heldout.dims != x.dims:
        raise UsageError(f"holdout dims {heldout.dims} do not match data dims {x.dims}")
    code = 0
    if args.model:
        model, _ = fileio.read_model(args.model)
        if model.dims != x.dims:
            raise UsageError(
                f"model dims {model.dims} do not match data dims {x.dims}"
            )
    else:
        if args.rank is None:
            raise UsageError("complete needs --model or fit flags (--rank, --method)")
        method, cfg = _fit_cfg(args, x.dims)
        report = decomp.fit(x, cfg, method=method)
        model = report.model
        if not report.converged:
            print(f"warning: fit did not converge ({report.reason})", file=sys.stderr)
            code = 3
    probs = model.probs()
    labels = impute(probs, args.threshold)
    # transposing makes the C-order nonzero scan run with i fastest
    k_idx, j_idx, i_idx = np.nonzero(~x.mask.T)
    cells = (i_idx, j_idx, k_idx)
    rows = zip(*((a + 1).tolist() for a in cells), probs[cells].tolist(),
               labels[cells].astype(int).tolist())
    lines = ["i,j,k,prob,label", *(f"{i},{j},{k},{p!r},{lab}" for i, j, k, p, lab in rows)]
    fileio.atomic_write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {args.out} ({len(lines) - 1} predicted cells)")
    if heldout is not None:
        auc = metrics.completion_auc(heldout, probs)
        hnll = neg_loglik(heldout, model)
        print(f"held-out AUC: {auc:.6f}")
        print(f"held-out neg log-likelihood: {hnll:.6f}")
    return code


# ---------------------------------------------------------------- report


def _run_report(args):
    model, meta = fileio.read_model(args.model)
    lines = [
        "logistic CP model report",
        f"dims: {model.dims[0]} x {model.dims[1]} x {model.dims[2]}",
        f"rank: {model.rank}",
        f"offset mu: {model.mu:.6f}",
        "weights: " + ", ".join(f"{v:.4f}" for v in model.d),
        f"df: {selection.model_df(model)}",
    ]
    for key, value in meta.items():
        lines.append(f"meta {key}: {value}")

    slices = [
        model.d[r] * np.outer(model.U[:, r], model.W[:, r]) for r in range(model.rank)
    ]
    scale = max((np.abs(s).max() for s in slices), default=0.0)
    scale = scale if scale > 0 else 1.0
    for r, sl in enumerate(slices):
        sl = sl / scale
        path = f"{args.out}.component{r + 1}.csv"
        rows = "\n".join(",".join(map(repr, row)) for row in sl.tolist())
        fileio.atomic_write_text(path, rows + "\n")
        lines.append(
            f"component {r + 1} slice (u x w, scaled): {os.path.basename(path)}"
        )

    if args.truth:
        truth, _ = fileio.read_model(args.truth)
        lines.append("")
        try:
            ev = metrics.evaluate(model, truth)
            lines.append(f"rmse vs truth: {ev.rmse:.6f}")
            lines.append(f"mean factor error: {ev.mean_error:.6f}")
            lines.append(f"weight error: {ev.weight_error:.6f}")
            lines.append(f"support TPR: {ev.tpr:.6f}")
            lines.append(f"support FPR: {ev.fpr:.6f}")
            for note in ev.notes:
                lines.append(f"note: {note}")
        except ValueError as exc:
            lines.append(f"truth comparison skipped: {exc}")
    fileio.atomic_write_text(args.out + ".txt", "\n".join(lines) + "\n")
    print(f"wrote {args.out}.txt and {model.rank} slice file(s)")
    return 0


# ----------------------------------------------------------------- parser


# the fit flags' destinations; each is None when its flag is left out, and
# _fit_cfg supplies the default
_FIT_FLAGS = ("rank", "method", "c_ratio", "s_ratio", "symmetric_uv", "starts", "init",
             "max_outer", "seed")


def _add_fit_flags(p, require_rank):
    p.add_argument("--rank", type=int, required=require_rank)
    p.add_argument(
        "--method", choices=decomp.METHODS,
        help="als, tp (power), tsp (l1), ttp (l0); default tp",
    )
    p.add_argument("--c-ratio", type=float, help="l1 budgets c_i = ratio*sqrt(p_i)")
    p.add_argument("--s-ratio", type=float, help="l0 cardinalities s_i = floor(ratio*p_i)")
    p.add_argument("--symmetric-uv", action="store_true", default=None,
                   help="tie the first two modes' factors (needs p1 == p2)")
    p.add_argument("--starts", type=int, default=None,
                   help="tp/tsp/ttp multi-start pool size (default max(10, rank^3))")
    p.add_argument("--init", choices=("spectral", "random"), help="default spectral")
    p.add_argument("--max-outer", type=int, help="default 50")
    p.add_argument("--seed", type=int, help="default 0")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="logitcp",
        description="Sparse logistic CP decomposition of binary 3-way tensors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw a synthetic dataset with known truth")
    p.add_argument("--scenario", choices=sorted(simulate.SCENARIOS))
    p.add_argument("--scale", type=float,
                   help="scale factor for the first mode of a --scenario design (default 1)")
    p.add_argument("--dims", type=_ints, help="p1,p2,p3")
    p.add_argument("--rank", type=int)
    p.add_argument("--snr", type=_floats, help="per-component signal-to-noise, e.g. 5,3")
    p.add_argument("--sparsity", type=float, default=0.2)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--baseline-reps", type=int, default=100)
    p.add_argument("--baseline-weight", type=float, default=None,
                   help="skip calibration and use this noise baseline")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_run_simulate)

    p = sub.add_parser("fit", help="fit one model")
    p.add_argument("--data", required=True)
    _add_fit_flags(p, require_rank=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_run_fit)

    p = sub.add_parser("select", help="sweep ranks/ratios and pick by a criterion")
    p.add_argument("--data", required=True)
    p.add_argument("--ranks", type=_ints, required=True, help="e.g. 1,2,3,4")
    p.add_argument("--ratios", type=_floats, default=None, help="e.g. 0.1,0.2,0.4")
    p.add_argument("--method", choices=decomp.METHODS, default="tp")
    p.add_argument("--criterion", choices=("aic", "bic", "cv", "deviance"),
                   default="bic")
    p.add_argument("--folds", type=int, help="cv folds (default 5); only with --criterion cv")
    p.add_argument("--starts", type=int, default=None)
    p.add_argument("--init", choices=("spectral", "random"), default="spectral")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_run_select)

    p = sub.add_parser("complete", help="predict missing cells")
    p.add_argument("--data", required=True)
    p.add_argument("--model", help="fitted model file; otherwise give fit flags")
    _add_fit_flags(p, require_rank=False)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--holdout", help="tensor file of held-out cells to score")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_run_complete)

    p = sub.add_parser("report", help="summarize a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--truth", help="ground-truth model file for recovery metrics")
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=_run_report)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
