"""Acceptance suite: one test per shipping criterion.

Each test prints one line 'ACCEPTANCE <n>: PASS/FAIL - <measured detail>'
before asserting, so a red run still reports the measured numbers.
"""

import math
import time

import numpy as np
import pytest

from logitcp import cli, decomp, fileio, metrics, ops, selection, simulate
from logitcp.decomp import FitConfig
from logitcp.likelihood import majorizer_gap


import conftest

pytestmark = pytest.mark.acceptance


def check(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {num}: {detail}"


def unit(vec):
    v = np.asarray(vec, dtype=float)
    return v / np.linalg.norm(v)


def test_criterion_01_majorization_validity():
    t0 = time.perf_counter()
    grid = np.arange(-100, 101) / 10.0  # [-10, 10] in exact steps of 0.1
    theta, anchor = np.meshgrid(grid, grid, indexing="ij")
    min_gap, max_diag = math.inf, 0.0
    for xval in (0.0, 1.0):
        x = np.full(theta.shape, xval)
        gap = majorizer_gap(x, theta, anchor)
        min_gap = min(min_gap, float(gap.min()))
        max_diag = max(max_diag, float(np.abs(np.diagonal(gap)).max()))
    elapsed = time.perf_counter() - t0
    ok = min_gap >= -1e-12 and max_diag < 1e-12 and elapsed < 1.0
    check(
        1,
        ok,
        f"min gap {min_gap:.2e} (need >= -1e-12), max |gap| at theta=anchor "
        f"{max_diag:.2e} (need < 1e-12), {elapsed:.2f}s (need < 1s)",
    )


def test_criterion_02_mm_monotonicity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    methods = ("als", "tp", "tsp", "ttp")
    worst, n_traces = -math.inf, 0
    for i in range(50):
        method = methods[i % 4]
        dims = (
            int(rng.integers(8, 51)),
            int(rng.integers(5, 21)),
            int(rng.integers(4, 11)),
        )
        rank = int(rng.integers(1, 4))
        snr = tuple(sorted(rng.uniform(2.0, 6.0, size=rank), reverse=True))
        sim = simulate.SimConfig(dims, rank, snr, seed=int(rng.integers(1 << 20)))
        x, _ = simulate.gen_dataset(sim, baseline_weight=2.0)
        penalty, c, s = "none", None, None
        if method == "tsp":
            penalty, c = "l1", decomp.c_from_ratio(dims, float(rng.choice([0.7, 0.9])))
        elif method == "ttp":
            penalty, s = "l0", decomp.s_from_ratio(dims, float(rng.choice([0.5, 0.8])))
        cfg = FitConfig(
            rank=rank, penalty=penalty, c=c, s=s, n_starts=3,
            seed=int(rng.integers(1 << 20)),
        )
        report = decomp.fit(x, cfg, method=method)
        traces = [report.loss_trace]
        traces.extend(report.start_traces or [])
        traces.extend(report.component_traces or [])
        for tr in traces:
            tr = np.asarray(tr, dtype=float)
            if tr.size >= 2:
                worst = max(worst, float(np.max(np.diff(tr))))
                n_traces += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    check(
        2,
        ok,
        f"max uphill step {worst:.2e} over {n_traces} traces from 50 fits "
        f"(need <= 1e-9), {elapsed:.1f}s (need < 60s)",
    )


def test_criterion_03_rank_one_weight_oracle():
    rng = np.random.default_rng(303)
    max_d_err, max_id_err = 0.0, 0.0
    for _ in range(20):
        z = rng.standard_normal((3, 3, 3))
        u, v, w = (unit(rng.standard_normal(3)) for _ in range(3))
        d_closed = float(ops.rank_one_contract(z, u, v, w))
        outer = np.einsum("i,j,k->ijk", u, v, w)
        bound = float(ops.frob_norm(z)) + 1.0
        ds = np.linspace(-bound, bound, 80001)
        # grid search evaluates the residual norm directly per candidate d
        diffs = z[None] - ds[:, None, None, None] * outer[None]
        energies = np.einsum("dijk,dijk->d", diffs, diffs)
        d_grid = float(ds[np.argmin(energies)])
        max_d_err = max(max_d_err, abs(d_grid - d_closed))
        lhs = float(np.sum((z - d_closed * outer) ** 2))
        rhs = float(np.sum(z * z) - d_closed**2)
        max_id_err = max(max_id_err, abs(lhs - rhs))
    ok = max_d_err <= 1e-3 and max_id_err <= 1e-10
    check(
        3,
        ok,
        f"|d_grid - d_closed| max {max_d_err:.2e} (need <= 1e-3), energy "
        f"identity gap max {max_id_err:.2e} (need <= 1e-10) on 20 tensors",
    )


def test_criterion_04_penalty_off_equivalence():
    dims = (12, 7, 5)
    worst = 0.0
    for seed in range(5):
        sim = simulate.SimConfig(dims, 1, (4.0,), seed=seed)
        x, _ = simulate.gen_dataset(sim, baseline_weight=2.5)
        rng = np.random.default_rng((404, seed))
        init = tuple(unit(rng.standard_normal(p)) for p in dims)
        base = dict(rank=1, n_starts=1, seed=seed)
        f_tp = decomp.rank_one_mm_fit(x, FitConfig(penalty="none", **base), init=init)
        f_tsp = decomp.rank_one_mm_fit(
            x,
            FitConfig(penalty="l1", c=tuple(math.sqrt(p) for p in dims), **base),
            init=init,
        )
        f_ttp = decomp.rank_one_mm_fit(
            x, FitConfig(penalty="l0", s=dims, **base), init=init
        )
        for other in (f_tsp, f_ttp):
            for a, b in (
                (other.u, f_tp.u), (other.v, f_tp.v), (other.w, f_tp.w),
            ):
                worst = max(worst, float(np.max(np.abs(a - b))))
            worst = max(worst, abs(other.weight - f_tp.weight), abs(other.mu - f_tp.mu))
            ta = np.asarray(f_tp.trace, dtype=float)
            tb = np.asarray(other.trace, dtype=float)
            if ta.shape != tb.shape:
                worst = math.inf
            else:
                worst = max(worst, float(np.max(np.abs(ta - tb))))
    ok = worst < 1e-12
    check(
        4,
        ok,
        f"max deviation of tsp(c=sqrt(p)) / ttp(s=p) from tp iterates "
        f"{worst:.2e} over 5 shared-init fits (need < 1e-12)",
    )


def test_criterion_05_desk_scale_support_recovery():
    t0 = time.perf_counter()
    reps = 20
    tpr, fpr, rmse_tsp, rmse_tp = [], [], [], []
    for rep in range(reps):
        cfg = simulate.scenario("I", scale=0.2, seed=500 + rep)
        x, truth = simulate.gen_dataset(cfg)
        c_oracle = tuple(
            float(np.abs(f[:, 0]).sum())
            for f in (truth.model.U, truth.model.V, truth.model.W)
        )
        f_tsp = decomp.fit(
            x,
            FitConfig(rank=1, penalty="l1", c=c_oracle, n_starts=10, seed=500 + rep),
            method="tsp",
        )
        f_tp = decomp.fit(
            x, FitConfig(rank=1, n_starts=10, seed=500 + rep), method="tp"
        )
        ev_tsp = metrics.evaluate(f_tsp.model, truth.model)
        ev_tp = metrics.evaluate(f_tp.model, truth.model)
        tpr.append(ev_tsp.tpr)
        fpr.append(ev_tsp.fpr)
        rmse_tsp.append(ev_tsp.rmse)
        rmse_tp.append(ev_tp.rmse)
    m_tpr, m_fpr = float(np.mean(tpr)), float(np.mean(fpr))
    m_rmse_tsp, m_rmse_tp = float(np.mean(rmse_tsp)), float(np.mean(rmse_tp))
    elapsed = time.perf_counter() - t0
    ok = m_tpr >= 0.80 and m_fpr <= 0.05 and m_rmse_tsp < m_rmse_tp
    check(
        5,
        ok,
        f"sparse fit at oracle l1 budgets over {reps} reps at dims (200,10,10), "
        f"SNR 3: mean TPR {m_tpr:.4f} (need >= 0.80), mean FPR {m_fpr:.4f} "
        f"(need <= 0.05), mean RMSE {m_rmse_tsp:.4f} vs dense {m_rmse_tp:.4f} "
        f"(need <), {elapsed:.0f}s",
    )


def test_criterion_06_rank_selection():
    t0 = time.perf_counter()
    reps = 20
    ranks = (1, 2, 3, 4)
    aic_picks, cv_picks = [], []
    for rep in range(reps):
        sim = simulate.SimConfig(
            (200, 50, 10), 2, (5.0, 3.0), seed=600 + rep, baseline_reps=20
        )
        x, _ = simulate.gen_dataset(sim)
        base = FitConfig(rank=1, n_starts=10, seed=600 + rep)
        t_aic = selection.ic_sweep(
            x, base, selection.SelectionGrid(ranks=ranks, criterion="aic"),
            method="tp",
        )
        aic_picks.append(t_aic.best().rank)
        t_cv = selection.cross_validate(
            x, base, selection.SelectionGrid(ranks=ranks, criterion="cv"),
            method="tp",
        )
        cv_picks.append(t_cv.best().rank)
    aic_hits = sum(p == 2 for p in aic_picks)
    cv_hits = sum(p == 2 for p in cv_picks)
    aic_hist = {r: aic_picks.count(r) for r in ranks}
    cv_hist = {r: cv_picks.count(r) for r in ranks}
    elapsed = time.perf_counter() - t0
    ok = aic_hits >= 15 and cv_hits >= 15 and elapsed < 1200.0
    check(
        6,
        ok,
        f"rank-2 data (200,50,10) SNR (5,3): AIC picked R=2 in {aic_hits}/{reps} "
        f"(need >= 15, histogram {aic_hist}), CV in {cv_hits}/{reps} "
        f"(need >= 15, histogram {cv_hist}), {elapsed:.0f}s (need < 1200s)",
    )


def test_criterion_07_constraint_satisfaction():
    rng = np.random.default_rng(707)
    l0_violations = 0
    worst_l1_excess = -math.inf
    n_cols = 0
    for i in range(12):
        dims = (
            int(rng.integers(8, 30)),
            int(rng.integers(5, 15)),
            int(rng.integers(4, 10)),
        )
        rank = int(rng.integers(1, 3))
        snr = tuple(sorted(rng.uniform(2.0, 5.0, size=rank), reverse=True))
        x, _ = simulate.gen_dataset(
            simulate.SimConfig(dims, rank, snr, seed=i), baseline_weight=2.0
        )
        if i % 2 == 0:
            s = decomp.s_from_ratio(dims, float(rng.uniform(0.35, 0.9)))
            rep = decomp.fit(
                x, FitConfig(rank=rank, penalty="l0", s=s, n_starts=3, seed=i),
                method="ttp",
            )
            for mat, sj in zip((rep.model.U, rep.model.V, rep.model.W), s):
                for r in range(rank):
                    n_cols += 1
                    if np.count_nonzero(mat[:, r]) != sj:
                        l0_violations += 1
        else:
            c = decomp.c_from_ratio(dims, float(rng.uniform(0.55, 0.9)))
            rep = decomp.fit(
                x, FitConfig(rank=rank, penalty="l1", c=c, n_starts=3, seed=i),
                method="tsp",
            )
            for mat, cj in zip((rep.model.U, rep.model.V, rep.model.W), c):
                for r in range(rank):
                    n_cols += 1
                    worst_l1_excess = max(
                        worst_l1_excess, float(np.abs(mat[:, r]).sum() - cj)
                    )
    ok = l0_violations == 0 and worst_l1_excess <= 1e-6
    check(
        7,
        ok,
        f"{l0_violations} cardinality violations and worst l1 excess "
        f"{worst_l1_excess:.2e} (need <= 1e-6) across {n_cols} factor columns",
    )


def test_criterion_08_completion_auc():
    t0 = time.perf_counter()
    reps = 10
    aucs, oracle_aucs = [], []
    for rep in range(reps):
        cfg = simulate.scenario("I", scale=0.2, seed=800 + rep)
        x, truth = simulate.gen_dataset(cfg)
        kept, heldout = simulate.drop_uniform(x, 0.10, seed=800 + rep)
        report = decomp.fit(
            kept, FitConfig(rank=1, n_starts=10, seed=800 + rep), method="tp"
        )
        aucs.append(metrics.completion_auc(heldout, report.model.probs()))
        oracle_aucs.append(metrics.completion_auc(heldout, truth.probs))
    m_auc = float(np.mean(aucs))
    m_oracle = float(np.mean(oracle_aucs))
    elapsed = time.perf_counter() - t0
    ok = m_auc > 0.7
    check(
        8,
        ok,
        f"mean completion AUC {m_auc:.4f} over {reps} reps (need > 0.7); "
        f"true-probability oracle scores {m_oracle:.4f} on the same holdouts, "
        f"{elapsed:.0f}s",
    )


def test_criterion_09_kernel_identities():
    rng = np.random.default_rng(909)
    roundtrip_exact = True
    worst_gram, worst_pinv = 0.0, 0.0
    for _ in range(100):
        dims = tuple(int(rng.integers(2, 7)) for _ in range(3))
        r = int(rng.integers(1, 4))
        t = rng.standard_normal(dims)
        for mode in (1, 2, 3):
            if not np.array_equal(ops.fold(ops.matricize(t, mode), mode, dims), t):
                roundtrip_exact = False
        w_mat = rng.standard_normal((dims[2], r))
        v_mat = rng.standard_normal((dims[1], r))
        kr = ops.khatri_rao(w_mat, v_mat)
        gram = kr.T @ kr
        had = ops.hadamard(w_mat.T @ w_mat, v_mat.T @ v_mat)
        worst_gram = max(worst_gram, float(np.max(np.abs(gram - had))))
        x1 = ops.matricize(t, 1)
        via_gram = x1 @ kr @ np.linalg.pinv(had)
        via_direct = x1 @ np.linalg.pinv(kr.T)
        worst_pinv = max(worst_pinv, float(np.max(np.abs(via_gram - via_direct))))
    ok = roundtrip_exact and worst_gram <= 1e-8 and worst_pinv <= 1e-8
    check(
        9,
        ok,
        f"matricize round-trips exact: {roundtrip_exact}; Gram identity gap "
        f"{worst_gram:.2e} and pseudo-inverse route gap {worst_pinv:.2e} "
        f"(need <= 1e-8) on 100 instances",
    )


def test_criterion_10_cli_determinism(tmp_path):
    def run_chain(root):
        root.mkdir()
        sim = root / "sim.txt"
        rc = cli.main(
            ["simulate", "--dims", "20,10,8", "--rank", "1", "--snr", "4",
             "--baseline-weight", "2.5", "--seed", "9", "--out", str(sim)]
        )
        assert rc == 0
        x = fileio.read_binary_tensor(sim)
        kept, heldout = simulate.drop_uniform(x, 0.1, seed=9)
        fileio.write_binary_tensor(root / "masked.txt", kept)
        fileio.write_binary_tensor(root / "heldout.txt", heldout)
        rc = cli.main(
            ["fit", "--data", str(root / "masked.txt"), "--rank", "1",
             "--method", "tp", "--max-outer", "200", "--seed", "9",
             "--out", str(root / "fit.model")]
        )
        assert rc in (0, 3)
        rc = cli.main(
            ["select", "--data", str(sim), "--ranks", "1,2", "--criterion",
             "bic", "--starts", "4", "--seed", "9", "--out", str(root / "scores.csv")]
        )
        assert rc == 0
        rc = cli.main(
            ["complete", "--data", str(root / "masked.txt"), "--model",
             str(root / "fit.model"), "--holdout", str(root / "heldout.txt"),
             "--out", str(root / "pred.csv")]
        )
        assert rc == 0
        rc = cli.main(
            ["report", "--model", str(root / "fit.model"), "--truth",
             str(sim) + ".truth", "--out", str(root / "rep")]
        )
        assert rc == 0
        return sorted(p for p in root.iterdir() if p.is_file())

    files_a = run_chain(tmp_path / "a")
    files_b = run_chain(tmp_path / "b")
    assert [p.name for p in files_a] == [p.name for p in files_b]
    mismatched = [
        p.name for p, q in zip(files_a, files_b) if p.read_bytes() != q.read_bytes()
    ]
    ok = not mismatched and len(files_a) >= 9
    check(
        10,
        ok,
        f"{len(files_a)} output files byte-identical across two same-seed runs"
        + ("" if not mismatched else f"; mismatches: {mismatched}"),
    )
