"""Per-layer metrics derived from a traced run's spans.

Every figure is per traced round. Layers a workload does not run report 0.
`PER_LAYER` is the list BENCHMARK.json declares; `layer_metrics` returns a
value for each of its names.
"""

import os
from collections import defaultdict

from tracer import LAYERS, ancestors

POOL = ("decomp.multi_start_fit", "decomp.fit_rank_path", "decomp.als_fit")
MODES = ("mode1", "mode2", "mode3")


def _specs():
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.self_s", "s", "lower"), (f"{layer}.calls", "count", "lower")]
    out += [
        ("ops.rank_one_contract.calls", "count", "lower"),
        ("ops.rank_one_contract.self_s", "s", "lower"),
        ("ops.rank_one_contract.us_per_call", "us", "lower"),
        ("ops.rank_one_contract.gbps_computed", "GB/s", "higher"),
    ]
    out += [(f"ops.rank_one_contract.{m}.us_per_call", "us", "lower") for m in MODES]
    out += [
        ("ops.cp_reconstruct.calls", "count", "lower"),
        ("ops.cp_reconstruct.self_s", "s", "lower"),
        ("likelihood.softplus.self_s", "s", "lower"),
        ("likelihood.sigmoid.self_s", "s", "lower"),
        ("likelihood.working_tensor.self_s", "s", "lower"),
        ("likelihood.working_tensor.ms_per_call", "ms", "lower"),
        ("likelihood.neg_loglik.calls", "count", "lower"),
        ("likelihood.neg_loglik.self_s", "s", "lower"),
        ("likelihood.neg_loglik.ms_per_call", "ms", "lower"),
        ("decomp.l1_project.calls", "count", "lower"),
        ("decomp.l1_project.self_s", "s", "lower"),
        ("decomp.l1_project.steps_per_call", "count", "lower"),
        ("decomp.l1_project.p1000.us_per_call", "us", "lower"),
        ("decomp.truncate_top.calls", "count", "lower"),
        ("decomp.truncate_top.self_s", "s", "lower"),
        ("decomp.rank_one_mm_fit.calls", "count", "lower"),
        ("decomp.outer_passes", "count", "lower"),
        ("decomp.inner_iters", "count", "lower"),
        ("decomp.pool_yield", "ratio", "higher"),
        ("decomp.nonconverged", "count", "lower"),
        ("decomp.pool.self_s", "s", "lower"),
        ("decomp.final_offset.self_s", "s", "lower"),
        ("decomp.search_gap_nll.tsp", "nll/cell", "lower"),
        ("decomp.search_gap_nll.ttp", "nll/cell", "lower"),
        ("selection.fits", "count", "lower"),
        ("selection.cross_validate.self_s", "s", "lower"),
        ("selection.ic_sweep.self_s", "s", "lower"),
        ("selection.explained_deviance.self_s", "s", "lower"),
        ("simulate.calibrate_baseline.total_s", "s", "lower"),
        ("simulate.reps_per_s", "1/s", "higher"),
        ("simulate.gen_dataset.self_s", "s", "lower"),
        ("simulate.drop_uniform.self_s", "s", "lower"),
        ("fileio.read_tensor.self_s", "s", "lower"),
        ("fileio.read_tensor.mb_per_s", "MB/s", "higher"),
        ("fileio.write_tensor.self_s", "s", "lower"),
        ("fileio.write_tensor.mb_per_s", "MB/s", "higher"),
        ("fileio.model_io.self_s", "s", "lower"),
        ("fileio.atomic_write_text.self_s", "s", "lower"),
        ("metrics.evaluate.self_s", "s", "lower"),
        ("metrics.completion_auc.self_s", "s", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.spans", "count", "lower"),
        ("machine.copy_gbps", "GB/s", "higher"),
    ]
    return out


PER_LAYER = _specs()


# ------------------------------------------------------------------ probes
# A probe runs after a traced call returns and stores what the metrics need
# on the span's tag.


def _contract_probe(span, args, kwargs, result):
    t = args[0]
    given = dict(zip("uvw", args[1:]))
    given.update((k, v) for k, v in kwargs.items() if k in "uvw")
    absent = [k for k in "uvw" if given.get(k) is None]
    # a contraction along one mode is keyed on the mode whose vector is absent
    key = f"mode{'uvw'.index(absent[0]) + 1}" if len(absent) == 1 else "other"
    span.tag = (key, int(getattr(t, "size", 0)))


def _size_probe(span, args, kwargs, result):
    span.tag = int(getattr(args[0], "size", 0))


def _file_probe(span, args, kwargs, result):
    span.tag = os.path.getsize(args[0])


def _rank_one_probe(span, args, kwargs, result):
    span.tag = int(result.n_outer)


def _pool_probe(span, args, kwargs, result):
    report = result[max(result)] if isinstance(result, dict) else result
    passes = len(report.loss_trace) - 1 if span.name == "decomp.als_fit" else 0
    span.tag = (report.clusters_found, report.n_starts_used, bool(report.converged), passes)


PROBES = {
    "ops.rank_one_contract": _contract_probe,
    "decomp.l1_project": _size_probe,
    "fileio.read_tensor": _file_probe,
    "fileio.write_tensor": _file_probe,
    "decomp.rank_one_mm_fit": _rank_one_probe,
    **{name: _pool_probe for name in POOL},
}


# ----------------------------------------------------------------- metrics


def layer_metrics(spans, selfs, rounds, extra=None):
    """Per-layer figures, per traced round, for every name in PER_LAYER."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    for s, own in zip(spans, selfs):
        calls[s.name] += 1
        self_s[s.name] += own
        total_s[s.name] += s.duration
    by = defaultdict(list)  # spans by name, leaving out probed calls that raised
    for s in spans:
        if s.name not in PROBES or s.tag is not None:
            by[s.name].append(s)

    def per_call(name, scale, spans_=None):
        group = by[name] if spans_ is None else spans_
        return scale * sum(s.duration for s in group) / len(group) if group else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for layer in LAYERS:
        names = [n for n in calls if n.split(".")[0] == layer]
        m[f"{layer}.self_s"] = sum(self_s[n] for n in names)
        m[f"{layer}.calls"] = sum(calls[n] for n in names)

    rc = "ops.rank_one_contract"
    m[f"{rc}.calls"] = calls[rc]
    m[f"{rc}.self_s"] = self_s[rc]
    m[f"{rc}.us_per_call"] = per_call(rc, 1e6)
    bytes_read = sum(8 * s.tag[1] for s in by[rc])
    m[f"{rc}.gbps_computed"] = ratio(bytes_read, self_s[rc]) / 1e9
    for mode in MODES:
        m[f"{rc}.{mode}.us_per_call"] = per_call(rc, 1e6, [s for s in by[rc] if s.tag[0] == mode])
    for name in ("ops.cp_reconstruct", "likelihood.neg_loglik", "decomp.l1_project",
                 "decomp.truncate_top"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    for name in ("likelihood.softplus", "likelihood.sigmoid", "likelihood.working_tensor",
                 "decomp.final_offset", "selection.cross_validate", "selection.ic_sweep",
                 "selection.explained_deviance", "simulate.gen_dataset",
                 "simulate.drop_uniform", "fileio.read_tensor", "fileio.write_tensor",
                 "fileio.atomic_write_text", "metrics.evaluate", "metrics.completion_auc",
                 "cli.main"):
        m[f"{name}.self_s"] = self_s[name]
    m["likelihood.working_tensor.ms_per_call"] = per_call("likelihood.working_tensor", 1e3)
    m["likelihood.neg_loglik.ms_per_call"] = per_call("likelihood.neg_loglik", 1e3)

    l1 = "decomp.l1_project"
    m[f"{l1}.steps_per_call"] = ratio(calls["decomp.soft_threshold"], calls[l1])
    m[f"{l1}.p1000.us_per_call"] = per_call(l1, 1e6, [s for s in by[l1] if s.tag == 1000])

    m["decomp.rank_one_mm_fit.calls"] = calls["decomp.rank_one_mm_fit"]
    pools = [s for n in POOL for s in by[n]]
    m["decomp.outer_passes"] = sum(s.tag for s in by["decomp.rank_one_mm_fit"]) + sum(
        s.tag[3] for s in pools
    )
    m["decomp.inner_iters"] = calls["decomp.power_update"] / 3
    power = [s for s in pools if s.name != "decomp.als_fit"]
    m["decomp.pool_yield"] = ratio(sum(s.tag[0] for s in power), sum(s.tag[1] for s in power))
    m["decomp.nonconverged"] = sum(1 for s in pools if not s.tag[2])
    m["decomp.pool.self_s"] = sum(self_s[n] for n in POOL)

    m["selection.fits"] = sum(
        1 for s in pools if any(a.startswith("selection.") for a in ancestors(spans, s))
    )
    cal = "simulate.calibrate_baseline"
    m[f"{cal}.total_s"] = total_s[cal]
    reps = sum(1 for s in pools if cal in ancestors(spans, s))
    m["simulate.reps_per_s"] = ratio(reps, total_s[cal])

    for name in ("fileio.read_tensor", "fileio.write_tensor"):
        done = by[name]
        m[f"{name}.mb_per_s"] = ratio(sum(s.tag for s in done), sum(s.duration for s in done)) / 1e6
    m["fileio.model_io.self_s"] = self_s["fileio.read_model"] + self_s["fileio.write_model"]
    m["trace.spans"] = len(spans)

    # counts and times are per round; rates and per-call figures are not
    intensive = ("us_per_call", "ms_per_call", "gbps_computed", "mb_per_s", "steps_per_call",
                 "pool_yield", "reps_per_s")
    for key in m:
        if not key.endswith(intensive):
            m[key] = m[key] / rounds
    m.update(extra or {})
    return {name: float(m.get(name, 0.0)) for name, _, _ in PER_LAYER}
