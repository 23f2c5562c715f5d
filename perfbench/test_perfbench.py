"""Self-tests of the benchmark's tracer, metrics and checks.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from logitcp import decomp, likelihood, ops  # noqa: E402


def _package_modules():
    return {n: m for n, m in sys.modules.items() if n == "logitcp" or n.startswith("logitcp.")}


def _originals():
    """Every public layer function, by id."""
    out = {}
    for layer in tracer.LAYERS:
        module = sys.modules[f"logitcp.{layer}"]
        for fn in tracer.public_functions(module, tracer.EXTRA.get(layer, ())).values():
            out[id(fn)] = fn
    return out


def _snapshot():
    return {(n, a): v for n, m in _package_modules().items() for a, v in vars(m).items()}


def _wrapped_anywhere():
    return [k for k, v in _snapshot().items() if hasattr(v, "__wrapped__")]


def test_every_alias_is_wrapped_and_restored():
    originals = _originals()
    before = _snapshot()
    aliases = [k for k, v in before.items() if id(v) in originals]
    trc = tracer.Tracer()
    with trc:
        for key in aliases:
            module = _package_modules()[key[0]]
            current = getattr(module, key[1])
            assert current is not before[key], f"{key} not wrapped"
            assert current.__wrapped__ is before[key]
        # a reference held by another module resolves to the same wrapper
        assert decomp.neg_loglik is likelihood.neg_loglik
        assert decomp.neg_loglik.__wrapped__ is before[("logitcp.likelihood", "neg_loglik")]
        ops.rank_one_contract(np.ones((2, 3, 4)), v=np.ones(3), w=np.ones(4))
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert [s.name for s in trc.spans] == ["ops.rank_one_contract"]
    assert ("logitcp.decomp", "neg_loglik") in aliases
    assert ("logitcp.cli", "main") in aliases


def test_self_time_is_duration_minus_child_coverage():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    trc = tracer.Tracer(clock=lambda: next(ticks))
    inner = trc.wrap("t.inner", lambda: None)

    def outer_fn():
        inner()
        inner()

    trc.wrap("t.outer", outer_fn)()
    by_name = {}
    for span, own in zip(trc.spans, trc.self_times()):
        by_name.setdefault(span.name, []).append((span, own))
    (outer, outer_self), = by_name["t.outer"]
    assert outer.duration == 10.0
    assert outer_self == 10.0 - (2.0 + 3.0)
    assert [own for _, own in by_name["t.inner"]] == [2.0, 3.0]
    assert all(s.parent == outer.sid for s, _ in by_name["t.inner"])
    assert tracer.ancestors(trc.spans, by_name["t.inner"][0][0]) == ["t.outer"]


def test_coverage_merges_overlapping_children():
    assert tracer.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert tracer.covered([]) == 0.0


class _Tiny(workloads.Workload):
    """A fast workload that records whether the tracer was installed."""

    name = "tiny"
    seen = []

    def setup(self):
        return {"x": likelihood.BinaryTensor.dense(np.eye(3)[:, :, None] * np.ones((3, 3, 2)))}

    def run_round(self, inputs, ledger):
        type(self).seen.append(bool(_wrapped_anywhere()))
        with ledger.op("nll"):
            likelihood.neg_loglik(inputs["x"], np.zeros((3, 3, 2)))
        return {"nll_s": 0.0}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", _Tiny)
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    monkeypatch.setattr(run, "_pin_threads", lambda: None)
    _Tiny.seen = []
    return _Tiny


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_untraced_run_never_installs_wrappers(tiny, capsys, monkeypatch):
    def refuse(self, *a, **k):
        raise AssertionError("tracer installed in an untraced run")

    monkeypatch.setattr(tracer.Tracer, "install", refuse)
    assert run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 0
    result = _last_json(capsys)
    assert tiny.seen == [False]
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1
    assert not _wrapped_anywhere()


def test_traced_run_wraps_only_traced_rounds(tiny, capsys):
    assert run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0", "--trace", "1"]) == 0
    result = _last_json(capsys)
    assert tiny.seen == [False, True]
    assert set(result["metrics"]) == {name for name, _, _ in layers.PER_LAYER}
    assert result["metrics"]["likelihood.neg_loglik.calls"]["value"] == 1.0
    assert not _wrapped_anywhere()


def test_violated_check_counts_in_error_rate():
    ledger = workloads.Ledger()
    rising = SimpleNamespace(
        loss_trace=np.array([10.0, 9.0, 9.5]), start_traces=[], component_traces=[]
    )
    falling = SimpleNamespace(
        loss_trace=np.array([10.0, 9.0, 9.0]), start_traces=[np.array([3.0, 2.0])],
        component_traces=[]
    )
    for report in (rising, falling):
        with ledger.op("fit") as op:
            workloads.check_traces(op, report)
    with ledger.op("raises"):
        raise RuntimeError("boom")
    assert (ledger.attempted, ledger.failed) == (3, 2)
    assert ledger.error_rate == pytest.approx(2 / 3)
    assert "rises" in ledger.failures[0][1][0]


def test_sparsity_and_exit_checks():
    model = SimpleNamespace(U=np.array([[0.6], [0.8], [0.0]]), V=np.array([[1.0]]),
                            W=np.array([[1.0]]))
    op = workloads.Op("x")
    workloads.check_sparsity(op, model, s=(2, 1, 1))
    workloads.check_sparsity(op, model, c=(1.4, 1.0, 1.0))
    workloads.check_exit(op, 3, (0, 3))
    assert op.errors == []
    workloads.check_sparsity(op, model, s=(3, 1, 1))
    workloads.check_sparsity(op, model, c=(1.3, 1.0, 1.0))
    workloads.check_exit(op, 2, (0, 3))
    workloads.check_baseline(op, float("nan"))
    assert len(op.errors) == 4


def test_run_cli_reports_usage_errors():
    rc, _, err = workloads.run_cli(["fit", "--no-such-flag"])
    assert rc == 2 and "error:" in err
    rc, _, err = workloads.run_cli(["report", "--model", "no-such-file", "--out", "x"])
    assert rc == 2 and err.startswith("error:")


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
