"""logitcp benchmark runner.

    python3 perfbench/run.py --workload fit_large --seed 1 --seconds 55 --trace 0

Builds the workload's inputs from the seed, then repeats rounds of it while
the next round is expected to end within `--seconds`, timing a fixed speed
probe before the first round and after each one. With `--trace 0` it
reports the end-to-end metrics of the untraced rounds: set-up time and
median round time, both scaled to the reference host speed by the probes,
and peak memory. With `--trace 1` it alternates untraced and traced rounds
and reports per-layer metrics from the traced ones, plus the tracing
overhead. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it print
every figure by name with its unit, and the machine record.

The package is imported from ../src, relative to this file; without it the
runner exits with code 2.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 3
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


def _pin_threads():
    # one BLAS thread keeps timings steady on a small shared machine, and the
    # package's own worker threads stay at their default of 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("LOGITCP_THREADS", None)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _print_metric(name, value, unit):
    print(f"metric {name} = {value:.6g} {unit}")


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "logitcp", "__init__.py")):
        print(f"error: package source not found at {SRC}/logitcp", file=sys.stderr)
        return 2
    _pin_threads()
    sys.path.insert(0, SRC)
    t = time.perf_counter()
    import workloads  # imports the package, numpy and scipy

    import_s = time.perf_counter() - t

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _run(args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, import_s, workdir):
    import layers
    import machine
    import tracer
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        inputs = wl.setup()
        setup_times.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setup_times)

    ledger = workloads.Ledger()
    plain, traced, stages = [], [], []
    trc = tracer.Tracer(probes=layers.PROBES)
    # rounds repeat while the next one is expected to end within --seconds;
    # a traced run alternates an untraced and a traced round
    probe = machine.SpeedProbe()
    probes = [probe()]
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        stages.append(wl.run_round(inputs, ledger))
        plain.append(time.perf_counter() - t)
        if args.trace:
            with trc:
                t = time.perf_counter()
                wl.run_round(inputs, ledger)
                traced.append(time.perf_counter() - t)
        probes.append(probe())
        now = time.perf_counter()
        step = plain[-1] + (traced[-1] if traced else 0.0)
        if now + step > start + args.seconds:
            break

    mach = machine.record(ROOT)
    print("machine " + json.dumps(mach, sort_keys=True))
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(plain), "traced_rounds": len(traced),
        "round_s": plain, "import_s": import_s, "setup_runs_s": setup_times,
        "failures": ledger.failures[:20], "probe_s": probes,
    }
    # the run's host speed relative to the reference, from the probes
    host_scale = machine.PROBE_REF_S / statistics.median(probes)

    if args.trace:
        extra = {"trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1,
                 "machine.copy_gbps": mach["copy_gbps_8mb"]}
        extra.update(wl.diagnostics(inputs))
        selfs = trc.self_times()
        metrics = layers.layer_metrics(trc.spans, selfs, len(traced), extra)
        trc.write_csv(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv"))
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        metrics = {
            "setup_s": setup_s * host_scale,
            "wall_s": statistics.median(plain) * host_scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        # unscaled and per-operation figures of the untraced rounds, by name
        _print_metric("host_scale", host_scale, "ratio")
        _print_metric("setup_raw_s", setup_s, "s")
        _print_metric("wall_raw_s", statistics.median(plain), "s")
        for key in stages[0]:
            _print_metric(key, statistics.median(st[key] for st in stages), "s")
        for key, (value, unit) in wl.evaluate(inputs).items():
            _print_metric(key, value, unit)
        _print_metric("error_rate", ledger.error_rate, "frac")
        _print_metric("decomp.nonconverged", ledger.nonconverged / len(plain), "count")

    for name, value in metrics.items():
        _print_metric(name, value, units[name])
    print("detail " + json.dumps(detail))
    for name, errors in ledger.failures[:5]:
        print(f"failed op {name}: {'; '.join(errors)}", file=sys.stderr)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
