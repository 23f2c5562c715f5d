"""Machine record attached to every benchmark result."""

import os
import platform
import time

import numpy as np
import scipy


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_version():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name', 'blas')} {deps.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def _git_commit(root):
    """Commit of a git checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# Median SpeedProbe time on the 2-vCPU Xeon VM where the bounds were set.
# Timings scaled by PROBE_REF_S / (this run's median probe) read as seconds
# at that reference host speed.
PROBE_REF_S = 0.2


class SpeedProbe:
    """A fixed numpy and pure-Python workload, timed between rounds.

    It never calls the package, so its time follows only the host's speed:
    memory-bound elementwise passes over 8 MB, small-array numpy calls
    whose cost is per-call overhead, and an interpreter loop. On a shared
    VM the host's speed drifts by 30-40% over minutes, which moves a whole
    run; the probe moves with it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.big = rng.standard_normal(1_000_000)
        self.out = np.empty_like(self.big)
        self.small = rng.random((200, 10, 10))
        self.vec = np.ones(10)

    def __call__(self):
        t = time.perf_counter()
        for _ in range(4):
            np.logaddexp(0.0, self.big, out=self.out)
        for _ in range(300):
            np.einsum("ijk,j,k->i", self.small, self.vec, self.vec, optimize=True)
        acc = 0
        for i in range(100_000):
            acc += i
        return time.perf_counter() - t


def copy_gbps(nbytes=8_000_000, repeats=7):
    """Best in-process copy bandwidth for one array of `nbytes`, counting
    the bytes read and the bytes written."""
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    best = float("inf")
    for _ in range(repeats):
        t = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t)
    return 2 * src.nbytes / best / 1e9


def record(root):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_version(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "logitcp_threads": os.environ.get("LOGITCP_THREADS", "1 (default)"),
        "git_commit": _git_commit(root),
        "copy_gbps_8mb": copy_gbps(),
    }
