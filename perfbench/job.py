"""One benchmark process: set up, run one workload's job once, report.

run.py starts this script in a fresh interpreter with BLAS and OpenMP
pinned to one thread, and reads the one JSON line it prints. The moment of
the first timed call (`t_ready`) is read from CLOCK_MONOTONIC, which the
parent shares, so the parent can time set-up from before the spawn.

    python3 perfbench/job.py --workload NAME --seed N [--size smoke] [--trace]
    python3 perfbench/job.py ... --setup-only
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def environment() -> dict:
    """Machine, thread settings and library versions of this process."""
    import numpy
    import scipy

    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(f"{base}/{index}/level")
        kind = _read(f"{base}/{index}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{base}/{index}/size")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import numpy as np

    import workloads as wl

    make_inputs, run = wl.WORKLOADS[args.workload]
    inputs = make_inputs(np.random.default_rng(args.seed), args.size == "smoke")
    reference = wl.load_reference()
    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    t_ready = clock()
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready}))
        return 0

    job = wl.Job()
    run(job, inputs)
    ref = reference["workloads"].get(args.workload, {}).get(args.size)
    checks, max_rel_err = wl.check(job.obs, ref, args.seed == reference["seed"])
    wall_s = clock() - t_ready

    print(json.dumps({
        "t_ready": t_ready,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": checks,
        "layers": tracer.metrics(wall_s, max_rel_err) if tracer else None,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
