#!/usr/bin/env python3
"""Record perfbench/reference.json from the current sources.

    PYTHONPATH=src python3 perfbench/record_reference.py [workload ...]

Runs every workload (or the ones named) at both sizes on the reference seed
and stores its verdicts and numbers. The sigma_min cells are stored as dense
SVD values, so that the benchmark checks every path of the kernel against
the dense oracle. Record only from a commit whose outputs are known good.
"""

from __future__ import annotations

import json
import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from kolmoflow import pseudospectra as ps  # noqa: E402
from kolmoflow import waveop as wv  # noqa: E402

REFERENCE_SEED = 0


def record(name: str, smoke: bool) -> dict:
    make_inputs, run = wl.WORKLOADS[name]
    wv._OPERATOR_CACHE.clear()
    job = wl.Job()
    run(job, make_inputs(np.random.default_rng(REFERENCE_SEED), smoke))
    errors = [k for k, o in job.obs.items() if o["kind"] == "error"]
    if errors:
        raise SystemExit(f"{name}: stages failed: {errors}")
    ref = wl.reference_of(job.obs)
    if name == "resolvent_sweep":
        for nu, alpha, n, lam, method in wl.resolvent_cells(smoke):
            op = wl.cell_operator(nu, alpha, n, lam)
            ref["fixed"][wl.cell_name(nu, alpha, n, lam, method)] = float(
                ps.smallest_singular_value(op, method="dense"))
    return ref


def main(names: list[str]) -> int:
    try:
        reference = wl.load_reference()
    except FileNotFoundError:
        reference = {"seed": REFERENCE_SEED, "workloads": {}}
    if reference["seed"] != REFERENCE_SEED:
        raise SystemExit("reference seed changed; re-record every workload")
    for name in names or wl.WORKLOADS:
        reference["workloads"][name] = {size: record(name, size == "smoke")
                                        for size in ("smoke", "full")}
        print(f"recorded {name}", flush=True)
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
