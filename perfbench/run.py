#!/usr/bin/env python3
"""kolmoflow benchmark: time to verdict on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|smoke]

Run from the root of a checkout. Every repetition of the workload's fixed
job is a fresh Python process (perfbench/job.py) with BLAS and OpenMP pinned
to one thread; repetitions follow one another (a closed loop with one
caller) until the next would end after --seconds, and there is always at
least one. Processes that only set up bring the set-up samples to at least
MIN_SETUP_SAMPLES; the time they take counts against --seconds.

--trace 0 reports the end-to-end metrics: medians of wall_s (first call into
the package to the last output check), setup_s (process start to the first
timed call) and peak_rss_mb. --trace 1 alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones, with
trace.overhead_s = traced minus untraced wall_s. Every output check counts
in `attempted`/`failed`; failed_share = failed / attempted.

The last line of standard output is the JSON result; the lines before it
print the metrics by name with their units, and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "kolmoflow"
WORKLOADS = ("resolvent_sweep", "psi_linear", "dns", "waveop")
MIN_SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0        # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS_FILE = ROOT / "BENCHMARK.json"


class HarnessError(RuntimeError):
    """The benchmark could not run the program at all."""


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args, extra: list[str], timeout: float) -> dict:
    """Run job.py once; returns its record with setup_s added."""
    cmd = [sys.executable, str(HERE / "job.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size] + extra
    t_spawn = clock()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"job process exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"job process failed (exit {proc.returncode}):\n"
                           + proc.stderr[-4000:])
    rec = json.loads(lines[-1])
    rec["setup_s"] = rec["t_ready"] - t_spawn
    rec["process_s"] = clock() - t_spawn
    return rec


def measure(args) -> tuple[list[dict], list[float]]:
    """Repetitions of the job within --seconds, plus set-up-only processes."""
    start = clock()
    reps: list[dict] = []
    while True:
        traced = args.trace == 1 and len(reps) % 2 == 1
        left = RUN_LIMIT_S - (clock() - start)
        reps.append(spawn(args, ["--trace"] if traced else [], timeout=left))
        reps[-1]["traced"] = traced
        elapsed = clock() - start
        longest = max(r["process_s"] for r in reps)
        setups = [r["setup_s"] for r in reps if not r["traced"]]
        # time the set-up-only processes will take if no repetition follows
        reserve = max(MIN_SETUP_SAMPLES - len(setups) - 1, 0) * max(setups, default=1.0)
        need_traced = args.trace == 1 and len(reps) < 2
        if not need_traced and elapsed + longest + reserve > args.seconds:
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        left = RUN_LIMIT_S - (clock() - start)
        setups.append(spawn(args, ["--setup-only"], timeout=left)["setup_s"])
    return reps, setups


def per_layer_units() -> dict[str, str]:
    with open(PER_LAYER_UNITS_FILE) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"kolmoflow sources not found under {PACKAGE.relative_to(ROOT)}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        reps, setups = measure(args)
    except HarnessError as exc:
        print(f"benchmark harness error: {exc}", file=sys.stderr)
        return 3

    checks = [ok for r in reps for _, ok in r["checks"]]
    attempted, failed = len(checks), checks.count(False)
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    if traced:
        # a traced job must reach exactly the check results of an untraced one
        same = all(t["checks"] == plain[0]["checks"] for t in traced)
        attempted += 1
        failed += 0 if same else 1
        wall_plain = statistics.median(r["wall_s"] for r in plain)
        wall_traced = statistics.median(r["wall_s"] for r in traced)
        layers = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = wall_traced - wall_plain
        units = per_layer_units()
        metrics = {k: {"value": layers[k], "unit": u} for k, u in units.items()}
    else:
        values = {"wall_s": statistics.median(r["wall_s"] for r in plain),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    print(f"env {json.dumps(reps[0]['env'], sort_keys=True)}")
    print(f"workload {args.workload}  size {args.size}  seed {args.seed}  "
          f"repetitions {len(plain)} untraced, {len(traced)} traced  "
          f"setup samples {len(setups)}")
    print("wall_s samples " + " ".join(f"{r['wall_s']:.4f}" for r in plain)
          + "  setup_s samples " + " ".join(f"{s:.4f}" for s in setups))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_share':40s} {failed / attempted:.6g} ratio  ({failed} of {attempted} checks)")
    for name in sorted({name for r in reps for name, ok in r["checks"] if not ok}):
        print(f"FAILED CHECK {name}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
