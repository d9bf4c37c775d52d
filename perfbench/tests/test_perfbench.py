"""Tests of the benchmark itself, at smoke size. They never gate on timings.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 4 + 22 * len(SPEC["workloads"]) <= 3420 / (SPEC["run_seconds"] + 3)
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in SPEC["workloads"]]
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert unit_re.match(m["unit"]) and m["better"] in ("higher", "lower")
    assert all(name_re.match(n) for n in names) and len(set(names)) == len(names)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_run_reports_end_to_end_metrics(workload):
    res = _result(_run("--workload", workload, "--seed", "0", "--seconds", "1",
                       "--trace", "0", "--size", "smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_job_reaches_the_same_checks(workload):
    def job(*extra):
        proc = subprocess.run([sys.executable, "perfbench/job.py", "--workload", workload,
                               "--seed", "3", "--size", "smoke", *extra], cwd=ROOT,
                              env=_env(), capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    plain, traced = job(), job("--trace")
    assert plain["checks"] and plain["checks"] == traced["checks"]
    assert all(ok for _, ok in plain["checks"])
    want = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_s"}
    assert set(traced["layers"]) == want


def test_traced_run_reports_per_layer_metrics():
    res = _result(_run("--workload", "dns", "--seed", "1", "--seconds", "1",
                       "--trace", "1", "--size", "smoke"))
    assert res["correct"]
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["dns.step.calls"] > 0 and m["dns.early_exits"] >= 1
    assert m["pseudospectra.psi.calls"] == 1 and m["waveop.build.calls"] == 0


def test_checks_catch_wrong_outputs():
    ref = {"verdict": {"v": True}, "fixed": {"x": 2.0, "cell": 4.0}, "seeded": {"s": 1.0}}

    def run(**changes):
        job = wl.Job()
        job.verdict("v", changes.get("v", True))
        job.fixed("x", changes.get("x", 2.0))
        job.fixed("cell", changes.get("cell", 4.0), rtol=wl.SIGMA_REL_TOL, cell=True)
        job.seeded("s", changes.get("s", 1.0))
        job.identity("i", changes.get("i", 1e-14), 1e-12)
        return wl.check(job.obs, ref, reference_seed=changes.get("at_ref", True))

    checks, err = run()
    assert all(ok for _, ok in checks) and len(checks) == 5 and err == 0.0
    assert not dict(run(v=False)[0])["v"]
    assert not dict(run(x=2.0 * (1 + 1e-5))[0])["x"]
    assert not dict(run(i=1e-11)[0])["i"]
    assert not dict(run(s=1.1)[0])["s"]
    assert "s" not in dict(run(s=1.1, at_ref=False)[0])
    checks, err = run(cell=4.0 * (1 + 3e-9))
    assert dict(checks)["cell"] and err == pytest.approx(3e-9, rel=1e-3)

    job = wl.Job()
    job.stage("boom", lambda j: 1 / 0)
    checks = dict(wl.check(job.obs, ref, reference_seed=True)[0])
    assert checks["boom.error"] is False and checks["x.missing"] is False


def test_fixed_cells_report_the_banded_accuracy_gap():
    """The banded probe cell is known to sit about 1e-9 off dense SVD."""
    ref = wl.load_reference()["workloads"]["resolvent_sweep"]["smoke"]
    job = wl.Job()
    nu, alpha, n, lam, method = wl.resolvent_cells(True)[-1]
    wl._cell(job, nu, alpha, n, lam, method)
    _, err = wl.check(job.obs, ref, reference_seed=True)
    assert 1e-11 < err < wl.SIGMA_REL_TOL


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "dns", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
