"""End-to-end acceptance criteria.

One test per criterion; each prints its own pass/fail line (run pytest with
-s or check the summary). The heavy sweeps make this module the slow part
of the suite; everything is still plain pytest and runs in one process.

BOUNDS pins every sub-check of every criterion: its name, its comparison
and its bound, so a loosened or dropped check fails here. A bound computed
from the run is given as a function of the criterion's `details`. A check
whose rule lives in another layer names that function as its op and has no
bound; it carries the layer's verdict.
"""

import math
import operator
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from kolmoflow import acceptance as acc

OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
       "==": operator.eq, "finite": lambda value, _: math.isfinite(value)}

SEMIGROUP = "evolution.semigroup_norm_curve"

BOUNDS = {
    1: [(f"{kind} {name}", op, bound) for kind in ("Nlambda", "Llambda", "Lu-form")
        for name, op, bound in (("least ratio", ">", 0), ("decade ratio", "<=", 3.0))],
    2: [(f"{which} {name}", op, bound) for which in ("H", "L", "Q1L")
        for name, op, bound in (("c_hat", ">", 0), ("worst quadrupling drift", "<=", 2.0))],
    3: [("ModeH semigroup margin", SEMIGROUP, None),
        ("ModeL(star) semigroup margin", SEMIGROUP, None),
        ("Q1ModeL(star) semigroup margin", SEMIGROUP, None)],
    4: [("f rate gamma=0.1", ">=", 0.02),
        ("f rate gamma=0.4", ">=", 0.02),
        ("f rate surplus |r/2 - 1|", "<=", 0.25),
        ("g envelope, trials 11-20", "<=", lambda d: 1.5 * d["g_envelope_C"])],
    5: [("L4 conservation drift", "<=", 1e-8),
        ("dissp residual ratio, dt 0.008/0.004", ">=", 10.0),
        ("dissp residual ratio, dt 0.004/0.002", ">=", 10.0),
        ("velocity recovery residual", "<=", 1e-12),
        ("lift-up profile residual", "<=", 1e-12),
        ("mean momentum drift", "<=", lambda d: 1e-10 * d["dns_t"])],
    6: [("UpB2 stability", "<=", 3.0),
        ("UpB1 stability", "<=", 3.0),
        ("least LowerB ratio", ">", 0),
        ("LowerB stability", "<=", 3.0),
        ("P1 loss stability", "<=", 3.0),
        *((f"Q1 rate nu={nu} gamma={gamma}", ">=", nu)
          for nu in (0.01, 0.003) for gamma in (0.1, 0.3)),
        ("Q1 surplus |r/2 - 1|", "<=", 0.25)],
    7: [("intertwining", "waveop.intertwining_residual", None),
        ("worst bound stability", "waveop.bound_sweep", None),
        ("good-unknown residual n=256", "<=", 1e-2),
        ("good-unknown residual n=256 vs n=128", "<",
         lambda d: d["good_unknown_residuals"][128]),
        ("g1 pure-exponential fit residual", "<=",
         lambda d: d["g1_fit_prefactor_residual"])],
    8: [("homogeneous rate gamma=0.1, |forced/evolve - 1|", "<=", 0.05),
        ("homogeneous X norm gamma=0.1", "finite", None),
        ("homogeneous rate gamma=0.4, |forced/evolve - 1|", "<=", 0.05),
        ("homogeneous X norm gamma=0.4", "finite", None),
        ("C fit stability max(r, 1/r)", "<=", 3.0)],
    9: [("32^3 seed-1 outcome", "==", "decayed"),
        ("32^3 seed-1 decay rate", ">=", lambda d: d["c_prime"] * np.sqrt(0.05)),
        ("32^3 seed-1 M0/V0", "<=", 50.0),
        ("32^3 seed-1 M0", "finite", None),
        ("16^3 seed-2 outcome", "==", "decayed"),
        ("eps* monotone in nu", "dns.ThresholdMap.monotone_in_nu", None)],
}


def _run(number):
    rec = acc.ALL_CRITERIA[number - 1]()
    print(f"\n[{'PASS' if rec['passed'] else 'FAIL'}] {rec['name']}")
    checks = rec["details"]["checks"]
    assert [(c["name"], c["op"]) for c in checks] == \
        [(name, op) for name, op, _ in BOUNDS[number]]
    for c, (_, _, bound) in zip(checks, BOUNDS[number]):
        assert set(c) == {"name", "value", "op", "bound", "passed"}
        assert c["bound"] == (bound(rec["details"]) if callable(bound) else bound), c
        if c["op"] in OPS:
            assert c["passed"] == bool(OPS[c["op"]](c["value"], c["bound"])), c
    assert rec["passed"] == all(c["passed"] for c in checks)
    assert rec["passed"], [c for c in checks if not c["passed"]]
    return rec


def test_criterion_1_resolvent_lower_bounds():
    _run(1)


def test_criterion_2_psi_scaling():
    _run(2)


def test_criterion_3_gearhart_pruss():
    _run(3)


def test_criterion_4_channel_structure():
    _run(4)


def test_criterion_5_exact_identities():
    _run(5)


def test_criterion_6_alpha1_bounds():
    _run(6)


def test_criterion_7_wave_operator():
    rec = _run(7)
    # bound_sweep owns its rule; the criterion claims every stability <= 3
    assert all(v <= 3.0 for v in rec["details"]["bound_stability"].values())
    # the intertwining check carries its largest finest-level residual
    inter = next(c for c in rec["details"]["checks"] if c["name"] == "intertwining")
    assert 0.0 < inter["value"] <= 1e-3


def test_criterion_8_forced_decay():
    _run(8)


def test_criterion_9_dns_threshold():
    rec = _run(9)
    eps_stars = list(rec["details"]["eps_star"].values())
    assert all(b >= a for a, b in zip(eps_stars, eps_stars[1:]))


def test_a_zero_divisor_fails_its_check_without_raising(monkeypatch):
    def suite(nu, gamma, **_):
        return {"nu": nu, "gamma": gamma, "upb2_ratio_max": 1.0, "upb1_ratio_max": 1.0,
                "lowerb_ratio": 0.0, "p1_c_hat": 1.0, "q1_rate": 1.0,
                "q1_rate_surplus": 0.0}
    monkeypatch.setattr(acc.ev, "alpha1_suite", suite)
    rec = acc.criterion_alpha1_bounds()
    failed = [c["name"] for c in rec["details"]["checks"] if not c["passed"]]
    assert failed == ["least LowerB ratio", "LowerB stability", "Q1 surplus |r/2 - 1|"]
    assert not rec["passed"]


def test_a_nan_ratio_fails_criterion_1(monkeypatch):
    # one nan sweep point, not the first, makes C_hat and its decade ratio nan
    calls = []
    inner = acc.ps.smallest_singular_value

    def sigma(op, *args, **kwargs):
        calls.append(op)
        return np.nan if len(calls) == 3 else inner(op, *args, **kwargs)

    monkeypatch.setattr(acc.ps, "smallest_singular_value", sigma)
    c_hat, _ = acc.ps.resolvent_bound_sweep("Nlambda", [1e-2], [10.0, 100.0], [0.0, 0.5])
    assert len(calls) == 4
    assert np.isnan(c_hat.value) and np.isnan(c_hat.decade_ratio)
    checks = acc.resolvent_checks("Nlambda", c_hat)
    assert [c["passed"] for c in checks] == [False, False]


# A nan in a sup, least value or spread that a check reads fails that check,
# wherever in the list it comes; the builtin max and min would drop it.

def _failed(rec) -> list[str]:
    return [c["name"] for c in rec["details"]["checks"] if not c["passed"]]


def test_a_nan_ratio_is_criterion_2s_worst_drift(monkeypatch):
    def sweep(params, which, scan_count):   # the second mode's gamma = 0.4 ratio is nan
        rows = [{"nu": 0.01, "k_f": 1.0, "k1": k1, "k3": 0, "gamma": g,
                 "ratio": np.nan if (k1, g) == (2, 0.4) else 1.0}
                for k1 in (1, 2) for g in (0.1, 0.4)]
        return SimpleNamespace(value=1.0), rows

    monkeypatch.setattr(acc.ps, "psi_bound_sweep", sweep)
    rec = acc.criterion_psi_scaling()
    drifts = [c for c in rec["details"]["checks"] if "drift" in c["name"]]
    assert len(drifts) == 3
    assert all(np.isnan(c["value"]) for c in drifts)
    assert _failed(rec) == [c["name"] for c in drifts]


@pytest.mark.parametrize("where", ["third trial's g norms", "g-channel rate"])
def test_a_nan_fails_criterion_4s_envelope(monkeypatch, where):
    gammas = []

    def evolve(p, f0, g0, t_end, dt, grid):
        gammas.append(p.gamma)
        times = np.linspace(0.0, t_end, 50)
        norm_g = np.exp(-times)
        if where == "third trial's g norms" and gammas.count(0.4) == 4:
            norm_g = np.full_like(times, np.nan)   # after the autonomous run
        return SimpleNamespace(times=times, norm_f=np.exp(-times), norm_g=norm_g)

    def fit(traj, channel, **_):
        return SimpleNamespace(rate=np.nan if (where, channel) == ("g-channel rate", "g")
                               else 1.0)

    monkeypatch.setattr(acc.ev, "evolve_coupled", evolve)
    monkeypatch.setattr(acc.ev, "fit_decay_rate", fit)
    rec = acc.criterion_channel_structure()
    assert np.isnan(rec["details"]["g_envelope_C"])
    assert "g envelope, trials 11-20" in _failed(rec)


def test_a_nan_dns_frame_fails_criterion_5(monkeypatch):
    residuals = iter([1e-4, 1e-6, 1e-8])
    frame = {"a1": 0.0, "a2": 0.0, "a3": 0.0, "recovery_residual": 0.0,
             "liftup_residual": 0.0}
    last = {**frame, "a3": np.nan, "recovery_residual": np.nan, "liftup_residual": np.nan}
    run = {"tracker": SimpleNamespace(frames=[SimpleNamespace(**frame),
                                              SimpleNamespace(**last)]),
           "final_state": SimpleNamespace(t=4.0)}
    monkeypatch.setattr(acc.ev, "alpha1_suite", lambda **_: {"conservation_drift": 0.0})
    monkeypatch.setattr(acc.ev, "evolve_coupled", lambda *args, **kwargs: None)
    monkeypatch.setattr(acc.ev, "energy_identity_residual",
                        lambda traj: {"max_rel_residual": next(residuals)})
    monkeypatch.setattr(acc.dns, "run_simulation", lambda cfg, **_: run)
    rec = acc.criterion_exact_identities()
    assert _failed(rec) == ["velocity recovery residual", "lift-up profile residual",
                            "mean momentum drift"]


def test_a_nan_ratio_fails_criterion_6s_stability(monkeypatch):
    upb2 = iter([1.0, np.nan, 1.0, 1.0])   # the second of the four main suites

    def suite(nu, gamma, n_random, **_):
        return {"nu": nu, "gamma": gamma,
                "upb2_ratio_max": next(upb2) if n_random == 20 else 1.0,
                "upb1_ratio_max": 1.0, "lowerb_ratio": 1.0, "p1_c_hat": 1.0,
                "q1_rate": 1.0, "q1_rate_surplus": np.sqrt(gamma)}

    monkeypatch.setattr(acc.ev, "alpha1_suite", suite)
    rec = acc.criterion_alpha1_bounds()
    assert _failed(rec) == ["UpB2 stability"]


def test_a_nan_stability_is_criterion_7s_worst(monkeypatch):
    monkeypatch.setattr(acc.wv, "intertwining_residual",
                        lambda *args, **kwargs: {"worst": 1e-5, "passed": True})
    monkeypatch.setattr(acc.wv, "bound_sweep", lambda *args, **kwargs: {
        "stability": {"D1.1": 1.0, "D1.2": np.nan}, "passed": False})
    monkeypatch.setattr(acc.wv, "get_wave_operator", lambda *args: None)
    monkeypatch.setattr(acc.wv, "good_unknown_check", lambda p, f0, g0, n, **_: {
        "residual": 1e-3 / n, "g1_fit_pure_residual": 0.0, "g1_fit_prefactor_residual": 1.0})
    rec = acc.criterion_wave_operator()
    stability = next(c for c in rec["details"]["checks"]
                     if c["name"] == "worst bound stability")
    assert np.isnan(stability["value"])
    assert _failed(rec) == ["worst bound stability"]


def _criterion_4_details(blas_threads: int) -> bytes:
    """Criterion 4's `details` bytes, run in a fresh process with the given
    OpenBLAS thread count."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(blas_threads),
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = ("import sys\n"
            "from kolmoflow import acceptance, cli\n"
            "rec = acceptance.criterion_channel_structure()\n"
            "sys.stdout.buffer.write(cli.payload_bytes(rec['details']))\n")
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, timeout=300).stdout


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs 2 CPUs in the affinity mask")
def test_criterion_4_details_do_not_depend_on_blas_threads():
    assert _criterion_4_details(1) == _criterion_4_details(2)
