"""The benchmark's four workloads and the checks on their outputs.

Each workload is a fixed job run through kolmoflow's public functions. Its
inputs are made from the workload seed before the first timed call; the
package receives only those inputs. A job records observations of four kinds:

  verdict   a pass/fail verdict, label or count; must equal the reference
  fixed     a number that does not depend on the seed; must match the
            reference within its relative tolerance on every seed
  seeded    a number that depends on the seed; matched against the
            reference only on the seed the reference was recorded with
  identity  an exact discrete identity; must stay at or below its limit

An exception inside a stage is recorded as a failed check for that stage.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from kolmoflow import dns
from kolmoflow import evolution as ev
from kolmoflow import pseudospectra as ps
from kolmoflow import waveop as wv
from kolmoflow.spectral import (
    ModeParams,
    StarMetric,
    assemble_mode_operators,
    assemble_N_lambda,
    build_grid,
)

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REL_TOL = 1e-6            # recorded numbers, same algorithm and inputs
SIGMA_REL_TOL = 1e-8      # sigma_min cells against dense SVD

# The fixed sigma_min cells: N_lambda at nu=1e-3, alpha=100 over
# n x lambda, with shifts inside ([-1, 1]) and outside the numerical range.
CELL_NU, CELL_ALPHA, CELL_LAMS = 1e-3, 100.0, (0.0, 0.75, 1.5)
# Banded path at a cell where inverse iteration stops early (about 1e-9 off
# dense SVD); `auto` would take dense SVD there and hide it.
PROBE_CELL = (1e-2, 10.0, 256, 0.75)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


class Job:
    """Observations of one workload run."""

    def __init__(self):
        self.obs: dict[str, dict] = {}

    def verdict(self, name: str, value) -> None:
        if isinstance(value, (bool, np.bool_)):
            value = bool(value)
        elif isinstance(value, (int, np.integer)):
            value = int(value)
        self.obs[name] = {"kind": "verdict", "value": value}

    def fixed(self, name: str, value: float, rtol: float = REL_TOL,
              cell: bool = False) -> None:
        self.obs[name] = {"kind": "fixed", "value": float(value), "rtol": rtol, "cell": cell}

    def seeded(self, name: str, value: float, rtol: float = REL_TOL) -> None:
        self.obs[name] = {"kind": "seeded", "value": float(value), "rtol": rtol}

    def identity(self, name: str, value: float, limit: float) -> None:
        self.obs[name] = {"kind": "identity", "value": float(value), "limit": limit}

    def stage(self, name: str, fn, *args) -> None:
        try:
            fn(self, *args)
        except Exception as exc:  # a failed stage is a failed check, not a crash
            self.obs[f"{name}.error"] = {"kind": "error", "value": repr(exc)}


def _close(value: float, ref: float, rtol: float) -> bool:
    if not (math.isfinite(value) and math.isfinite(ref)):
        return False
    return abs(value - ref) <= rtol * max(abs(ref), 1e-300)


def check(obs: dict, ref: dict | None, reference_seed: bool) -> tuple[list, float]:
    """Check observations against the reference of this workload and size.

    Returns ([(name, ok), ...] in name order, max relative error of the
    sigma_min cells against their dense-SVD reference values).
    """
    ref = ref or {"verdict": {}, "fixed": {}, "seeded": {}}
    results = {}
    max_rel_err = 0.0
    for name, o in obs.items():
        kind, value = o["kind"], o["value"]
        if kind == "error":
            results[name] = False
        elif kind == "identity":
            results[name] = math.isfinite(value) and value <= o["limit"]
        elif kind == "verdict":
            results[name] = name in ref["verdict"] and ref["verdict"][name] == value
        elif kind == "fixed":
            r = ref["fixed"].get(name)
            results[name] = r is not None and _close(value, r, o["rtol"])
            if o.get("cell") and r is not None:
                max_rel_err = max(max_rel_err, abs(value - r) / abs(r))
        elif kind == "seeded" and reference_seed:
            r = ref["seeded"].get(name)
            results[name] = r is not None and _close(value, r, o["rtol"])
    expected = list(ref["verdict"]) + list(ref["fixed"])
    if reference_seed:
        expected += list(ref["seeded"])
    for name in expected:
        if name not in obs:
            results[f"{name}.missing"] = False
    return sorted(results.items()), max_rel_err


def reference_of(obs: dict) -> dict:
    """The reference record these observations define (identities and
    errors are not recorded: identities carry their own limits)."""
    out = {"verdict": {}, "fixed": {}, "seeded": {}}
    for name, o in sorted(obs.items()):
        if o["kind"] in out:
            out[o["kind"]][name] = o["value"]
    return out


def random_coeffs(rng: np.random.Generator, n: int, band: int | None = None,
                  mean_zero: bool = False) -> np.ndarray:
    """Unit-norm complex Gaussian coefficients in monotone order, zero above
    |k| = band (default n/2 - 2, which keeps sin/cos products in the basis)."""
    k = np.arange(-n // 2, n // 2)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c[np.abs(k) > (n // 2 - 2 if band is None else band)] = 0.0
    if mean_zero:
        c[k == 0] = 0.0
    return c / (np.sqrt(2.0 * np.pi) * np.linalg.norm(c))


def _seed_int(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _fmt(x: float) -> str:
    return f"{x:g}"


# ---------------------------------------------------------------------------
# resolvent_sweep: the sigma_min kernel across its paths
# ---------------------------------------------------------------------------

def cell_operator(nu: float, alpha: float, n: int, lam: float):
    params = ModeParams(nu=nu, gamma=max(abs(alpha), 1.0), k_f=1.0, k1=1, k3=0)
    return assemble_N_lambda(params, lam, build_grid(n, params, alpha=alpha), alpha=alpha)


def cell_name(nu: float, alpha: float, n: int, lam: float, method: str) -> str:
    return f"sigma_min.N.nu{_fmt(nu)}.a{_fmt(alpha)}.n{n}.lam{_fmt(lam)}.{method}"


def resolvent_cells(smoke: bool) -> list[tuple]:
    ns = (256, 512) if smoke else (256, 512, 1024, 2048)
    cells = [(CELL_NU, CELL_ALPHA, n, lam, "auto") for n in ns for lam in CELL_LAMS]
    return cells + [PROBE_CELL + ("banded",)]


def resolvent_inputs(rng: np.random.Generator, smoke: bool) -> dict:
    grid = ({"nus": [1e-2], "alphas": [10.0, 100.0], "lams": [0.0, 0.75]} if smoke else
            {"nus": [1e-2], "alphas": [10.0, 100.0, 1000.0], "lams": [0.0, 0.75, 1.5]})
    tasks = [("cell",) + c for c in resolvent_cells(smoke)]
    tasks += [("sweep", kind) for kind in ("Nlambda", "Llambda", "Lu-form")]
    # the seed sets the order of the calls; the cells are fixed so that runs
    # on any seed compare like with like
    return {"tasks": [tasks[i] for i in rng.permutation(len(tasks))], "grid": grid}


def _cell(job: Job, nu, alpha, n, lam, method) -> None:
    sigma = ps.smallest_singular_value(cell_operator(nu, alpha, n, lam), method=method)
    job.fixed(cell_name(nu, alpha, n, lam, method), sigma, rtol=SIGMA_REL_TOL, cell=True)


def _sweep(job: Job, kind: str, grid: dict) -> None:
    c_hat, rows = ps.resolvent_bound_sweep(kind, grid["nus"], grid["alphas"], grid["lams"],
                                           betas=None if kind == "Nlambda" else [2.0])
    good = [r for r in rows if r.get("flag") == ""]
    job.fixed(f"sweep.{kind}.C_hat", c_hat.value)
    job.fixed(f"sweep.{kind}.decade_ratio", c_hat.decade_ratio)
    job.verdict(f"sweep.{kind}.points", len(good))
    job.verdict(f"sweep.{kind}.ok",
                all(r["ratio"] > 0 for r in good) and c_hat.decade_ratio <= 3.0)


def run_resolvent_sweep(job: Job, inputs: dict) -> None:
    for task in inputs["tasks"]:
        if task[0] == "cell":
            job.stage(cell_name(*task[1:]), _cell, *task[1:])
        else:
            job.stage(f"sweep.{task[1]}", _sweep, task[1], inputs["grid"])


# ---------------------------------------------------------------------------
# psi_linear: Psi scans at n <= 256 and the linear evolution suite
# ---------------------------------------------------------------------------

# criterion 6 draws every alpha=1 ensemble from this one seed; its P1-loss
# stability verdict does not hold on every ensemble, so the seed stays fixed
A1_SEED = 7
# criterion 8 drives both gammas with one fixed smooth forcing probe drawn
# from this seed: C_hat_fit is fitted for that probe, and over random probes
# its gamma ratio spreads past the stability limit, so the probe stays fixed
FORCED_PROBE_SEED = 5
PSI_SWEEPS = {  # criterion 2
    "H": ((1.0, 1, 0), (0.5, 1, 1), (1.0, 2, 0)),
    "L": ((0.5, 1, 1), (0.5, 2, 0)),
    "Q1L": ((1.0, 1, 0),),
}


def psi_linear_inputs(rng: np.random.Generator, smoke: bool) -> dict:
    size = ({"scan": 32, "gp_n": 64, "ch_n": 48, "ch_steps": 60, "trials": (1, 2),
             "a1_n": 48, "a1_random": 5, "a1_steps": 1000, "fd_n": 32, "fd_psi_n": 64,
             "fd_steps": 100} if smoke else
            {"scan": 64, "gp_n": 128, "ch_n": 96, "ch_steps": 240, "trials": (2, 8),
             "a1_n": 96, "a1_random": 10, "a1_steps": 1000, "fd_n": 64, "fd_psi_n": 128,
             "fd_steps": 600})
    sweeps = {w: (v[:1] if smoke else v) for w, v in PSI_SWEEPS.items()}
    n = size["ch_n"]
    channel = {}
    for gamma, trials in zip((0.1, 0.4), size["trials"]):
        channel[gamma] = {"g_hom": random_coeffs(rng, n),
                          "trials": [(random_coeffs(rng, n), random_coeffs(rng, n))
                                     for _ in range(trials)]}
    m = size["fd_n"]
    forced = {"profiles": forced_probes(m),
              "f0": {g: random_coeffs(rng, m) for g in (0.1, 0.4)}}
    return {"size": size, "sweeps": sweeps, "channel": channel, "forced": forced}


def forced_probes(n: int) -> dict:
    """Criterion 8's forcing profiles h1, h2, h3 (|k| <= 8), unit norm."""
    rng = np.random.default_rng(FORCED_PROBE_SEED)
    sel = np.abs(np.arange(-n // 2, n // 2)) <= 8
    out = {}
    for name in ("h1", "h2", "h3"):
        c = np.zeros(n, complex)
        c[sel] = rng.standard_normal(sel.sum()) + 1j * rng.standard_normal(sel.sum())
        out[name] = c / (np.sqrt(2.0 * np.pi) * np.linalg.norm(c))
    return out


def _psi_sweeps(job: Job, inputs: dict) -> None:
    for which, modes in inputs["sweeps"].items():
        params = [ModeParams(nu=0.01, gamma=g, k_f=kf, k1=k1, k3=k3)
                  for g in (0.1, 0.4) for kf, k1, k3 in modes]
        c_hat, rows = ps.psi_bound_sweep(params, which=which, scan_count=inputs["size"]["scan"])
        by_mode: dict = {}
        for r in rows:
            job.fixed(f"psi.{which}.g{r['gamma']}.kf{r['k_f']}.k{r['k1']}{r['k3']}", r["psi"])
            by_mode.setdefault((r["k_f"], r["k1"], r["k3"]), {})[r["gamma"]] = r["ratio"]
        worst = max(max(q, 1.0 / q) for q in
                    (d[0.4] / d[0.1] for d in by_mode.values()))
        job.fixed(f"psi.{which}.c_hat", c_hat.value)
        job.fixed(f"psi.{which}.worst_drift", worst)
        job.verdict(f"psi.{which}.ok", c_hat.value > 0 and worst <= 2.0)


def _gearhart_pruss(job: Job, inputs: dict) -> None:
    n, scan = inputs["size"]["gp_n"], inputs["size"]["scan"]
    cases = (("H", ModeParams(nu=0.01, gamma=0.4, k_f=1.0, k1=1, k3=0)),
             ("L", ModeParams(nu=0.01, gamma=0.4, k_f=0.5, k1=1, k3=1)),
             ("Q1L", ModeParams(nu=0.01, gamma=0.4, k_f=1.0, k1=1, k3=0)))
    for which, p in cases:
        psi = ps.psi_for_params(p, which, n=n, scan_count=scan)
        grid = build_grid(n, p, alpha=p.k1 * p.gamma / p.k_f**4)
        mode_l, mode_h = assemble_mode_operators(p, grid)
        if which == "H":
            op, metric = mode_h, None
        elif which == "L":
            op, metric = mode_l, StarMetric.for_beta(p.beta, grid)
        else:
            star = StarMetric.for_alpha1(grid)
            op = mode_l.restricted(grid.wavenumbers != 0)
            metric = StarMetric(weights=star.weights[star.keep])
        out = ev.semigroup_norm_curve(op, np.linspace(0.0, 20.0 / psi.psi, 41), psi,
                                      metric=metric)
        job.fixed(f"gp.{which}.psi", psi.psi)
        job.fixed(f"gp.{which}.margin", out["margin"])
        job.verdict(f"gp.{which}.verdict", out["verdict"])


def _channel(job: Job, inputs: dict) -> None:
    size = inputs["size"]
    fits = {}
    for gamma, ics in inputs["channel"].items():
        p = ModeParams(nu=0.01, gamma=gamma, k_f=0.5, k1=1, k3=1)
        grid = build_grid(size["ch_n"], p)
        t_end = 30.0 / np.sqrt(p.k1 * gamma)
        dt = t_end / size["ch_steps"]
        zero = np.zeros(grid.n, complex)
        traj_g = ev.evolve_coupled(p, zero, ics["g_hom"], t_end, dt, grid=grid)
        rate_g = ev.fit_decay_rate(traj_g, "g", t_min=2.0 / np.sqrt(gamma)).rate
        ratios = []
        for f0, g0 in ics["trials"]:
            traj = ev.evolve_coupled(p, f0, g0, t_end, dt, grid=grid)
            rate_f = ev.fit_decay_rate(traj, "f").rate
            a = min(rate_f, rate_g)
            env = np.exp(-a * traj.times) * (
                traj.norm_g[0] + (1 + a * traj.times) * traj.norm_f[0] / abs(p.k1))
            ratios.append(float(np.max(traj.norm_g / env)))
        fits[gamma] = (rate_f, rate_g, ratios, p.nu * (p.k1**2 + p.k3**2))
        job.seeded(f"channel.g{gamma}.a_fit", rate_f)
        job.seeded(f"channel.g{gamma}.rate_g", rate_g)
    a1, a4, floor = fits[0.1][0], fits[0.4][0], fits[0.4][3]
    surplus = (a4 - floor) / (a1 - floor)
    ratios = fits[0.4][2]
    half = len(ratios) // 2
    c_env = max(ratios[:half])
    job.seeded("channel.surplus_ratio", surplus)
    job.seeded("channel.envelope_C", c_env)
    job.verdict("channel.floor_ok", a1 >= floor and a4 >= floor)
    job.verdict("channel.scaling_ok", abs(surplus / 2.0 - 1.0) <= 0.25)
    job.verdict("channel.envelope_ok", all(r <= 1.5 * c_env for r in ratios[half:]))


def _alpha1(job: Job, inputs: dict) -> None:
    size = inputs["size"]
    rows = []
    for nu, beta in ((0.01, 0.1), (0.01, 0.3), (0.003, 0.1), (0.003, 0.3)):
        t_end = 5.0 / nu
        r = ev.alpha1_suite(nu=nu, gamma=beta, k1=1, n=size["a1_n"],
                            n_random=size["a1_random"], t_end=t_end,
                            dt=t_end / size["a1_steps"], seed=A1_SEED)
        job.identity(f"alpha1.nu{nu}.b{beta}.conservation_drift", r["conservation_drift"], 1e-8)
        rows.append(r)

    def stab(key):
        vals = [r[key] for r in rows]
        return max(vals) / min(vals)

    for key in ("upb2_ratio_max", "upb1_ratio_max", "lowerb_ratio", "p1_c_hat"):
        job.fixed(f"alpha1.{key}.stability", stab(key))
        job.verdict(f"alpha1.{key}.stable", stab(key) <= 3.0)
    job.verdict("alpha1.lowerb_positive", all(r["lowerb_ratio"] > 0 for r in rows))
    job.verdict("alpha1.rate_ok", all(r["q1_rate"] >= r["nu"] for r in rows))
    surplus = {}
    for gamma in (0.4, 0.1):
        r = ev.alpha1_suite(nu=0.01, gamma=gamma, k1=1, n=size["a1_n"], n_random=5,
                            t_end=300.0, dt=0.75, seed=A1_SEED)
        job.identity(f"alpha1.scaling.g{gamma}.conservation_drift", r["conservation_drift"],
                     1e-8)
        surplus[gamma] = r["q1_rate_surplus"]
    ratio = surplus[0.4] / surplus[0.1]
    job.fixed("alpha1.surplus_ratio", ratio)
    job.verdict("alpha1.scaling_ok", abs(ratio / 2.0 - 1.0) <= 0.25)


def _forced(job: Job, inputs: dict) -> None:
    size, forced = inputs["size"], inputs["forced"]
    fits = {}
    for gamma in (0.1, 0.4):
        p = ModeParams(nu=0.01, gamma=gamma, k_f=0.5, k1=1, k3=1)
        grid = build_grid(size["fd_n"], p)
        psi = ps.psi_for_params(p, "L", n=size["fd_psi_n"], scan_count=64)
        c_hat = psi.psi / np.sqrt(abs(p.k1 * gamma))
        c_prime = 0.5 * c_hat
        t_end = 30.0 / np.sqrt(p.k1 * gamma)
        dt = t_end / size["fd_steps"]
        spec = ev.ForcingSpec(kind="sustained", amplitude=1.0, c_weight=c_prime,
                              **forced["profiles"])
        out = ev.forced_decay(p, spec, t_end=t_end, dt=dt, c_hat=c_hat, grid=grid,
                              c_prime=c_prime)
        f0 = forced["f0"][gamma]
        hom = ev.forced_decay(p, ev.ForcingSpec(kind="zero"), t_end=t_end, dt=dt,
                              c_hat=c_hat, grid=grid, f0=f0, c_prime=c_prime)
        zeros = np.zeros_like(hom["times"])
        synth = ev.Trajectory(times=hom["times"], norm_f=hom["norms"], norm_g=hom["norms"],
                              norm_q1f=zeros, norm_p1f=zeros, norm_dyf=zeros,
                              params=p, grid=grid)
        traj = ev.evolve_coupled(p, f0, np.zeros_like(f0), t_end, dt, grid=grid)
        forced_rate = ev.fit_decay_rate(synth, "f").rate
        evolve_rate = ev.fit_decay_rate(traj, "f").rate
        fits[gamma] = out["c_hat_fit"]
        job.fixed(f"forced.g{gamma}.psi", psi.psi)
        job.fixed(f"forced.g{gamma}.c_hat_fit", out["c_hat_fit"])
        job.seeded(f"forced.g{gamma}.homogeneous_rate", forced_rate)
        job.verdict(f"forced.g{gamma}.homogeneous_ok",
                    abs(forced_rate / evolve_rate - 1.0) <= 0.05
                    and bool(np.isfinite(hom["x_norm_sq"])))
    ratio = fits[0.4] / fits[0.1]
    job.fixed("forced.stability_ratio", ratio)
    job.verdict("forced.stable", max(ratio, 1.0 / ratio) <= 3.0)


def run_psi_linear(job: Job, inputs: dict) -> None:
    job.stage("psi", _psi_sweeps, inputs)
    job.stage("gp", _gearhart_pruss, inputs)
    job.stage("channel", _channel, inputs)
    job.stage("alpha1", _alpha1, inputs)
    job.stage("forced", _forced, inputs)


# ---------------------------------------------------------------------------
# dns: 32^3 stepping over a fixed horizon, a 16^3 sweep with early exit
# ---------------------------------------------------------------------------

DNS_DT = 0.02


def dns_inputs(rng: np.random.Generator, smoke: bool) -> dict:
    return {
        "psi_n": 64 if smoke else 128,
        "psi_scan": 32 if smoke else 64,
        "segment_n": 16 if smoke else 32,
        "segment_steps": 10 if smoke else 40,
        "segment_seed": _seed_int(rng),
        "sweep_nus": [0.4] if smoke else [0.2, 0.4],
        "sweep_eps": [0.0, 1e-3],
        "sweep_seed": _seed_int(rng),
    }


def _dns_psi(job: Job, inputs: dict) -> None:
    p = ModeParams(nu=0.05, gamma=0.05, k_f=0.5, k1=1, k3=0)
    psi = ps.psi_for_params(p, "H", n=inputs["psi_n"], scan_count=inputs["psi_scan"])
    inputs["c_prime"] = 0.5 * psi.psi / np.sqrt(abs(p.k1 * p.gamma))
    job.fixed("dns.psi", psi.psi)


def _dns_segment(job: Job, inputs: dict) -> None:
    m, steps = inputs["segment_n"], inputs["segment_steps"]
    cfg = dns.DNSConfig(nu=0.05, gamma=0.05, k_f=0.5, n=(m, m, m), epsilon=1e-3,
                        seed=inputs["segment_seed"], c_prime=inputs["c_prime"],
                        dt=DNS_DT, t_end=steps * DNS_DT)
    out = dns.run_simulation(cfg, sample_every=10, early_exit=False)
    frames = out["tracker"].frames
    first, last = frames[0], frames[-1]
    job.verdict("segment.outcome", out["outcome"])
    job.verdict("segment.steps", round(out["final_state"].t / DNS_DT))
    job.identity("segment.recovery", max(f.recovery_residual for f in frames), 1e-12)
    job.identity("segment.liftup", max(f.liftup_residual for f in frames), 1e-12)
    drift = max(abs(last.a1 - first.a1), abs(last.a2 - first.a2), abs(last.a3 - first.a3))
    job.identity("segment.momentum_drift_per_t", drift / last.t, 1e-10)
    for key in ("v_h2", "lap_v2_neq", "dx_omega2"):
        job.seeded(f"segment.final.{key}", getattr(last, key))
    job.seeded("segment.m0", out["m0"])
    job.seeded("segment.m1", out["m1"])


def _dns_sweep(job: Job, inputs: dict) -> None:
    template = {"k_f": 0.5, "n": (16, 16, 16), "seed": inputs["sweep_seed"],
                "gamma_of": lambda nu: nu / 4.0}
    tmap = dns.run_threshold_sweep(inputs["sweep_nus"], inputs["sweep_eps"], template,
                                   sample_every=20)
    for r in tmap.rows:
        key = f"sweep.nu{r['nu']}.eps{r['epsilon']}"
        job.verdict(f"{key}.outcome", r["outcome"])
        if r["epsilon"] > 0:
            job.seeded(f"{key}.m0", r["m0"])
            if math.isfinite(r["rate_neq"]):  # too few frames after the transient: no fit
                job.seeded(f"{key}.rate", r["rate_neq"])
    job.verdict("sweep.monotone_in_nu", tmap.monotone_in_nu())


def run_dns(job: Job, inputs: dict) -> None:
    job.stage("dns.psi", _dns_psi, inputs)
    job.stage("segment", _dns_segment, inputs)
    job.stage("sweep", _dns_sweep, inputs)


# ---------------------------------------------------------------------------
# waveop: cold builds and apply_D1 across alpha
# ---------------------------------------------------------------------------

OMEGAS = {"sin2y": lambda y: np.sin(2 * y),
          "mix": lambda y: np.sin(2 * y) + 0.5 * np.cos(3 * y)}


def waveop_inputs(rng: np.random.Generator, smoke: bool) -> dict:
    n = 32 if smoke else 64
    f0, g0 = (random_coeffs(rng, n, band=4) for _ in range(2))
    return {
        "inter_ns": [32, 64] if smoke else [64, 128],
        "sweep_alphas": [2.0],
        "sweep_n": 32 if smoke else 64,
        "sweep_seed": _seed_int(rng),
        "cold_alpha": 8.0 if smoke else 16.0,
        "cold_n": 32 if smoke else 64,
        "gu_n": n, "gu_steps": 10 if smoke else 20, "f0": f0, "g0": g0,
    }


def _intertwining(job: Job, inputs: dict) -> None:
    out = wv.intertwining_residual(OMEGAS, alpha=2.0, ns=inputs["inter_ns"])
    for r in out["rows"]:
        job.fixed(f"inter.a2.{r['omega']}.n{r['n']}.r_cos", r["r_cos"])
        job.fixed(f"inter.a2.{r['omega']}.n{r['n']}.r_sin", r["r_sin"])
    for label, ok in out["verdicts"].items():
        job.verdict(f"inter.a2.{label}.ok", ok)


def _bound_sweep(job: Job, inputs: dict) -> None:
    out = wv.bound_sweep(inputs["sweep_alphas"], n=inputs["sweep_n"], ensemble=20,
                         seed=inputs["sweep_seed"])
    for alpha, fits in out["per_alpha"].items():
        for key, value in fits.items():
            job.seeded(f"bounds.a{_fmt(alpha)}.{key}", value)
    job.verdict("bounds.passed", out["passed"])


def _cold_build(job: Job, inputs: dict) -> None:
    alpha = inputs["cold_alpha"]
    out = wv.intertwining_residual({"sin2y": OMEGAS["sin2y"]}, alpha=alpha,
                                   ns=[inputs["cold_n"]])
    for r in out["rows"]:
        job.fixed(f"inter.a{_fmt(alpha)}.n{r['n']}.r_cos", r["r_cos"])
        job.fixed(f"inter.a{_fmt(alpha)}.n{r['n']}.r_sin", r["r_sin"])


def _good_unknown(job: Job, inputs: dict) -> None:
    p = ModeParams(nu=0.01, gamma=0.4, k_f=0.5, k1=1, k3=1)
    dt = 1.25e-4
    out = wv.good_unknown_check(p, inputs["f0"], inputs["g0"], t_end=inputs["gu_steps"] * dt,
                                dt=dt, n=inputs["gu_n"])
    job.seeded("good_unknown.residual", out["residual"])
    job.fixed("good_unknown.flagged_fraction", out["flagged_fraction"])


def run_waveop(job: Job, inputs: dict) -> None:
    if wv._OPERATOR_CACHE:
        raise RuntimeError("the wave-operator cache must start cold")
    job.stage("inter", _intertwining, inputs)
    job.stage("bounds", _bound_sweep, inputs)
    job.stage("cold", _cold_build, inputs)
    job.stage("good_unknown", _good_unknown, inputs)


WORKLOADS = {
    "resolvent_sweep": (resolvent_inputs, run_resolvent_sweep),
    "psi_linear": (psi_linear_inputs, run_psi_linear),
    "dns": (dns_inputs, run_dns),
    "waveop": (waveop_inputs, run_waveop),
}
