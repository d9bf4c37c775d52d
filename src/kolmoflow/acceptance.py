"""The end-to-end acceptance suite.

Each criterion returns {"name", "passed", "details"} to the pytest module
and to the CLI's all-acceptance subcommand. `details["checks"]` holds one
{name, value, op, bound, passed} record per sub-check and `passed` is true
when all of them pass; the other `details` keys are measured values. A
check whose rule lives in another layer names that function as its op, has
no bound and carries the layer's verdict. Bounds are pinned here, each
written once: the CLI runners that restate a criterion's rule call the
public check builders. Every sup, least value or spread a check reads is
taken with np.max/np.min, so one nan in it makes it nan and fails the
check; the builtin max and min drop a nan that does not come first.
Each criterion runs in `spectral.one_blas_thread()`, so its `details` bytes
do not depend on the BLAS thread count of the environment.
"""

from __future__ import annotations

import operator
from dataclasses import replace

import numpy as np

from .spectral import ModeParams, build_grid, one_blas_thread
from . import pseudospectra as ps
from . import evolution as ev
from . import waveop as wv
from . import dns

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
        "==": operator.eq, "finite": lambda value, _: np.isfinite(value)}


def _check(name: str, value, op: str, bound, passed: bool | None = None) -> dict:
    """One sub-check; `passed` is given only where another layer owns the rule."""
    if passed is None:
        passed = _OPS[op](value, bound)
    return {"name": name, "value": value, "op": op, "bound": bound,
            "passed": bool(passed)}


def _record(title: str, checks: list[dict], **measured) -> dict:
    return {"name": title, "passed": all(c["passed"] for c in checks),
            "details": {"checks": checks, **measured}}


def _ratio(num, den) -> float:
    """num / den; a zero divisor gives inf or nan, which fails its check."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.float64(num) / den)


def conservation_check(drift) -> dict:
    return _check("L4 conservation drift", drift, "<=", 1e-8)


def lowerb_check(name: str, ratio) -> dict:
    return _check(name, ratio, ">", 0)


def q1_rate_check(row: dict) -> dict:
    return _check(f"Q1 rate nu={row['nu']} gamma={row['gamma']}", row["q1_rate"],
                  ">=", row["nu"])


def f_rate_floor_check(name: str, rate, params: ModeParams) -> dict:
    return _check(name, rate, ">=", params.nu * (params.k1**2 + params.k3**2))


def _stability_check(name: str, ratio) -> dict:
    return _check(name, ratio, "<=", 3.0)


def _sqrt_gamma_check(name: str, surplus_ratio) -> dict:
    """The rate surplus doubles, to within 25%, when gamma is quadrupled."""
    return _check(name, abs(surplus_ratio / 2.0 - 1.0), "<=", 0.25)


def _band_limited(grid, rng: np.random.Generator, k_max: int) -> np.ndarray:
    """Unit-norm random coefficients on the wavenumbers |k| <= k_max."""
    sel = np.abs(grid.wavenumbers) <= k_max
    coeffs = np.zeros(grid.n, dtype=complex)
    coeffs[sel] = rng.standard_normal(sel.sum()) + 1j * rng.standard_normal(sel.sum())
    return coeffs / grid.norm_coeffs(coeffs)


def resolvent_checks(kind: str, c_hat: ps.EmpiricalConstants) -> list[dict]:
    """Criterion 1's rule: adequately resolved ratios > 0, decade ratio <= 3."""
    return [_check(f"{kind} least ratio", c_hat.value, ">", 0),
            _stability_check(f"{kind} decade ratio", c_hat.decade_ratio)]


# -- 1: resolvent lower bounds ------------------------------------------------

@one_blas_thread()
def criterion_resolvent_bounds() -> dict:
    nus = [1e-2, 3e-3, 1e-3]
    alphas = [10.0, 100.0, 1000.0]
    lams = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5]
    betas = [2.0, 5.0]
    checks, sweeps = [], {}
    for kind in ("Nlambda", "Llambda", "Lu-form"):
        c_hat, rows = ps.resolvent_bound_sweep(
            kind, nus, alphas, lams, betas=None if kind == "Nlambda" else betas)
        checks += resolvent_checks(kind, c_hat)
        sweeps[kind] = {"C_hat": c_hat.value, "points": len(c_hat.sweep),
                        "flagged": len(rows) - len(c_hat.sweep)}
    return _record("1 resolvent lower bounds (ratio>0, decade<=3)", checks, **sweeps)


# -- 2: Psi scaling -------------------------------------------------------------

@one_blas_thread()
def criterion_psi_scaling() -> dict:
    checks = []
    pairs = {
        "H": [ModeParams(nu=0.01, gamma=g, k_f=kf, k1=k1, k3=k3)
              for g in (0.1, 0.4) for kf, k1, k3 in ((1.0, 1, 0), (0.5, 1, 1), (1.0, 2, 0))],
        "L": [ModeParams(nu=0.01, gamma=g, k_f=kf, k1=k1, k3=k3)
              for g in (0.1, 0.4) for kf, k1, k3 in ((0.5, 1, 1), (0.5, 2, 0))],
        "Q1L": [ModeParams(nu=0.01, gamma=g, k_f=1.0, k1=1, k3=0) for g in (0.1, 0.4)],
    }
    for which, sweep in pairs.items():
        c_hat, rows = ps.psi_bound_sweep(sweep, which=which, scan_count=96)
        ratios = {}
        for r in rows:
            key = (r["nu"], r["k_f"], r["k1"], r["k3"])
            ratios.setdefault(key, {})[r["gamma"]] = r["ratio"]
        worst = 1.0
        for key, by_gamma in ratios.items():
            if 0.1 in by_gamma and 0.4 in by_gamma:
                q = _ratio(by_gamma[0.4], by_gamma[0.1])
                worst = np.max([worst, q, _ratio(1.0, q)])
        checks += [_check(f"{which} c_hat", c_hat.value, ">", 0),
                   _check(f"{which} worst quadrupling drift", worst, "<=", 2.0)]
    return _record("2 Psi scaling (sqrt-gamma, factor<=2 under 4x gamma)", checks)


# -- 3: Gearhart-Pruss ----------------------------------------------------------

@one_blas_thread()
def criterion_gearhart_pruss() -> dict:
    # ModeH euclidean; ModeL star; Q1 ModeL at alpha=1, mean-zero star metric
    cases = (("ModeH", "H", ModeParams(nu=0.01, gamma=0.4, k_f=1.0, k1=1, k3=0)),
             ("ModeL(star)", "L", ModeParams(nu=0.01, gamma=0.4, k_f=0.5, k1=1, k3=1)),
             ("Q1ModeL(star)", "Q1L", ModeParams(nu=0.01, gamma=0.4, k_f=1.0, k1=1, k3=0)))
    checks, psis = [], {}
    for name, which, p in cases:
        op, metric = ps.psi_operator(p, which, n=256)
        psi_res = ps.compute_psi(op, ps.psi_half_width(p), 96, metric)
        times = np.linspace(0.0, 20.0 / psi_res.psi, 41)
        out = ev.semigroup_norm_curve(op, times, psi_res, metric=metric)
        checks.append(_check(f"{name} semigroup margin", out["margin"],
                             "evolution.semigroup_norm_curve", None, out["verdict"]))
        psis[name] = psi_res.psi
    return _record("3 Gearhart-Pruss sharp bound on [0, 20/Psi]", checks, psi=psis)


# -- 4: channel structure -------------------------------------------------------

@one_blas_thread()
def criterion_channel_structure() -> dict:
    rng = np.random.default_rng(2024)
    a_fit, g_ratios = {}, {}
    for gamma in (0.1, 0.4):
        p = ModeParams(nu=0.01, gamma=gamma, k_f=0.5, k1=1, k3=1)
        grid = build_grid(96, p)
        t_end = 30.0 / np.sqrt(p.k1 * gamma)
        dt = t_end / 240.0
        # the decay envelope carries ONE rate bounding both channels;
        # empirically that is min(f-channel rate, autonomous g-channel rate)
        g_hom = grid.random_coeffs(rng)
        g_hom /= grid.norm_coeffs(g_hom)
        traj_g = ev.evolve_coupled(p, np.zeros(grid.n, complex), g_hom, t_end,
                                   dt, grid=grid)
        rate_g = ev.fit_decay_rate(traj_g, "g", t_min=2.0 / np.sqrt(gamma)).rate
        ratios = []
        for _ in range(20 if gamma == 0.4 else 4):
            f0 = grid.random_coeffs(rng)
            g0 = grid.random_coeffs(rng)
            f0 /= grid.norm_coeffs(f0)
            g0 /= grid.norm_coeffs(g0)
            traj = ev.evolve_coupled(p, f0, g0, t_end, dt, grid=grid)
            rate_f = ev.fit_decay_rate(traj, "f").rate
            a_env = np.min([rate_f, rate_g])
            env = np.exp(-a_env * traj.times) * (
                traj.norm_g[0] + (1 + a_env * traj.times) * traj.norm_f[0] / abs(p.k1))
            ratios.append(float(np.max(traj.norm_g / env)))
        a_fit[gamma], g_ratios[gamma] = rate_f, ratios   # rate_f of the last trial
    floors = [f_rate_floor_check(f"f rate gamma={g}", a_fit[g], p) for g in (0.1, 0.4)]
    nu_k2 = floors[0]["bound"]   # the same at both gammas
    surplus_ratio = _ratio(a_fit[0.4] - nu_k2, a_fit[0.1] - nu_k2)
    c_hat = np.max(g_ratios[0.4][:10])
    checks = [*floors,
              _sqrt_gamma_check("f rate surplus |r/2 - 1|", surplus_ratio),
              _check("g envelope, trials 11-20", np.max(g_ratios[0.4][10:]), "<=",
                     1.5 * c_hat)]
    return _record(
        "4 coupled-channel decay structure (f rate floor+scaling, g envelope)",
        checks, surplus_ratio=surplus_ratio, g_envelope_C=c_hat)


# -- 5: exact discrete identities -----------------------------------------------

@one_blas_thread()
def criterion_exact_identities() -> dict:
    # (L4) conservation
    suite = ev.alpha1_suite(nu=0.01, gamma=0.1, k1=1, n=64, n_random=5,
                            t_end=300.0, dt=1.0)
    # (dissp1) 4th-order convergence of the residual
    p = ModeParams(nu=0.01, gamma=0.4, k_f=0.5, k1=1, k3=1)
    grid = build_grid(48, p)
    rng = np.random.default_rng(3)
    f0 = grid.random_coeffs(rng)
    res = []
    for dt in (0.008, 0.004, 0.002):
        traj = ev.evolve_coupled(p, f0, np.zeros_like(f0), 2.0, dt, grid=grid,
                                 store_states=True)
        res.append(ev.energy_identity_residual(traj)["max_rel_residual"])
    # velocity recovery + lift-up profile + momentum drift (DNS)
    cfg = dns.DNSConfig(nu=0.05, gamma=0.05, k_f=0.5, n=(16, 16, 16),
                        epsilon=0.02, seed=11, dt=0.02, t_end=4.0)
    run = dns.run_simulation(cfg, sample_every=200, early_exit=False)
    f0r, fr = run["tracker"].frames
    t = run["final_state"].t
    drift = np.max([abs(fr.a1 - f0r.a1), abs(fr.a2 - f0r.a2), abs(fr.a3 - f0r.a3)])
    checks = [conservation_check(suite["conservation_drift"]),
              _check("dissp residual ratio, dt 0.008/0.004", _ratio(res[0], res[1]), ">=", 10.0),
              _check("dissp residual ratio, dt 0.004/0.002", _ratio(res[1], res[2]), ">=", 10.0),
              _check("velocity recovery residual",
                     np.max([f0r.recovery_residual, fr.recovery_residual]), "<=", 1e-12),
              _check("lift-up profile residual",
                     np.max([f0r.liftup_residual, fr.liftup_residual]), "<=", 1e-12),
              _check("mean momentum drift", drift, "<=", 1e-10 * t)]
    return _record(
        "5 exact discrete identities (L4, dissp residual order, recovery, lift-up, momentum)",
        checks, dissp_residuals=res, dns_t=t)


# -- 6: alpha = 1 bounds ---------------------------------------------------------

@one_blas_thread()
def criterion_alpha1_bounds() -> dict:
    rows = [ev.alpha1_suite(nu=nu, gamma=beta, k1=1, n=96, n_random=20,
                            t_end=5.0 / nu, dt=5.0 / nu / 2000.0)
            for nu in (0.01, 0.003) for beta in (0.1, 0.3)]
    def stab(key):
        vals = [r[key] for r in rows]
        return _ratio(np.max(vals), np.min(vals))
    # sqrt-gamma scaling of the Q1 surplus under gamma -> 4 gamma
    hi = ev.alpha1_suite(nu=0.01, gamma=0.4, k1=1, n=96, n_random=5,
                         t_end=300.0, dt=0.75)
    lo = ev.alpha1_suite(nu=0.01, gamma=0.1, k1=1, n=96, n_random=5,
                         t_end=300.0, dt=0.75)
    surplus_ratio = _ratio(hi["q1_rate_surplus"], lo["q1_rate_surplus"])
    lowerb = [r["lowerb_ratio"] for r in rows]
    checks = [
        _stability_check("UpB2 stability", stab("upb2_ratio_max")),
        _stability_check("UpB1 stability", stab("upb1_ratio_max")),
        lowerb_check("least LowerB ratio", np.min(lowerb)),
        _stability_check("LowerB stability", stab("lowerb_ratio")),
        _stability_check("P1 loss stability", stab("p1_c_hat")),
        *(q1_rate_check(r) for r in rows),
        _sqrt_gamma_check("Q1 surplus |r/2 - 1|", surplus_ratio),
    ]
    return _record(
        "6 alpha=1 bounds (UpB1/UpB2/LowerB stability, Q1 rate, P1 loss)",
        checks, q1_surplus_ratio=surplus_ratio, lowerb_values=lowerb)


# -- 7: wave operator -----------------------------------------------------------

@one_blas_thread()
def criterion_wave_operator() -> dict:
    inter = wv.intertwining_residual(
        {"sin2y": lambda y: np.sin(2 * y),
         "mix": lambda y: np.sin(2 * y) + 0.5 * np.cos(3 * y)},
        alpha=2.0, ns=[256, 512, 1024])
    bounds = wv.bound_sweep([2.0, 4.0, 8.0, 16.0], n=256, ensemble=20)
    p = ModeParams(nu=0.01, gamma=0.4, k_f=0.5, k1=1, k3=1)
    rng = np.random.default_rng(9)
    residuals = {}
    wv.get_wave_operator(p.alpha, 256)   # the n = 128 level is cut from it
    for n in (128, 256):
        grid = build_grid(n, p)
        f0, g0 = _band_limited(grid, rng, 4), _band_limited(grid, rng, 4)
        out = wv.good_unknown_check(p, f0, g0, t_end=0.01, dt=1.25e-4, n=n,
                                    fit_t_end=30.0 if n == 256 else None)
        residuals[n] = out["residual"]
    checks = [   # `out` is the n = 256 run, the one with the g1 fits
        _check("intertwining", inter["worst"], "waveop.intertwining_residual", None,
               inter["passed"]),
        _check("worst bound stability", np.max(list(bounds["stability"].values())),
               "waveop.bound_sweep", None, bounds["passed"]),
        _check("good-unknown residual n=256", residuals[256], "<=", 1e-2),
        _check("good-unknown residual n=256 vs n=128", residuals[256], "<", residuals[128]),
        _check("g1 pure-exponential fit residual", out["g1_fit_pure_residual"],
               "<=", out["g1_fit_prefactor_residual"]),
    ]
    return _record(
        "7 wave operator (intertwining<=1e-3 decreasing, bounds<=3, good unknown)",
        checks, bound_stability=bounds["stability"], good_unknown_residuals=residuals,
        g1_fit_prefactor_residual=out["g1_fit_prefactor_residual"])


# -- 8: forced decay ------------------------------------------------------------

@one_blas_thread()
def criterion_forced_decay() -> dict:
    # one fixed smooth 3-component divergence probe shared across the gamma
    # sweep: with high-wavenumber probes the non-normal gain grows with the
    # shear and the (one-sided) bound is driven with gamma-dependent
    # looseness, which says nothing about the constant itself
    rng = np.random.default_rng(5)
    grid0 = build_grid(64, ModeParams(nu=0.01, gamma=0.1, k_f=0.5, k1=1, k3=1))
    profs = {name: _band_limited(grid0, rng, 8) for name in ("h1", "h2", "h3")}
    c_fits = {}
    hom_rates = {}
    checks = []
    for gamma in (0.1, 0.4):
        p = ModeParams(nu=0.01, gamma=gamma, k_f=0.5, k1=1, k3=1)
        grid = build_grid(64, p)
        psi = ps.psi_for_params(p, "L", n=128, scan_count=64)
        c_hat = psi.psi / np.sqrt(abs(p.k1 * gamma))
        c_prime = 0.5 * c_hat
        spec = ev.ForcingSpec(kind="sustained", amplitude=1.0, c_weight=c_prime,
                              **profs)
        t_end = 30.0 / np.sqrt(p.k1 * gamma)
        out = ev.forced_decay(p, spec, t_end=t_end, dt=t_end / 600.0,
                              c_hat=c_hat, grid=grid, c_prime=c_prime)
        c_fits[gamma] = out["c_hat_fit"]
        # homogeneous limit: zero source from random data decays at the
        # criterion-4 rate
        f0 = grid.random_coeffs(rng)
        f0 /= grid.norm_coeffs(f0)
        hom = ev.forced_decay(p, ev.ForcingSpec(kind="zero"), t_end=t_end,
                              dt=t_end / 600.0, c_hat=c_hat, grid=grid, f0=f0,
                              c_prime=c_prime)
        traj = ev.evolve_coupled(p, f0, np.zeros_like(f0), t_end, t_end / 600.0,
                                 grid=grid)
        forced = replace(traj, norm_f=hom["norms"])   # same times, params and grid
        rates = {"forced_path": ev.fit_decay_rate(forced, "f").rate,
                 "evolve_path": ev.fit_decay_rate(traj, "f").rate}
        hom_rates[gamma] = rates
        checks += [
            _check(f"homogeneous rate gamma={gamma}, |forced/evolve - 1|",
                   abs(_ratio(rates["forced_path"], rates["evolve_path"]) - 1.0), "<=", 0.05),
            _check(f"homogeneous X norm gamma={gamma}", hom["x_norm_sq"], "finite", None),
        ]
    ratio = _ratio(c_fits[0.4], c_fits[0.1])
    checks.append(_stability_check("C fit stability max(r, 1/r)",
                                   np.max([ratio, _ratio(1.0, ratio)])))
    return _record("8 forced decay (X_{c'} verdicts, C stability, homogeneous limit)",
                   checks, c_hat_fits=c_fits, stability_ratio=ratio,
                   homogeneous=hom_rates)


# -- 9: DNS qualitative threshold -------------------------------------------------

@one_blas_thread()
def criterion_dns_threshold() -> dict:
    # fitted c' from the linear Psi suite at the DNS parameters
    p_lin = ModeParams(nu=0.05, gamma=0.05, k_f=0.5, k1=1, k3=0)
    psi = ps.psi_for_params(p_lin, "H", n=128, scan_count=64)
    c_hat = psi.psi / np.sqrt(abs(p_lin.k1 * p_lin.gamma))
    c_prime = 0.5 * c_hat
    cfg = dns.DNSConfig(nu=0.05, gamma=0.05, k_f=0.5, n=(32, 32, 32), epsilon=1e-3,
                        seed=1, c_prime=c_prime)
    main = dns.run_simulation(cfg, sample_every=20)
    rate = main["rate_neq"]
    # two seeds agree on the classification
    cfg2 = dns.DNSConfig(nu=0.05, gamma=0.05, k_f=0.5, n=(16, 16, 16),
                         epsilon=1e-3, seed=2, c_prime=c_prime)
    rep = dns.run_simulation(cfg2, sample_every=20)
    nus = [0.02, 0.05, 0.1]
    tmap = dns.run_threshold_sweep(nus, [0.0, 1e-3, 0.05, 0.3], {"k_f": 0.5, "n": (16, 16, 16)})
    checks = [
        _check("32^3 seed-1 outcome", main["outcome"], "==", "decayed"),
        _check("32^3 seed-1 decay rate", rate, ">=", c_prime * np.sqrt(cfg.gamma)),
        _check("32^3 seed-1 M0/V0", main["m0_over_v0"], "<=", 50.0),
        _check("32^3 seed-1 M0", main["m0"], "finite", None),
        _check("16^3 seed-2 outcome", rep["outcome"], "==", "decayed"),
        _check("eps* monotone in nu", None, "dns.ThresholdMap.monotone_in_nu", None,
               tmap.monotone_in_nu()),
    ]
    return _record(
        "9 DNS qualitative threshold (decay rate, M0 bound, eps*(nu) monotone)",
        checks, c_prime=c_prime,
        rate_vs_half_sqrt_gamma=rate / (0.5 * np.sqrt(cfg.gamma)),
        eps_star={nu: tmap.eps_star(nu) for nu in nus},
        bracketed={nu: tmap.bracketed(nu) for nu in nus},
        threshold_rows=tmap.as_record()["rows"])


ALL_CRITERIA = [
    criterion_resolvent_bounds,
    criterion_psi_scaling,
    criterion_gearhart_pruss,
    criterion_channel_structure,
    criterion_exact_identities,
    criterion_alpha1_bounds,
    criterion_wave_operator,
    criterion_forced_decay,
    criterion_dns_threshold,
]


def run_all() -> dict:
    records = []
    for fn in ALL_CRITERIA:
        rec = fn()
        records.append(rec)
        print(f"[{'PASS' if rec['passed'] else 'FAIL'}] {rec['name']}")
    return {"criteria": records, "passed": all(r["passed"] for r in records)}
