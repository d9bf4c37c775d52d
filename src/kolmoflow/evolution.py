"""Time evolution of the per-mode linearized system and rate diagnostics.

The per-mode system (f = mode of the Laplacian of the shear-wise velocity,
g = mode of the shear-wise vorticity) is

    d/dt f = -(nu*(k1^2+k3^2) + ModeL) f
    d/dt g = -(nu*(k1^2+k3^2) + ModeH) g + (i k3/k_f^3)(gamma/nu) cos y (alpha^2-d^2)^(-1) f

Propagators are exact dense matrix exponentials (N <= 512 keeps that cheap
and removes integrator error from rate fits). The coupled system is evolved
by one exponential of its 2N x 2N block generator, whose lower-left block is
the Duhamel integral of the coupling (Van Loan, IEEE Trans. Autom. Control
23, 1978), so no quadrature is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, solve_banded, svdvals

from .spectral import (
    ConfigurationError,
    FourierGrid,
    ModeParams,
    OperatorMatrix,
    StarMetric,
    assemble_L1,
    assemble_mode_operators,
    build_grid,
    multiplication_matrix,
)
from .pseudospectra import PsiResult, _golden_refine

DECAY_FLOOR = 1e-13
SEMIGROUP_TOL = 1e-6
TWO_PI_NORM_ONE = 2.0 * np.pi  # <1,1> on the torus


@dataclass
class Trajectory:
    times: np.ndarray
    norm_f: np.ndarray
    norm_g: np.ndarray
    norm_q1f: np.ndarray
    norm_p1f: np.ndarray
    norm_dyf: np.ndarray
    params: ModeParams
    grid: FourierGrid
    f_states: np.ndarray | None = None
    g_states: np.ndarray | None = None

    def channel(self, name: str) -> np.ndarray:
        table = {"f": self.norm_f, "g": self.norm_g, "Q1f": self.norm_q1f,
                 "P1f": self.norm_p1f, "dyf": self.norm_dyf}
        if name not in table:
            raise ConfigurationError(f"unknown channel {name!r}")
        return table[name]


@dataclass
class DecayFit:
    rate: float
    window: tuple[float, float]
    residual: float
    prefactor: bool
    amplitude: float

    def as_record(self) -> dict:
        return {"rate": self.rate, "window": list(self.window),
                "residual": self.residual, "prefactor": self.prefactor,
                "amplitude": self.amplitude}


@dataclass
class ForcingSpec:
    """Divergence-form forcing for the f equation.

    The source is F(t) = envelope(t) * (i k1 h1 + d/dy h2 + i k3 h3) built
    from three fixed coefficient profiles, so it is a divergence by
    construction. Envelope kinds: "zero", "pulse" (gaussian at t0 of the
    given width), "sustained" (exp(-c_weight*sqrt|gamma|*t)).
    """

    kind: str
    amplitude: float = 1.0
    t0: float = 1.0
    width: float = 0.05
    c_weight: float = 0.0
    h1: np.ndarray | None = None
    h2: np.ndarray | None = None
    h3: np.ndarray | None = None

    def envelope(self, t: float, gamma: float) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "pulse":
            return self.amplitude * np.exp(-((t - self.t0) / self.width) ** 2)
        if self.kind == "sustained":
            return self.amplitude * np.exp(-self.c_weight * np.sqrt(abs(gamma)) * t)
        raise ConfigurationError(f"unknown forcing kind {self.kind!r}")

    def source(self, t: float, params: ModeParams, grid: FourierGrid) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros(grid.n, dtype=complex)
        n = grid.wavenumbers
        h1 = self.h1 if self.h1 is not None else np.zeros(grid.n, dtype=complex)
        h2 = self.h2 if self.h2 is not None else np.zeros(grid.n, dtype=complex)
        h3 = self.h3 if self.h3 is not None else np.zeros(grid.n, dtype=complex)
        div = 1j * params.k1 * h1 + 1j * n * h2 + 1j * params.k3 * h3
        return self.envelope(t, params.gamma) * div


@dataclass
class NormAccumulators:
    """Running space-time norms, all nondecreasing in time.

    X_{c'} pieces: weighted sup of ||f||^2, sqrt|gamma| times the weighted
    time integral of ||f||^2, and nu times the weighted integral of the
    gradient norm squared (weight e^{2 c' sqrt|gamma| t}). Y0 pieces are the
    unweighted sup and dissipation integral.
    """

    c_prime: float
    gamma: float
    nu: float
    sup_sq: float = 0.0
    l2_sq: float = 0.0
    diss_sq: float = 0.0
    y0_sup_sq: float = 0.0
    y0_diss_sq: float = 0.0
    _prev: tuple | None = None

    def update(self, t: float, norm_f: float, norm_grad: float) -> None:
        w2 = np.exp(2.0 * self.c_prime * np.sqrt(abs(self.gamma)) * t)
        wf2, wg2 = w2 * norm_f**2, w2 * norm_grad**2
        self.sup_sq = max(self.sup_sq, wf2)
        self.y0_sup_sq = max(self.y0_sup_sq, norm_f**2)
        if self._prev is not None:
            t0, pf2, pg2, pug2 = self._prev
            h = t - t0
            self.l2_sq += 0.5 * h * (pf2 + wf2)
            self.diss_sq += 0.5 * h * (pg2 + wg2) * self.nu
            self.y0_diss_sq += 0.5 * h * (pug2 + norm_grad**2) * self.nu
        self._prev = (t, wf2, wg2, norm_grad**2)

    @property
    def x_norm_sq(self) -> float:
        return self.sup_sq + np.sqrt(abs(self.gamma)) * self.l2_sq + self.diss_sq

    @property
    def y0_norm_sq(self) -> float:
        return self.y0_sup_sq + self.y0_diss_sq


# ---------------------------------------------------------------------------
# propagators
# ---------------------------------------------------------------------------

def propagator(op: OperatorMatrix | np.ndarray, t: float,
               norm_cap: float = 200.0) -> np.ndarray:
    """e^(-t A) by scaling-and-squaring Pade, chunked when t*||A|| is extreme."""
    if t < 0:
        raise ConfigurationError("propagator needs t >= 0")
    a = op.dense() if isinstance(op, OperatorMatrix) else np.asarray(op, dtype=complex)
    if t == 0.0:
        return np.eye(a.shape[0], dtype=complex)
    scale = t * np.linalg.norm(a, 1)
    if scale > norm_cap:
        chunks = int(np.ceil(scale / norm_cap))
        e = expm(-(t / chunks) * a)
        return np.linalg.matrix_power(e, chunks)
    return expm(-t * a)


def operator_norm(mat: np.ndarray, metric: StarMetric | None = None) -> float:
    if metric is not None:
        w = metric.sqrt_weights()
        if metric.keep is not None:
            mat = mat[np.ix_(metric.keep, metric.keep)]
        mat = (w[:, None] * mat) / w[None, :]
    return float(svdvals(mat)[0])


def coupled_generators(params: ModeParams, grid: FourierGrid
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (A_L, A_H, C): generators nu*kappa^2 + mode operators, and the
    cos y (alpha^2 - d^2)^(-1) coupling with its (i k3/k_f^3)(gamma/nu) scale."""
    mode_l, mode_h = assemble_mode_operators(params, grid)
    kappa2 = params.k1**2 + params.k3**2
    eye = np.eye(grid.n)
    a_l = mode_l.dense() + params.nu * kappa2 * eye
    a_h = mode_h.dense() + params.nu * kappa2 * eye
    n = grid.wavenumbers
    hinv = 1.0 / (params.alpha**2 + n**2)
    cos_mat = OperatorMatrix("Generic", multiplication_matrix("cos", grid.n)).dense()
    coupling = (1j * params.k3 / params.k_f**3) * (params.gamma / params.nu) * (
        cos_mat * hinv[None, :])
    return a_l, a_h, coupling


def _traj_from_states(times, fs, gs, params, grid, store_states) -> Trajectory:
    n = grid.wavenumbers
    q1 = (n != 0)
    nf = np.array([grid.norm_coeffs(f) for f in fs])
    ng = np.array([grid.norm_coeffs(g) for g in gs])
    nq = np.array([grid.norm_coeffs(np.where(q1, f, 0)) for f in fs])
    npn = np.array([grid.norm_coeffs(np.where(~q1, f, 0)) for f in fs])
    nd = np.array([grid.norm_coeffs(1j * n * f) for f in fs])
    return Trajectory(
        times=np.asarray(times), norm_f=nf, norm_g=ng, norm_q1f=nq,
        norm_p1f=npn, norm_dyf=nd, params=params, grid=grid,
        f_states=np.array(fs) if store_states else None,
        g_states=np.array(gs) if store_states else None,
    )


def evolve_coupled(params: ModeParams, f0: np.ndarray, g0: np.ndarray,
                   t_end: float, dt: float, grid: FourierGrid | None = None,
                   store_states: bool = False) -> Trajectory:
    """Evolve the coupled per-mode system from (f0, g0) to t_end.

    Each step of dt applies e^{dt G} for the block generator
    G = [[-A_L, 0], [C, -A_H]]; its lower-left block is the exact Duhamel
    integral of the coupling over the step, so the step size only sets the
    sampling of the trajectory.
    """
    if grid is None:
        grid = build_grid(128, params)
    a_l, a_h, coupling = coupled_generators(params, grid)
    steps = int(np.ceil(t_end / dt - 1e-12))
    times = np.arange(steps + 1) * dt
    fs, gs = [np.asarray(f0, dtype=complex)], [np.asarray(g0, dtype=complex)]
    n = grid.n
    gen = np.zeros((2 * n, 2 * n), dtype=complex)
    gen[:n, :n] = -a_l
    gen[n:, :n] = coupling
    gen[n:, n:] = -a_h
    e = propagator(-gen, dt)  # e^{dt * gen}
    state = np.concatenate([fs[0], gs[0]])
    for _ in range(steps):
        state = e @ state
        fs.append(state[:n].copy())
        gs.append(state[n:].copy())
    return _traj_from_states(times, fs, gs, params, grid, store_states)


# ---------------------------------------------------------------------------
# semigroup curve and Gearhart-Pruss verdict
# ---------------------------------------------------------------------------

def semigroup_norm_curve(op: OperatorMatrix | np.ndarray, times: np.ndarray,
                         psi: PsiResult, metric: StarMetric | None = None) -> dict:
    """Table of ||e^(-tA)|| with the sharp-bound verdict on a uniform grid
    from 0 (as np.linspace(0, T, k) gives), walked by powers of one step.

    Verdict: ||e^(-tA)|| <= e^(-t psi + pi/2) * (1 + SEMIGROUP_TOL)
    * e^(t * scan_error) for every sampled t. The scanned psi is an upper
    bound on the infimum, and the last factor is a heuristic allowance for
    that gap: scan_error is the lam-width of the refined golden-section
    bracket, not a bound on psi - inf (a dip between coarse scan points is
    not covered).
    """
    a = op.dense() if isinstance(op, OperatorMatrix) else np.asarray(op, dtype=complex)
    if isinstance(op, OperatorMatrix) and op.kind == "ModeL" and metric is None:
        raise ConfigurationError("ModeL semigroup norms must use the star metric")
    times = np.asarray(times, dtype=float)
    if not (len(times) > 2 and times[0] == 0.0
            and np.allclose(np.diff(times), times[1] - times[0])):
        raise ConfigurationError(
            "semigroup times must be a uniform grid from 0 with at least 3 points")
    e = propagator(a, times[1])
    cur = np.eye(a.shape[0], dtype=complex)
    norms = []
    for _ in times:
        norms.append(operator_norm(cur, metric))
        cur = e @ cur
    norms = np.asarray(norms)
    bound = np.exp(-times * psi.psi + np.pi / 2.0) * (1.0 + SEMIGROUP_TOL) * np.exp(
        times * psi.scan_error)
    ok = norms <= bound
    return {
        "times": times,
        "norms": norms,
        "bound": bound,
        "verdict": bool(ok.all()),
        "margin": float((bound / np.maximum(norms, 1e-300)).min()),
    }


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

def fit_decay_rate(traj: Trajectory, channel: str = "f", prefactor: bool = False,
                   t_min: float | None = None) -> DecayFit:
    """Log-linear decay fit on the post-transient window.

    The window starts at t = 2/sqrt|k1 gamma| (the envelope constants absorb
    transients; fitting earlier contaminates rates) and is cut at
    the first crossing of DECAY_FLOOR. With `prefactor`, fits C e^{-at}(1+at)
    instead of a pure exponential.
    """
    y = traj.channel(channel)
    t = traj.times
    if t_min is None:
        t_min = 2.0 / np.sqrt(abs(traj.params.k1 * traj.params.gamma))
    keep = t >= t_min
    above = y > DECAY_FLOOR
    if above.any():
        last = np.argmax(~above) if (~above).any() else len(y)
        keep &= np.arange(len(y)) < max(last, 1)
    sel = keep & (y > 0)
    if sel.sum() < 10:
        raise ConfigurationError(
            f"need >= 10 samples after the transient window, got {sel.sum()}")
    tt, yy = t[sel], np.log(y[sel])

    if not prefactor:
        coeff = np.polyfit(tt, yy, 1)
        rate = -coeff[0]
        resid = float(np.sqrt(np.mean((np.polyval(coeff, tt) - yy) ** 2)))
        return DecayFit(rate=float(rate), window=(float(tt[0]), float(tt[-1])),
                        residual=resid, prefactor=False,
                        amplitude=float(np.exp(coeff[1])))

    def residual_for(a):
        model = -a * tt + np.log1p(a * tt)
        log_c = np.mean(yy - model)
        return float(np.sqrt(np.mean((model + log_c - yy) ** 2))), log_c

    hi = 10.0 * max(1e-12, -np.polyfit(tt, yy, 1)[0])
    a, _, _ = _golden_refine(lambda a: residual_for(a)[0], 0.0, hi, 1e-10, max_iter=200)
    resid, log_c = residual_for(a)
    return DecayFit(rate=float(a), window=(float(tt[0]), float(tt[-1])),
                    residual=resid, prefactor=True, amplitude=float(np.exp(log_c)))


# ---------------------------------------------------------------------------
# energy identities
# ---------------------------------------------------------------------------

def energy_identity_residual(traj: Trajectory, c_prime: float | None = None) -> dict:
    """Residual of the exact dissipation identity along an f trajectory.

    With phi = (alpha^2 - d^2)^(-1) f the discrete Galerkin flow satisfies
    d/dt (||f||^2 - alpha^2||phi||^2 - ||phi'||^2)/2
        + nu k_f^2 ((alpha^2-1)||f||^2 + ||d_y f||^2) = 0
    exactly; the reported residual is the 4th-order finite-difference
    derivative mismatch, which converges at 4th order in the sample spacing.
    Cumulative dissipation ratios are reported alongside.
    """
    if traj.f_states is None:
        raise ConfigurationError("energy identity needs stored states")
    p, grid = traj.params, traj.grid
    if p.alpha <= 1.0:
        raise ConfigurationError("energy identity path assumes alpha > 1")
    n = grid.wavenumbers
    hinv = 1.0 / (p.alpha**2 + n**2)
    t = traj.times
    h = t[1] - t[0]
    q = np.empty(len(t))
    d = np.empty(len(t))
    e2_integrand = np.empty(len(t))
    for i, f in enumerate(traj.f_states):
        phi = hinv * f
        nf2 = grid.norm_coeffs(f) ** 2
        nphi2 = grid.norm_coeffs(phi) ** 2
        ndphi2 = grid.norm_coeffs(1j * n * phi) ** 2
        ndf2 = grid.norm_coeffs(1j * n * f) ** 2
        q[i] = nf2 - p.alpha**2 * nphi2 - ndphi2
        d[i] = p.nu * p.k_f**2 * ((p.alpha**2 - 1.0) * nf2 + ndf2)
        e2_integrand[i] = p.nu * p.k_f**2 * (p.beta**2 * nf2 + ndf2)
    if len(t) < 7:
        return {"residuals": np.array([]), "max_rel_residual": np.inf,
                "reliable": False, "cumulative": {}}
    # 4th-order central derivative on the interior
    dq = (q[:-4] - 8 * q[1:-3] + 8 * q[3:-1] - q[4:]) / (12 * h)
    res = 0.5 * dq + d[2:-2]
    scale = max(d.max(), 1e-300)
    try:
        fit = fit_decay_rate(traj, "f", t_min=0.0)
    except ConfigurationError:
        fit = None
    cumulative = {
        "est2_ratio": float(np.trapezoid(e2_integrand, t)
                            / max(traj.norm_f[0] ** 2, 1e-300)),
    }
    if fit is not None:
        a = fit.rate
        w3 = np.exp(2 * a * t)
        cumulative["est3_ratio"] = float(
            np.trapezoid(w3 * e2_integrand, t)
            / ((1 + a * t[-1]) * max(traj.norm_f[0] ** 2, 1e-300)))
        if c_prime is None:
            c_prime = 0.5 * max(a - p.nu * (p.k1**2 + p.k3**2), 0.0) / np.sqrt(
                abs(p.k1 * p.gamma))
        w4 = np.exp(2 * c_prime * np.sqrt(abs(p.k1 * p.gamma)) * t)
        alt = p.nu * p.k_f**2 * (p.alpha**2 * traj.norm_f**2 + traj.norm_dyf**2)
        cumulative["est4_ratio"] = float(
            np.trapezoid(w4 * alt, t) / max(traj.norm_f[0] ** 2, 1e-300))
        cumulative["c_prime"] = float(c_prime)
    reliable = len(t) >= 7 and h * (d.max() / max(q[0], 1e-300)) < 0.5
    return {
        "residuals": res,
        "max_rel_residual": float(np.max(np.abs(res)) / scale),
        "reliable": bool(reliable),
        "cumulative": cumulative,
    }


# ---------------------------------------------------------------------------
# alpha = 1 suite
# ---------------------------------------------------------------------------

def _l1_banded_solve(op: OperatorMatrix, rhs: np.ndarray) -> np.ndarray:
    try:
        return solve_banded((op.b, op.b), op.ab, rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - L1 is invertible
        raise RuntimeError("singular L1 solve; operator should be invertible") from exc


def solve_L1(nu: float, beta: float, grid: FourierGrid, rhs: np.ndarray) -> np.ndarray:
    """Solve L1 u = rhs by banded LU."""
    return _l1_banded_solve(assemble_L1(nu, beta, grid), rhs)


def alpha1_generator(nu: float, beta: float, grid: FourierGrid) -> np.ndarray:
    """Dense generator A with d/dt f = -A f for the alpha=1 mode equation
    f' = -nu f + L1 u, u = (I - (1-d^2)^(-1)) f."""
    l1 = assemble_L1(nu, beta, grid).dense()
    n = grid.wavenumbers
    m = 1.0 - 1.0 / (1.0 + n.astype(float) ** 2)
    return nu * np.eye(grid.n) - l1 * m[None, :]


def alpha1_suite(nu: float, gamma: float, k1: int, n: int = 64,
                 n_random: int = 20, t_end: float | None = None,
                 dt: float | None = None, seed: int = 7) -> dict:
    """Inverse bounds, conserved-functional drift and channel fits at alpha=1.

    beta = gamma*k1; the suite solves L1 u = w for a random ensemble
    (upper-bound ratios), checks the coercivity ratio on the constant, then
    evolves f and verifies the exact e^{-nu t} conservation of <L1^{-1} f, 1>
    plus the mean-zero/mean channel split of the decay estimates.
    """
    if abs(k1) != 1:
        raise ConfigurationError("alpha=1 suite needs |k1| = 1, k3 = 0")
    beta = gamma * k1
    params = ModeParams(nu=nu, gamma=gamma, k_f=1.0, k1=k1, k3=0)
    grid = build_grid(n, params, alpha=beta)
    op = assemble_L1(nu, beta, grid)
    rng = np.random.default_rng(seed)

    # (i) inverse bounds on a random ensemble
    up2 = []
    up1 = []
    for _ in range(n_random):
        w = grid.random_coeffs(rng)
        u = _l1_banded_solve(op, w)
        nw = grid.norm_coeffs(w)
        up2.append(grid.norm_coeffs(u) * abs(beta) ** (2 / 3) * nu ** (-1 / 3) / nw)
        u_grid = grid.to_grid(u)
        up1.append(grid.l1_norm_grid(u_grid) * abs(beta) ** (5 / 6) * nu ** (-2 / 3) / nw)
    one = np.zeros(grid.n, dtype=complex)
    one[grid.wavenumbers == 0] = 1.0
    u1 = _l1_banded_solve(op, one)
    lower_ratio = abs(grid.inner_coeffs(u1, one)) * abs(beta) / nu / TWO_PI_NORM_ONE

    # (ii) evolve f' = -nu f + L1 u
    gen = alpha1_generator(nu, beta, grid)
    if t_end is None:
        t_end = 5.0 / nu
    if dt is None:
        dt = t_end / 400.0
    steps = int(np.ceil(t_end / dt - 1e-12))
    times = np.arange(steps + 1) * dt
    e = propagator(gen, dt)
    f0 = grid.random_coeffs(rng, mean_zero=True)
    f0 /= grid.norm_coeffs(f0)
    fs = [f0]
    for _ in range(steps):
        fs.append(e @ fs[-1])

    # (iii) conserved functional <L1^{-1} f, 1>(t) = e^{-nu t} <L1^{-1} f0, 1>
    inv_proj = np.array([grid.inner_coeffs(_l1_banded_solve(op, f), one) for f in fs])
    ref = inv_proj[0] * np.exp(-nu * times)
    drift = float(np.max(np.abs(inv_proj - ref)) / abs(inv_proj[0]))

    # (iv) channel fits
    traj = _traj_from_states(times, fs, [np.zeros_like(f) for f in fs], params, grid,
                             store_states=False)
    fit_q1 = fit_decay_rate(traj, "Q1f")
    p1 = traj.norm_p1f
    loss = abs(gamma) ** (1 / 6) * nu ** (-1 / 3)
    c_p1 = float(np.max(p1 * np.exp(nu * times)) / (loss * traj.norm_q1f[0]))

    return {
        "nu": nu, "gamma": gamma, "beta": beta, "n": n,
        "upb2_ratio_max": float(max(up2)),
        "upb1_ratio_max": float(max(up1)),
        "lowerb_ratio": float(lower_ratio),
        "conservation_drift": drift,
        "q1_rate": fit_q1.rate,
        "q1_rate_surplus": float(fit_q1.rate - nu),
        "p1_c_hat": c_p1,
        "times": times,
        "norm_q1f": traj.norm_q1f,
        "norm_p1f": traj.norm_p1f,
    }



# ---------------------------------------------------------------------------
# forced decay
# ---------------------------------------------------------------------------

def forced_decay(params: ModeParams, source: ForcingSpec, t_end: float,
                 dt: float, c_hat: float, grid: FourierGrid | None = None,
                 f0: np.ndarray | None = None,
                 c_prime: float | None = None) -> dict:
    """Evolve the forced f equation and account the X_{c'} and Y0 norms.

    Verdict: X_{c'}(f)^2 <= C_hat_fit * (||f0||^2 + nu^{-1} * weighted source
    integral), with C_hat_fit reported (the bounding constant is fitted, never
    asserted against an a-priori value).
    c' defaults to 0.5*c_hat and must stay below c_hat, else the weighted
    integrals diverge.
    """
    if params.alpha <= 1.0:
        raise ConfigurationError("forced decay path assumes alpha > 1")
    if c_prime is None:
        c_prime = 0.5 * c_hat
    if c_prime >= c_hat:
        raise ConfigurationError(
            f"c'={c_prime} must be < fitted c_hat={c_hat} (weighted integrals diverge)")
    if grid is None:
        grid = build_grid(96, params)
    a_l, _, _ = coupled_generators(params, grid)
    steps = int(np.ceil(t_end / dt - 1e-12))
    times = np.arange(steps + 1) * dt
    e = propagator(a_l, dt)
    e2 = propagator(a_l, dt / 2.0)
    f = np.zeros(grid.n, dtype=complex) if f0 is None else np.asarray(f0, complex)
    n = grid.wavenumbers
    kappa2 = params.k1**2 + params.k3**2

    def grad_norm(c):
        return np.sqrt(kappa2 * grid.norm_coeffs(c) ** 2
                       + params.k_f**2 * grid.norm_coeffs(1j * n * c) ** 2)

    acc = NormAccumulators(c_prime=c_prime, gamma=params.k1 * params.gamma, nu=params.nu)
    acc.update(0.0, grid.norm_coeffs(f), grad_norm(f))
    sqg = np.sqrt(abs(params.k1 * params.gamma))
    src_integral = 0.0
    prev_src = np.exp(2 * c_prime * sqg * 0.0) * grid.norm_coeffs(
        source.source(0.0, params, grid)) ** 2
    norms = [grid.norm_coeffs(f)]
    for j in range(steps):
        t = times[j]
        s0 = source.source(t, params, grid)
        s1 = source.source(t + dt / 2.0, params, grid)
        s2 = source.source(t + dt, params, grid)
        f = e @ f + (dt / 6.0) * (e @ s0 + 4.0 * (e2 @ s1) + s2)
        tn = times[j + 1]
        acc.update(tn, grid.norm_coeffs(f), grad_norm(f))
        cur_src = np.exp(2 * c_prime * sqg * tn) * grid.norm_coeffs(s2) ** 2
        src_integral += 0.5 * dt * (prev_src + cur_src)
        prev_src = cur_src
        norms.append(grid.norm_coeffs(f))
    f0_sq = norms[0] ** 2
    rhs = f0_sq + src_integral / params.nu
    c_fit = acc.x_norm_sq / rhs if rhs > 0 else np.inf
    return {
        "times": times,
        "norms": np.asarray(norms),
        "x_norm_sq": acc.x_norm_sq,
        "y0_norm_sq": acc.y0_norm_sq,
        "weighted_source_integral": src_integral,
        "rhs": rhs,
        "c_hat_fit": float(c_fit),
        "c_prime": c_prime,
        "verdict": bool(np.isfinite(acc.x_norm_sq) and rhs > 0),
        "accumulators": acc,
    }
