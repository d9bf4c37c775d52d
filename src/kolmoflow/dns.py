"""Desk-scale 3D pseudo-spectral solver around the Kolmogorov flow.

Evolves the perturbation V = U - U* (so the sinusoidal base flow stays an
exact steady state) on the box x,z in T_{2pi}, y in T_{2pi/k_f}:

    dV/dt + U* dV/dx + v2 dU*/dy e_x - nu Lap V + (V.grad)V + grad P = 0,
    div V = 0,  U* = gamma/(nu k_f^2) sin(k_f y).

Time stepping is an integrating-factor SSP-RK3: the viscous term is exact
(e^{-nu |k|^2 dt}), advection and background coupling are explicit, third
order overall. The quadratic term uses the rotation form (pointwise
energy-neutral even after masking) with 2/3-rule dealiasing; the background
terms are single +-k_f harmonics, which on this box are one k_y grid step,
so they are exact spectral shifts with no aliasing. Every stage ends with a
Leray projection; the retained mode set is closed under the dynamics.

Fields are stored as normalized Fourier coefficients: v = sum c_k e^{ik.x},
so the (0,0,0) coefficient is the volume mean and Parseval reads
int |v|^2 = Vol * sum |c_k|^2. The fields are real, so only the rfftn half
spectrum kz >= 0 is held, shape (3, nx, ny, nz//2+1); the kz < 0 modes are
the conjugates c_{-k} = conj(c_k). Sums over the full spectrum therefore
weight each stored mode by its multiplicity: 1 on the self-conjugate kz = 0
and Nyquist planes, 2 elsewhere (`SpectralField3D.inner`). Restart files
hold the same half layout; `load_checkpoint` also reads files written in
the earlier full-spectrum layout (last axis nz) by keeping their kz >= 0
part.

`run_threshold_sweep` is the one (nu, eps) sweep: the `threshold`
subcommand and acceptance criterion 9 both call it, and it runs its cells
serially or on a process pool of at most one worker per cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .spectral import ConfigurationError

TAIL_FRACTION_LIMIT = 1e-6
DECAY_ENERGY_RATIO = 1e-8   # x-dependent energy drop that counts as decayed
EARLY_EXIT_RATIO = 1e-12


@dataclass
class DNSConfig:
    nu: float
    gamma: float
    k_f: float
    n: tuple[int, int, int] = (32, 32, 32)
    dt: float | None = None
    t_end: float | None = None
    epsilon: float = 1e-3
    seed: int = 0
    filter_fraction: float = 1.0 / 3.0  # perturbation support below N*fraction
    c_prime: float = 0.1
    cfl: float = 0.5
    nonlinear: bool = True
    background: bool = True

    def __post_init__(self):
        if not (0 < self.k_f < 1):
            raise ConfigurationError(f"DNS requires k_f in (0,1), got {self.k_f}")
        if any(m % 2 for m in self.n):
            raise ConfigurationError("resolutions must be even")
        if self.nu <= 0:
            raise ConfigurationError("nu must be positive")
        if self.t_end is None:
            self.t_end = 50.0 / np.sqrt(abs(self.gamma))
        u_star = abs(self.gamma) / (self.nu * self.k_f**2)
        dx = 2.0 * np.pi / max(self.n)
        if self.dt is None:
            self.dt = self.cfl * dx / max(u_star + 2.0 * self.epsilon, 1e-12)
        if self.dt * (u_star + 2.0 * self.epsilon) / dx > self.cfl * (1 + 1e-9):
            raise ConfigurationError(
                f"dt={self.dt:.3g} violates the CFL {self.cfl} estimate")


def _wavenumbers(n: tuple[int, int, int]):
    """Integer wavenumbers of the half-spectrum layout, broadcast to 3D:
    fft order along x and y, 0..nz/2 along z."""
    nx, ny, nz = n
    return (np.fft.fftfreq(nx, 1.0 / nx)[:, None, None],
            np.fft.fftfreq(ny, 1.0 / ny)[None, :, None],
            np.fft.rfftfreq(nz, 1.0 / nz)[None, None, :])


def _box_mask(n: tuple[int, int, int], cutoff) -> np.ndarray:
    """Modes with |integer wavenumber| <= cutoff(m) along every axis."""
    ix, iy, iz = _wavenumbers(n)
    return ((np.abs(ix) <= cutoff(n[0])) & (np.abs(iy) <= cutoff(n[1]))
            & (iz <= cutoff(n[2])))


class SpectralField3D:
    """Divergence-free perturbation velocity as Fourier coefficients.

    Layout: vhat[c, ix, iy, iz], the rfftn half spectrum (3, nx, ny, nz//2+1);
    x,z wavenumbers are integers, y wavenumbers are k_f * integers (box
    2pi/k_f). The kz < 0 half is implied by Hermitian symmetry.
    """

    def __init__(self, config: DNSConfig):
        nx, ny, nz = config.n
        self.config = config
        self.shape = (nx, ny, nz)
        self.vol = (2.0 * np.pi) ** 3 / config.k_f
        self.kx, iy, self.kz = _wavenumbers(config.n)
        self.ky = config.k_f * iy
        self.k2 = self.kx**2 + self.ky**2 + self.kz**2
        self.k2_safe = np.where(self.k2 == 0.0, 1.0, self.k2)
        # multiplicity of each stored mode in the full spectrum
        self.weight = np.where((self.kz == 0) | (self.kz == nz // 2), 1.0, 2.0)
        self.dealias = _box_mask(config.n, lambda m: m / 3.0)
        self.vhat = np.zeros((3, nx, ny, nz // 2 + 1), dtype=complex)
        self.t = 0.0
        self.step_factors = None  # (dt, e_full, e_half, e_back), see step_imex

    # -- transforms (normalized coefficients, batched over leading axes) -----
    def to_physical(self, chat: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(chat, s=self.shape, axes=(-3, -2, -1), norm="forward")

    def to_spectral(self, v: np.ndarray) -> np.ndarray:
        return np.fft.rfftn(v, axes=(-3, -2, -1), norm="forward")

    # -- algebra -------------------------------------------------------------
    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        """Re int a . conj(b) over the box, for half-spectrum coefficients."""
        return float(self.vol * np.sum(self.weight * (a * np.conj(b)).real))

    def leray_project(self, what: np.ndarray) -> np.ndarray:
        kv = (self.kx * what[0] + self.ky * what[1] + self.kz * what[2]) / self.k2_safe
        out = what.copy()
        out[0] -= self.kx * kv
        out[1] -= self.ky * kv
        out[2] -= self.kz * kv
        return out

    def divergence_max(self) -> float:
        div = np.abs(self.kx * self.vhat[0] + self.ky * self.vhat[1]
                     + self.kz * self.vhat[2])
        scale = max(np.max(np.abs(self.vhat)), 1e-300)
        return float(div.max() / scale)

    def hermitian_defect(self) -> float:
        """Largest |c_k - conj(c_{-k})| on the self-conjugate kz = 0 and
        Nyquist planes, relative to the largest coefficient. Elsewhere the
        half layout implies the symmetry."""
        nx, ny, nz = self.shape
        flip_x = (-np.arange(nx)) % nx
        flip_y = (-np.arange(ny)) % ny
        planes = self.vhat[..., [0, nz // 2]]
        mirror = np.conj(planes[:, flip_x][:, :, flip_y])
        scale = max(np.max(np.abs(self.vhat)), 1e-300)
        return float(np.max(np.abs(planes - mirror)) / scale)

    def l2_norm_sq(self, what: np.ndarray | None = None) -> float:
        w = self.vhat if what is None else what
        return self.inner(w, w)

    def grad_norm_sq(self) -> float:
        return self.inner(self.k2 * self.vhat, self.vhat)

    def h2_norm(self, what: np.ndarray | None = None) -> float:
        w = self.vhat if what is None else what
        return float(np.sqrt(self.inner((1.0 + self.k2) ** 2 * w, w)))

    def h1_norm(self, what: np.ndarray) -> float:
        return float(np.sqrt(self.inner((1.0 + self.k2) * what, what)))

    def tail_fraction(self) -> float:
        tot = self.inner(self.vhat, self.vhat)
        if tot == 0.0:
            return 0.0
        tail = np.where(self.dealias, 0.0, self.vhat)
        return self.inner(tail, tail) / tot


def init_perturbation(config: DNSConfig) -> SpectralField3D:
    """Random divergence-free real field with H2 norm exactly epsilon,
    spectral support below filter_fraction of the grid."""
    state = SpectralField3D(config)
    if config.epsilon == 0.0:
        return state
    rng = np.random.default_rng(config.seed)
    nx, ny, nz = config.n
    what = state.to_spectral(rng.standard_normal((3, nx, ny, nz)))
    what *= _box_mask(config.n, lambda m: m * config.filter_fraction)
    what[:, 0, 0, 0] = 0.0  # perturbation carries no mean flow
    what = state.leray_project(what)
    state.vhat = what
    h2 = state.h2_norm()
    if h2 > 0:
        state.vhat *= config.epsilon / h2
    return state


def _shift_ky(w: np.ndarray, s: int) -> np.ndarray:
    """Shift the y-frequency (axis -2) by s = +-1 grid steps (multiplication
    by e^{+-i k_f y}).

    Slice moves in natural fft order; Galerkin: the frequency shifted past
    the +-ny/2 boundary is dropped, not wrapped."""
    ny = w.shape[-2]
    out = np.empty_like(w)
    if s == 1:
        out[..., 1:, :] = w[..., :-1, :]
        out[..., 0, :] = w[..., -1, :]
        out[..., ny // 2, :] = 0.0    # would receive ky = ny/2 - 1 wrapped
    elif s == -1:
        out[..., :-1, :] = w[..., 1:, :]
        out[..., -1, :] = w[..., 0, :]
        out[..., ny // 2 - 1, :] = 0.0  # would receive ky = -ny/2 wrapped
    else:
        raise ValueError(f"shift must be +-1, got {s}")
    return out


def background_rhs(state: SpectralField3D, what: np.ndarray | None = None) -> np.ndarray:
    """-(U* dx V + v2 dU*/dy e_x) via exact +-k_f spectral shifts."""
    cfg = state.config
    amp = cfg.gamma / (cfg.nu * cfg.k_f**2)
    v = state.vhat if what is None else what
    # sin(k_f y) dx V = (shift up - shift down)/(2i) of i kx V
    rhs = (-0.5 * amp) * state.kx * (_shift_ky(v, 1) - _shift_ky(v, -1))
    lift = cfg.gamma / (cfg.nu * cfg.k_f)
    rhs[0] -= lift * (_shift_ky(v[1], 1) + _shift_ky(v[1], -1)) / 2.0
    return rhs


def nonlinear_rhs(state: SpectralField3D, what: np.ndarray | None = None) -> np.ndarray:
    """Rotation form omega x V of the advection term (the |V|^2/2 gradient
    falls to the projection); products on the 2/3-masked set. One batched
    inverse transform of (V, omega) and one forward transform of the
    products."""
    v = (state.vhat if what is None else what) * state.dealias
    kx, ky, kz = state.kx, state.ky, state.kz
    both = np.empty((6,) + v.shape[1:], dtype=complex)
    both[:3] = v
    both[3] = 1j * (ky * v[2] - kz * v[1])
    both[4] = 1j * (kz * v[0] - kx * v[2])
    both[5] = 1j * (kx * v[1] - ky * v[0])
    vx, vy, vz, wx, wy, wz = state.to_physical(both)
    prod = np.stack([wy * vz - wz * vy, wz * vx - wx * vz, wx * vy - wy * vx])
    return state.to_spectral(prod) * state.dealias


def explicit_rhs(state: SpectralField3D, what: np.ndarray) -> np.ndarray:
    cfg = state.config
    rhs = np.zeros_like(what)
    if cfg.background:
        rhs += background_rhs(state, what)
    if cfg.nonlinear:
        rhs += nonlinear_rhs(state, what)
    return state.leray_project(rhs * state.dealias)


def step_imex(state: SpectralField3D, dt: float | None = None) -> SpectralField3D:
    """One integrating-factor SSP-RK3 step.

    Shu-Osher stages mapped through the viscous integrating factor:
        u1     = E(h) (u0 + h N(u0))
        u_half = 3/4 E(h/2) u0 + 1/4 E(-h/2) (u1 + h N(u1))
        u_new  = 1/3 E(h) u0 + 2/3 E(h/2) (u_half + h N(u_half))
    The E(-h/2) growth factor only acts on retained (dealiased) modes, where
    nu k^2 h stays CFL-bounded. The three factors are cached on the state
    for the step size they were built for.
    """
    cfg = state.config
    h = cfg.dt if dt is None else dt
    if state.step_factors is None or state.step_factors[0] != h:
        e_full = np.exp(-cfg.nu * state.k2 * h)
        e_half = np.exp(-cfg.nu * state.k2 * (h / 2.0))
        e_back = np.exp(np.minimum(cfg.nu * state.k2 * (h / 2.0), 200.0)) * state.dealias
        state.step_factors = (h, e_full, e_half, e_back)
    _, e_full, e_half, e_back = state.step_factors

    u0 = state.vhat
    u1 = e_full * (u0 + h * explicit_rhs(state, u0))
    u_half = 0.75 * e_half * u0 + 0.25 * e_back * (u1 + h * explicit_rhs(state, u1))
    u_new = (e_full * u0 + 2.0 * e_half * (u_half + h * explicit_rhs(state, u_half))) / 3.0
    if not np.all(np.isfinite(u_new)):
        raise FloatingPointError("non-finite state: numerical blow-up")
    state.vhat = state.leray_project(u_new)
    state.t += h
    return state


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

@dataclass
class DiagnosticsFrame:
    t: float
    v2_h2: float
    lap_v2_neq: float
    dx_omega2: float
    p0_v3_h1: float
    v_h2: float
    a1: float
    a2: float
    a3: float
    liftup_residual: float
    recovery_residual: float
    divergence: float
    tail_fraction: float
    m0: float
    m1: float


def liftup_profile_residual(nu: float, gamma: float, k_f: float, a2: float) -> float:
    """Closed-form steady lift-up profile: residual of
    -nu Lap v1 + a2 d_y v1 + (gamma cos(k_f y)/(nu k_f)) a2 = 0 on a y-grid."""
    y = np.linspace(0.0, 2.0 * np.pi / k_f, 128, endpoint=False)
    denom = (nu * k_f) ** 2 + a2**2
    pref = gamma * a2 / (nu * k_f**2)
    v1 = -pref * (nu * k_f * np.cos(k_f * y) + a2 * np.sin(k_f * y)) / denom
    lap = -pref * (-(k_f**2)) * (nu * k_f * np.cos(k_f * y) + a2 * np.sin(k_f * y)) / denom
    dy = -pref * (-nu * k_f**2 * np.sin(k_f * y) + a2 * k_f * np.cos(k_f * y)) / denom
    res = -nu * lap + a2 * dy + gamma * np.cos(k_f * y) / (nu * k_f) * a2
    scale = max(np.max(np.abs(v1)) * max(nu * k_f**2, abs(a2) * k_f), abs(a2), 1e-300)
    return float(np.max(np.abs(res)) / scale)


def velocity_recovery_residual(state: SpectralField3D) -> float:
    """Exact Fourier identity on modes with kx^2+kz^2 != 0:
    v1 = (dx^2+dz^2)^(-1)(dz w2 - dx dy v2), v3 = -(...)(dx w2 + dz dy v2)."""
    v = state.vhat
    kx, ky, kz = state.kx, state.ky, state.kz
    w2 = 1j * (kz * v[0] - kx * v[2])
    kh2 = np.broadcast_to(kx**2 + kz**2, v[0].shape)
    sel = kh2 > 0
    rhs1 = (1j * kz * w2 - (1j * kx) * (1j * ky) * v[1]) / np.where(sel, -kh2, 1.0)
    rhs3 = -(1j * kx * w2 + (1j * kz) * (1j * ky) * v[1]) / np.where(sel, -kh2, 1.0)
    scale = max(np.max(np.abs(v[0][sel])) if sel.any() else 0.0,
                np.max(np.abs(v[2][sel])) if sel.any() else 0.0, 1e-300)
    d1 = np.max(np.abs((v[0] - rhs1)[sel])) if sel.any() else 0.0
    d3 = np.max(np.abs((v[2] - rhs3)[sel])) if sel.any() else 0.0
    return float(max(d1, d3) / scale)


class DiagnosticsTracker:
    """Streams frames and maintains the running suprema M0, M1."""

    def __init__(self, config: DNSConfig):
        self.config = config
        self.m0 = 0.0
        self.m1 = 0.0
        self.frames: list[DiagnosticsFrame] = []

    def frame(self, state: SpectralField3D) -> DiagnosticsFrame:
        cfg = self.config
        v = state.vhat
        kx, kz = state.kx, state.kz
        lap_v2_neq_hat = np.where(kx != 0, -state.k2 * v[1], 0.0)
        lap_v2_neq = float(np.sqrt(state.inner(lap_v2_neq_hat, lap_v2_neq_hat)))
        dx_w2_hat = 1j * kx * (1j * (kz * v[0] - kx * v[2]))
        dx_w2 = float(np.sqrt(state.inner(dx_w2_hat, dx_w2_hat)))
        p0 = np.zeros_like(v[2])
        p0[0, :, :] = v[2][0, :, :]
        p0_v3_h1 = state.h1_norm(p0)
        v2_h2 = state.h2_norm(v[1][None])
        v_h2 = state.h2_norm()
        a = [float(v[c][0, 0, 0].real) for c in range(3)]
        w = np.exp(cfg.c_prime * np.sqrt(abs(cfg.gamma)) * state.t)
        m0_now = v2_h2 + w * lap_v2_neq + w * dx_w2 + p0_v3_h1
        self.m0 = max(self.m0, m0_now)
        self.m1 = max(self.m1, v_h2)
        fr = DiagnosticsFrame(
            t=state.t, v2_h2=v2_h2, lap_v2_neq=lap_v2_neq, dx_omega2=dx_w2,
            p0_v3_h1=p0_v3_h1, v_h2=v_h2, a1=a[0], a2=a[1], a3=a[2],
            liftup_residual=liftup_profile_residual(cfg.nu, cfg.gamma, cfg.k_f, a[1]),
            recovery_residual=velocity_recovery_residual(state),
            divergence=state.divergence_max(),
            tail_fraction=state.tail_fraction(),
            m0=self.m0, m1=self.m1,
        )
        self.frames.append(fr)
        return fr


# ---------------------------------------------------------------------------
# runs and the threshold sweep
# ---------------------------------------------------------------------------

def run_simulation(config: DNSConfig, sample_every: int = 25,
                   early_exit: bool = True) -> dict:
    """Run to t_end (or early exit once the x-dependent energy collapses);
    returns the outcome record with the diagnostics trail."""
    state = init_perturbation(config)
    tracker = DiagnosticsTracker(config)
    fr0 = tracker.frame(state)
    e_neq0 = max(fr0.lap_v2_neq**2, 1e-300)
    v0_h2 = max(fr0.v_h2, 1e-300)
    steps = int(np.ceil(config.t_end / config.dt - 1e-9))
    outcome = "persisted"
    try:
        for j in range(steps):
            step_imex(state)
            if (j + 1) % sample_every == 0 or j == steps - 1:
                fr = tracker.frame(state)
                ratio = fr.lap_v2_neq**2 / e_neq0
                if early_exit and ratio <= EARLY_EXIT_RATIO:
                    outcome = "decayed"
                    break
        else:
            ratio = tracker.frames[-1].lap_v2_neq**2 / e_neq0
            if ratio <= DECAY_ENERGY_RATIO:
                outcome = "decayed"
    except FloatingPointError:
        outcome = "blew-up(numerical)"
    frames = tracker.frames
    rate = np.nan
    if outcome == "decayed" and len(frames) >= 6:
        t = np.array([f.t for f in frames])
        yv = np.array([f.lap_v2_neq for f in frames])
        ok = yv > 1e-150
        t, yv = t[ok], yv[ok]
        t_min = 2.0 / np.sqrt(abs(config.gamma))
        sel = t >= t_min
        if sel.sum() >= 4:
            rate = -np.polyfit(t[sel], np.log(yv[sel]), 1)[0]
    resolved = all(f.tail_fraction <= TAIL_FRACTION_LIMIT for f in frames)
    return {
        "outcome": outcome,
        "rate_neq": float(rate),
        "m0": tracker.m0,
        "m1": tracker.m1,
        "m0_over_v0": tracker.m0 / v0_h2,
        "v0_h2": v0_h2,
        "resolved": resolved,
        "tracker": tracker,
        "config": config,
        "final_state": state,
    }


@dataclass
class ThresholdMap:
    rows: list[dict] = field(default_factory=list)

    def eps_star(self, nu: float) -> float:
        """Largest swept amplitude that still decayed (0 if none)."""
        decayed = [r["epsilon"] for r in self.rows
                   if r["nu"] == nu and r["outcome"] == "decayed"]
        return max(decayed, default=0.0)

    def bracketed(self, nu: float) -> bool:
        """Whether the sweep at nu brackets the threshold: some of its cells
        decayed and some did not. If not, eps_star(nu) is only a bound."""
        decayed = {r["outcome"] == "decayed" for r in self.rows if r["nu"] == nu}
        return decayed == {True, False}

    def monotone_in_nu(self) -> bool:
        nus = sorted({r["nu"] for r in self.rows})
        stars = [self.eps_star(nu) for nu in nus]
        return all(b >= a - 1e-300 for a, b in zip(stars, stars[1:]))

    def as_record(self) -> dict:
        return {"rows": [{k: r[k] for k in
                          ("nu", "gamma", "epsilon", "seed", "outcome",
                           "rate_neq", "m0", "m1", "resolved")}
                         for r in self.rows],
                "monotone_in_nu": self.monotone_in_nu(),
                "bracketed": {nu: self.bracketed(nu)
                              for nu in sorted({r["nu"] for r in self.rows})}}


def _sweep_row(cell: tuple[DNSConfig, int]) -> dict:
    """One threshold-sweep cell, run from its config; module level, so a
    process pool can send it to a worker."""
    cfg, sample_every = cell
    out = run_simulation(cfg, sample_every=sample_every)
    return {"nu": cfg.nu, "gamma": cfg.gamma, "epsilon": cfg.epsilon, "seed": cfg.seed,
            "outcome": out["outcome"], "rate_neq": out["rate_neq"],
            "m0": out["m0"], "m1": out["m1"], "resolved": out["resolved"]}


def run_threshold_sweep(nus, epsilons, template: dict | None = None,
                        sample_every: int = 25, jobs: int = 1) -> ThresholdMap:
    """(nu, eps) outcome map; gamma follows the template (default gamma=nu).

    Cells run in (nu, eps) order, on a pool of min(jobs, cells) worker
    processes when that is more than one; the pool maps over the built
    configs, so a template's `gamma_of` never leaves this process. Rows come
    back in cell order, and outcomes are deterministic given the seed, so
    the map does not depend on `jobs`. Monotonicity report: the
    decayed/persisted boundary eps*(nu) must not decrease with nu.
    """
    template = dict(template or {})
    gamma_of = template.pop("gamma_of", lambda nu: nu)
    cells = [(DNSConfig(nu=nu, gamma=gamma_of(nu), epsilon=eps, **template), sample_every)
             for nu in nus for eps in epsilons]
    workers = min(jobs, len(cells))
    if workers <= 1:
        return ThresholdMap(rows=[_sweep_row(c) for c in cells])
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return ThresholdMap(rows=list(pool.map(_sweep_row, cells)))


# ---------------------------------------------------------------------------
# restart checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(state: SpectralField3D, path) -> None:
    """Columnar restart file: every DNSConfig field, the time, and the
    half-spectrum coefficient array (3, nx, ny, nz//2+1) as complex128."""
    cfg = state.config
    np.savez(path, vhat=state.vhat, t=state.t,
             **{f.name: getattr(cfg, f.name) for f in fields(DNSConfig)})


def load_checkpoint(path) -> SpectralField3D:
    """Restart state; a config field the file lacks (older files store no
    nonlinear, background, cfl or filter_fraction) takes its default. A
    full-spectrum vhat (last axis nz, written before the half layout) is
    cut to its kz >= 0 half."""
    with np.load(path) as data:
        kw = {f.name: data[f.name].item() for f in fields(DNSConfig)
              if f.name != "n" and f.name in data.files}
        state = SpectralField3D(DNSConfig(n=tuple(int(m) for m in data["n"]), **kw))
        vhat = data["vhat"]
        full = (3,) + state.shape
        if vhat.shape == full:
            vhat = vhat[..., : state.vhat.shape[-1]].copy()
        if vhat.shape != state.vhat.shape:
            raise ValueError(f"checkpoint vhat has shape {vhat.shape}; expected "
                             f"{state.vhat.shape} or the full-spectrum {full}")
        state.vhat = vhat
        state.t = float(data["t"])
    return state
