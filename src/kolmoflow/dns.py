"""Desk-scale 3D pseudo-spectral solver around the Kolmogorov flow.

Evolves the perturbation V = U - U* (so the sinusoidal base flow stays an
exact steady state) on the box x,z in T_{2pi}, y in T_{2pi/k_f}:

    dV/dt + U* dV/dx + v2 dU*/dy e_x - nu Lap V + (V.grad)V + grad P = 0,
    div V = 0,  U* = gamma/(nu k_f^2) sin(k_f y).

Time stepping is an integrating-factor SSP-RK3: the viscous term is exact
(e^{-nu |k|^2 dt}), advection and background coupling are explicit, third
order overall. The quadratic term uses the rotation form V x omega, which
is -(V.grad)V up to the gradient of |V|^2/2 that the projection removes
(pointwise energy-neutral even after masking), with 2/3-rule dealiasing;
the background terms are single +-k_f harmonics, which on this box are one
k_y grid step, so they are exact spectral shifts with no aliasing. Every
stage ends with a Leray projection; the retained mode set is closed under
the dynamics.

The stages therefore run on the retained 2/3-rule box alone, in compact fft order,
with work buffers that live on the state. The transforms are numpy's own,
pruned: the inverse transforms along x and y only the lines that carry
retained modes, and the forward keeps only the retained rows after each
axis. Each transformed line sees the values it would see in the full
irfftn/rfftn, so the step is bit-identical to stepping the whole masked
half spectrum. The initial perturbation fills the box (the dealias
fraction 1/3 of each axis), so `tail_fraction`, the energy fraction off the
box, reads exactly 0.

Fields are stored as normalized Fourier coefficients: v = sum c_k e^{ik.x},
so the (0,0,0) coefficient is the volume mean and Parseval reads
int |v|^2 = Vol * sum |c_k|^2. The fields are real, so only the rfftn half
spectrum kz >= 0 is held, shape (3, nx, ny, nz//2+1); the kz < 0 modes are
the conjugates c_{-k} = conj(c_k). Sums over the full spectrum therefore
weight each stored mode by its multiplicity: 1 on the self-conjugate kz = 0
and Nyquist planes, 2 elsewhere (`SpectralField3D.inner`). `vhat` keeps this
full half layout, zero off the box, so diagnostics and tables sum over the
same arrays as a full-spectrum solver would.

`run_threshold_sweep` is the one (nu, eps) sweep: the `threshold`
subcommand and acceptance criterion 9 both call it, and it runs its cells
through `spectral.process_map`, over every CPU in the affinity mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import ConfigurationError, process_map, step_count

TAIL_FRACTION_LIMIT = 1e-6
DECAY_ENERGY_RATIO = 1e-8   # x-dependent energy drop that counts as decayed
EARLY_EXIT_RATIO = 1e-12
CFL = 0.5  # dt * (max|U*| + 2 epsilon) / dx, the default and the largest allowed


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
    c_prime: float = 0.1
    nonlinear: bool = True

    def __post_init__(self):
        if not (0 < self.k_f < 1):
            raise ConfigurationError(f"DNS requires k_f in (0,1), got {self.k_f}")
        if any(m % 2 for m in self.n):
            raise ConfigurationError("resolutions must be even")
        if self.nu <= 0:
            raise ConfigurationError("nu must be positive")
        if self.epsilon < 0:
            raise ConfigurationError(f"epsilon must be non-negative, got {self.epsilon}")
        if self.t_end is None:
            if self.gamma == 0:
                raise ConfigurationError(
                    "gamma = 0 needs an explicit t_end: the default horizon "
                    "50/sqrt|gamma| is infinite")
            self.t_end = 50.0 / np.sqrt(abs(self.gamma))
        u_star = abs(self.gamma) / (self.nu * self.k_f**2)
        dx = 2.0 * np.pi / max(self.n)
        if self.dt is None:
            self.dt = CFL * dx / max(u_star + 2.0 * self.epsilon, 1e-12)
        if self.dt * (u_star + 2.0 * self.epsilon) / dx > CFL * (1 + 1e-9):
            raise ConfigurationError(
                f"dt={self.dt:.3g} violates the CFL {CFL} estimate")


def _wavenumbers(n: tuple[int, int, int]):
    """Integer wavenumbers of the half-spectrum layout, broadcast to 3D:
    fft order along x and y, 0..nz/2 along z."""
    nx, ny, nz = n
    return (np.fft.fftfreq(nx, 1.0 / nx)[:, None, None],
            np.fft.fftfreq(ny, 1.0 / ny)[None, :, None],
            np.fft.rfftfreq(nz, 1.0 / nz)[None, None, :])


def _runs(c: int, m: int) -> list[tuple[slice, slice]]:
    """(compact, full) slice pairs of the retained runs 0..c and -c..-1 of
    an axis of length m in fft order."""
    runs = [(slice(0, c + 1), slice(0, c + 1))]
    if c:
        runs.append((slice(c + 1, 2 * c + 1), slice(m - c, m)))
    return runs


def _project(w: np.ndarray, kx, ky, kz, k2_safe) -> np.ndarray:
    """Leray projection of w in place: remove its k-parallel part."""
    kv = (kx * w[0] + ky * w[1] + kz * w[2]) / k2_safe
    w[0] -= kx * kv
    w[1] -= ky * kv
    w[2] -= kz * kv
    return w


class SpectralField3D:
    """Divergence-free perturbation velocity as Fourier coefficients.

    Layout: vhat[c, ix, iy, iz], the rfftn half spectrum (3, nx, ny, nz//2+1);
    x,z wavenumbers are integers, y wavenumbers are k_f * integers (box
    2pi/k_f). The kz < 0 half is implied by Hermitian symmetry.

    The dynamics live on the retained 2/3-rule box (`dealias`). `vhat[box]`
    gathers it in compact fft order, shape (3,) + box_shape with box_shape
    (2cx+1, 2cy+1, cz+1): indices 0..c then -c..-1 along x and y, 0..c along
    z. The `box_k*` arrays are the wavenumbers of that layout. The
    time stepper reads and writes only the box; `vhat` is zero off it.
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
        # the strict 2/3 rule |k| < n/3 on each axis: where 3 divides n, two
        # |k| = n/3 modes make 2n/3, which aliases onto -n/3
        keep = [np.abs(i) < m / 3.0 for i, m in zip((self.kx, iy, self.kz), config.n)]
        self.dealias = keep[0] & keep[1] & keep[2]
        self.vhat = np.zeros((3, nx, ny, nz // 2 + 1), dtype=complex)
        self.t = 0.0

        kx, ky, kz = (np.flatnonzero(k) for k in keep)
        rx, ry, rz = self.box_shape = (kx.size, ky.size, kz.size)
        self.box = (Ellipsis, kx[:, None], ky[None, :], slice(0, rz))
        self.box_kx = self.kx[kx]
        self.box_ky = self.ky[:, ky]
        self.box_kz = self.kz[..., :rz]
        self.box_k2 = self.k2[self.box]
        self.box_k2_safe = self.k2_safe[self.box]
        # the viscous integrating factors of step_imex, for the step config.dt
        self.e_full = np.exp(-config.nu * self.box_k2 * config.dt)
        self.e_half = np.exp(-config.nu * self.box_k2 * (config.dt / 2.0))
        self.e_back = np.exp(np.minimum(config.nu * self.box_k2 * (config.dt / 2.0), 200.0))
        self._x_runs, self._y_runs = _runs(rx // 2, nx), _runs(ry // 2, ny)
        # work buffers of the step and its right-hand sides. The zero-padded
        # ones are only ever written on their retained slots. The z-line
        # buffer is free while the products are formed, so it holds their
        # scratch field. _stage holds u0, u1, u_half, a stage's right-hand
        # side and one of its terms.
        self._pad_x = np.zeros((6, nx, ry, rz), dtype=complex)
        self._pad_y = np.zeros((6, nx, ny, rz), dtype=complex)
        self._lines = np.empty((6, nx, ny, rz), dtype=complex)
        self._phys = np.empty((6, nx, ny, nz))
        self._prod = np.empty((3, nx, ny, nz))
        self._scratch = self._lines.reshape(-1).view(float)[: nx * ny * nz].reshape(nx, ny, nz)
        self._half = np.empty((3, nx, ny, nz // 2 + 1), dtype=complex)
        self._stack = np.empty((6, rx, ry, rz), dtype=complex)
        self._stage = np.empty((5, 3, rx, ry, rz), dtype=complex)

    # -- transforms (normalized coefficients, batched over leading axes) -----
    def box_to_physical(self, c: np.ndarray) -> np.ndarray:
        """Physical values of m <= 6 fields of box coefficients, shape
        (m,) + box_shape: numpy's irfftn of their zero-padded half spectrum, pruned. The x
        transform runs only on the retained (y, z) lines and the y transform
        only on the retained z lines, so every line that is transformed sees
        the same values, in the same axis order, as in the full irfftn.
        Returns a work buffer that the next call overwrites."""
        m = len(c)
        pad_x, pad_y = self._pad_x[:m], self._pad_y[:m]
        for cx, fx in self._x_runs:
            pad_x[:, fx] = c[:, cx]
        for cy, fy in self._y_runs:
            np.fft.ifft(pad_x[:, :, cy], axis=1, norm="forward", out=pad_y[:, :, fy])
        lines = np.fft.ifft(pad_y, axis=2, norm="forward", out=self._lines[:m])
        return np.fft.irfft(lines, n=self.shape[2], axis=3, norm="forward",
                            out=self._phys[:m])

    def box_to_spectral(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Box coefficients of m <= 3 physical fields (m, nx, ny, nz): numpy's
        rfftn, keeping kz <= cz after the z transform and the retained rows
        after the y and x transforms."""
        m = len(v)
        half = np.fft.rfft(v, axis=3, norm="forward", out=self._half[:m])
        _, ry, rz = self.box_shape
        lines = np.fft.fft(half[..., :rz], axis=2, norm="forward", out=self._lines[:m])
        spec_x = self._lines[3:3 + m, :, :ry]  # the half the y lines leave free
        for cy, fy in self._y_runs:
            np.fft.fft(lines[:, :, fy], axis=1, norm="forward", out=spec_x[:, :, cy])
        for cx, fx in self._x_runs:
            out[:, cx] = spec_x[:, fx]
        return out

    # -- algebra -------------------------------------------------------------
    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        """Re int a . conj(b) over the box, for half-spectrum coefficients."""
        return float(self.vol * np.sum(self.weight * (a * np.conj(b)).real))

    def project_box(self, c: np.ndarray) -> np.ndarray:
        """Leray projection of box coefficients, in place."""
        return _project(c, self.box_kx, self.box_ky, self.box_kz, self.box_k2_safe)

    def divergence_max(self) -> float:
        div = np.abs(self.kx * self.vhat[0] + self.ky * self.vhat[1]
                     + self.kz * self.vhat[2])
        scale = max(np.max(np.abs(self.vhat)), 1e-300)
        return float(div.max() / scale)

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
    supported on the retained 2/3-rule box: the box coefficients of the
    negated standard-normal draw of `config.seed`, projected."""
    state = SpectralField3D(config)
    if config.epsilon == 0.0:
        return state
    rng = np.random.default_rng(config.seed)
    c = state.box_to_spectral(-rng.standard_normal((3,) + config.n),
                              np.empty((3,) + state.box_shape, dtype=complex))
    c[:, 0, 0, 0] = 0.0  # perturbation carries no mean flow
    state.vhat[state.box] = state.project_box(c)
    h2 = state.h2_norm()
    if h2 > 0:
        state.vhat *= config.epsilon / h2
    return state


def _shift_ky(w: np.ndarray, s: int, out: np.ndarray) -> np.ndarray:
    """Shift the compact y axis (axis -2, fft order 0..c, -c..-1) of box
    coefficients by s = +-1 grid steps (multiplication by e^{+-i k_f y}).

    The mode shifted past +-c falls off the box, and the slot it vacates
    (-c for s = +1, +c for s = -1) is zero."""
    c = w.shape[-2] // 2
    if s == 1:
        out[..., 1:, :] = w[..., :-1, :]
        out[..., 0, :] = w[..., -1, :]
        out[..., (c + 1) % (2 * c + 1), :] = 0.0
    elif s == -1:
        out[..., :-1, :] = w[..., 1:, :]
        out[..., -1, :] = w[..., 0, :]
        out[..., c, :] = 0.0
    else:
        raise ValueError(f"shift must be +-1, got {s}")
    return out


def background_rhs(state: SpectralField3D, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """-(U* dx V + v2 dU*/dy e_x) on the box via exact +-k_f spectral shifts."""
    cfg = state.config
    amp = cfg.gamma / (cfg.nu * cfg.k_f**2)
    up, down = state._stack[:3], state._stack[3:]  # free until the nonlinear term
    # sin(k_f y) dx V = (shift up - shift down)/(2i) of i kx V
    rhs = np.multiply((-0.5 * amp) * state.box_kx,
                      np.subtract(_shift_ky(v, 1, up), _shift_ky(v, -1, down), out=up),
                      out=out)
    lift = cfg.gamma / (cfg.nu * cfg.k_f)
    cos_v2 = np.add(_shift_ky(v[1], 1, up[0]), _shift_ky(v[1], -1, down[0]), out=up[0])
    cos_v2 *= lift
    cos_v2 /= 2.0
    rhs[0] -= cos_v2
    return rhs


def nonlinear_rhs(state: SpectralField3D, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Rotation form V x omega of the advection term -(V.grad)V (the
    |V|^2/2 gradient falls to the projection) on the box. One batched
    pruned inverse transform of (V, omega) and one pruned forward transform
    of the products, which keeps only the box: the 2/3 rule."""
    kx, ky, kz = state.box_kx, state.box_ky, state.box_kz
    both = state._stack
    both[:3] = v
    both[3] = 1j * (ky * v[2] - kz * v[1])
    both[4] = 1j * (kz * v[0] - kx * v[2])
    both[5] = 1j * (kx * v[1] - ky * v[0])
    vx, vy, vz, wx, wy, wz = state.box_to_physical(both)
    prod, scratch = state._prod, state._scratch
    for p, (a, b, c, d) in zip(prod, ((wz, vy, wy, vz), (wx, vz, wz, vx), (wy, vx, wx, vy))):
        np.multiply(a, b, out=p)
        p -= np.multiply(c, d, out=scratch)
    return state.box_to_spectral(prod, out)


def explicit_rhs(state: SpectralField3D, what: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Projected background and advection terms of box coefficients."""
    cfg = state.config
    out[...] = 0.0  # the terms add onto +0.0, so a -0.0 term ends up +0.0
    term = state._stage[4]
    out += background_rhs(state, what, term)
    if cfg.nonlinear:
        out += nonlinear_rhs(state, what, term)
    return state.project_box(out)


def step_imex(state: SpectralField3D) -> SpectralField3D:
    """One integrating-factor SSP-RK3 step of size h = config.dt on the
    retained box.

    Shu-Osher stages mapped through the viscous integrating factor:
        u1     = E(h) (u0 + h N(u0))
        u_half = 3/4 E(h/2) u0 + 1/4 E(-h/2) (u1 + h N(u1))
        u_new  = 1/3 E(h) u0 + 2/3 E(h/2) (u_half + h N(u_half))
    u0 is gathered from `vhat` once and u_new scattered back once; the
    stages run in work buffers of the state. On the box nu k^2 h stays
    CFL-bounded, so the E(-h/2) growth factor is harmless. The state builds
    the three factors once.
    """
    h = state.config.dt
    u0, u1, u_half, rhs = state._stage[:4]

    def euler(u):  # u + h N(u), in the rhs buffer
        out = explicit_rhs(state, u, rhs)
        out *= h
        out += u
        return out

    u0[...] = state.vhat[state.box]
    np.multiply(state.e_full, euler(u0), out=u1)
    np.multiply(0.75 * state.e_half, u0, out=u_half)
    u_half += np.multiply(0.25 * state.e_back, euler(u1), out=rhs)
    u_new = np.multiply(state.e_full, u0, out=u1)
    u_new += np.multiply(2.0 * state.e_half, euler(u_half), out=rhs)
    u_new /= 3.0
    if not np.all(np.isfinite(u_new)):
        raise FloatingPointError("non-finite state: numerical blow-up")
    state.vhat[state.box] = state.project_box(u_new)
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
    steps = step_count(config.t_end, config.dt)
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
        "m0_over_v0": tracker.m0 / max(fr0.v_h2, 1e-300),
        "resolved": resolved,
        "tracker": tracker,
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
        return {"rows": [dict(r) for r in self.rows],
                "monotone_in_nu": self.monotone_in_nu(),
                "bracketed": {nu: self.bracketed(nu)
                              for nu in sorted({r["nu"] for r in self.rows})}}


def _sweep_row(cell: tuple[DNSConfig, int]) -> dict:
    """One threshold-sweep cell, run from its config."""
    cfg, sample_every = cell
    out = run_simulation(cfg, sample_every=sample_every)
    return {"nu": cfg.nu, "gamma": cfg.gamma, "epsilon": cfg.epsilon, "seed": cfg.seed,
            "outcome": out["outcome"], "rate_neq": out["rate_neq"],
            "m0": out["m0"], "m1": out["m1"], "resolved": out["resolved"]}


def run_threshold_sweep(nus, epsilons, template: dict | None = None,
                        sample_every: int = 25) -> ThresholdMap:
    """(nu, eps) outcome map; gamma follows the template (default gamma=nu).

    Cells run through `process_map`: this process runs the first, and
    forked children share the rest when the affinity mask holds more than
    one CPU. Rows come back in (nu, eps) order, and outcomes are
    deterministic given the seed, so the map does not depend on the CPU
    count. Monotonicity report: the decayed/persisted boundary eps*(nu)
    must not decrease with nu.
    """
    template = dict(template or {})
    gamma_of = template.pop("gamma_of", lambda nu: nu)
    cells = [(DNSConfig(nu=nu, gamma=gamma_of(nu), epsilon=eps, **template), sample_every)
             for nu in nus for eps in epsilons]
    return ThresholdMap(rows=process_map(_sweep_row, cells))
