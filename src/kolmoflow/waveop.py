"""Wave operators for the shear profile u(y) = -cos y.

D1 turns multiplication-plus-Helmholtz-inverse compositions into plain
multiplication with a controlled remainder:

    D1(cos y (1 + (d^2-a^2)^(-1)) w) = cos y D1(w) - (d^2-a^2)^(-1) w,

and D2 = shift(-pi/2) o D1 o shift(pi/2) does the same with sin y. Everything
is built from one auxiliary profile phi1(y, c): the regularized Rayleigh
solution with ((u-c)^2 phi1')' = a^2 (u-c)^2 phi1, phi1(y_c)=1, phi1'(y_c)=0,
solved outward from the critical point y_c (series-seeded within 1e-2 of
y_c to avoid the coordinate degeneracy). phi1 >= 1 and grows monotonically
in |y - y_c|; grows like e^{a|y-y_c|}, so keep a below ~200 for float64.

The y_c-space formulas mix a principal-value integral (handled by analytic
subtraction of the 1/(u-c) pole: its p.v. integral over [0, pi] vanishes
exactly) with regular quadratures on the input grid. Each operator owns its
valid sets, the read-only masks `valid_D1` and `valid_D2` of the output
points at least `margin` from the endpoints, where the endpoint coefficients
J_j degenerate; `apply_D1` and `apply_D2` return the values only, zero off
those sets.

A build solves the profiles of its c-nodes through `spectral.process_map`:
in the building process and in forked children, one process per CPU in
its affinity mask, or in the building process alone when that mask holds
one CPU. Each node is solved by the same code wherever it runs, so the
tables do not depend on the number of CPUs, to the bit.

scipy.integrate and scipy.interpolate are imported inside the functions that
use them, so importing this module loads neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .spectral import ConfigurationError, process_map

SERIES_RADIUS = 1e-2
ENDPOINT_MARGIN = 0.02
PROFILE_RTOL = 1e-11  # DOP853 relative tolerance of the profile ODE
_C_LIMIT = 1e-3  # reject y_c within this of {0, pi}


def u_of(y):
    return -np.cos(y)


@dataclass
class RayleighProfile:
    """phi1(., c) tabulated on the half grid [0, pi] plus endpoint data."""

    c: float
    y_c: float
    alpha: float
    y: np.ndarray
    phi1: np.ndarray
    dphi1: np.ndarray
    phi1_0: float
    dphi1_0: float
    phi1_pi: float
    dphi1_pi: float
    dense_left: object
    dense_right: object

    def check_invariants(self) -> None:
        tol = 1e-8  # relative slack of the phi1 >= 1 and monotonicity checks
        # normalization: the tabulated values next to y_c must match the
        # regular series seeded at phi1(y_c)=1, phi1'(y_c)=0
        i = np.argmin(np.abs(self.y - self.y_c))
        s = self.y[i] - self.y_c
        phi_ref, dphi_ref = _series_eval(self.alpha, self.y_c, s)
        scale = max(1.0, self.alpha**2)
        if abs(self.phi1[i] - phi_ref) > 1e-6 * scale or \
                abs(self.dphi1[i] - dphi_ref) > 1e-4 * scale:
            raise RuntimeError("phi1 normalization violated at the critical point")
        if np.min(self.phi1) < 1.0 - tol:
            raise RuntimeError("phi1 >= 1 violated")
        right = self.y >= self.y_c
        if np.any(np.diff(self.phi1[right]) < -tol * np.max(self.phi1)):
            raise RuntimeError("phi1 monotonicity violated right of y_c")
        left = self.y <= self.y_c
        if np.any(np.diff(self.phi1[left]) > tol * np.max(self.phi1)):
            raise RuntimeError("phi1 monotonicity violated left of y_c")


def _series_eval(alpha: float, y_c: float, s):
    """phi1 and phi1' from the regular series at the critical point.

    phi1 = 1 + a2 s^2 + a3 s^3 + a4 s^4 with a2 = a^2/6,
    a3 = -a^2 cos(y_c) / (36 sin(y_c)),
    a4 = a^2 cos^2(y_c)/(80 sin^2(y_c)) + a^2/90 + a^4/120.
    """
    sn, cs = np.sin(y_c), np.cos(y_c)
    a2 = alpha**2 / 6.0
    a3 = -(alpha**2) * cs / (36.0 * sn)
    a4 = alpha**2 * cs**2 / (80.0 * sn**2) + alpha**2 / 90.0 + alpha**4 / 120.0
    phi = 1.0 + a2 * s**2 + a3 * s**3 + a4 * s**4
    dphi = 2 * a2 * s + 3 * a3 * s**2 + 4 * a4 * s**3
    return phi, dphi


def solve_phi1(c: float, alpha: float, y_half: np.ndarray) -> RayleighProfile:
    """Solve the profile ODE outward from y_c in both directions.

    Integrates the quasi-derivative system (phi1, w) with w = (u-c)^2 phi1',
    which stays regular through the critical layer; the first SERIES_RADIUS
    around y_c comes from the series expansion.
    """
    from scipy.integrate import solve_ivp

    if not (-1.0 < c < 1.0):
        raise ConfigurationError(f"c must lie in (-1, 1), got {c}")
    if alpha <= 1.0:
        raise ConfigurationError(f"wave operators are built for alpha > 1, got {alpha}")
    y_c = float(np.arccos(-c))
    if y_c < _C_LIMIT or y_c > np.pi - _C_LIMIT:
        raise ConfigurationError(
            f"y_c={y_c:.4g} within {_C_LIMIT} of an endpoint: profile rejected")

    def rhs(y, z):
        q2 = (u_of(y) - c) ** 2
        return [z[1] / q2, alpha**2 * q2 * z[0]]

    eps = min(SERIES_RADIUS, 0.45 * min(y_c, np.pi - y_c))
    sols = {}
    for sign, stop in ((+1, np.pi), (-1, 0.0)):
        y0 = y_c + sign * eps
        phi0, dphi0 = _series_eval(alpha, y_c, sign * eps)
        w0 = (u_of(y0) - c) ** 2 * dphi0
        sol = solve_ivp(rhs, (y0, stop), [phi0, w0], method="DOP853",
                        rtol=PROFILE_RTOL, atol=1e-12, dense_output=True)
        if not sol.success:  # pragma: no cover - the system is benign
            raise RuntimeError(f"profile integration failed: {sol.message}")
        sols[sign] = sol

    phi1 = np.empty_like(y_half)
    dphi1 = np.empty_like(y_half)
    near = np.abs(y_half - y_c) <= eps
    phi_n, dphi_n = _series_eval(alpha, y_c, y_half[near] - y_c)
    phi1[near], dphi1[near] = phi_n, dphi_n
    for sign in (+1, -1):
        sel = (y_half - y_c) * sign > eps
        if np.any(sel):
            vals = sols[sign].sol(y_half[sel])
            phi1[sel] = vals[0]
            dphi1[sel] = vals[1] / (u_of(y_half[sel]) - c) ** 2

    end_r = sols[+1].sol(np.pi)
    end_l = sols[-1].sol(0.0)
    prof = RayleighProfile(
        c=c, y_c=y_c, alpha=alpha, y=y_half, phi1=phi1, dphi1=dphi1,
        phi1_0=float(end_l[0]), dphi1_0=float(end_l[1] / (u_of(0.0) - c) ** 2),
        phi1_pi=float(end_r[0]), dphi1_pi=float(end_r[1] / (u_of(np.pi) - c) ** 2),
        dense_left=sols[-1].sol, dense_right=sols[+1].sol,
    )
    prof.check_invariants()
    return prof


@dataclass
class WaveOpCoefficients:
    ii: float
    a: float
    b: float
    j0: float
    j1: float
    a1: float
    b1: float
    rho: float


def compute_coefficients(prof: RayleighProfile) -> WaveOpCoefficients:
    """Per-c scalars: II by adaptive quadrature, J_j from endpoint values.

    II's integrand (u-c)^(-2) (phi1^(-2) - 1) is bounded at y_c because
    phi1 - 1 = O((y-y_c)^2); its limit there is -alpha^2/(3 sin^2 y_c).
    """
    from scipy.integrate import quad

    c, y_c, alpha = prof.c, prof.y_c, prof.alpha
    eps = min(SERIES_RADIUS, 0.45 * min(y_c, np.pi - y_c))

    def integrand(y):
        s = y - y_c
        if abs(s) <= eps:
            phi = _series_eval(alpha, y_c, s)[0]
        elif s > 0:
            phi = prof.dense_right(y)[0]
        else:
            phi = prof.dense_left(y)[0]
        q = u_of(y) - c
        if abs(s) < 1e-7:
            return -alpha**2 / (3.0 * np.sin(y_c) ** 2)
        return (1.0 / phi**2 - 1.0) / q**2

    ii, err = quad(integrand, 0.0, np.pi, points=[y_c], limit=200)
    if not np.isfinite(ii) or err > 1e-6 * max(abs(ii), 1.0):
        raise RuntimeError(f"II quadrature did not converge (err={err:.2e})")
    sn, cs = np.sin(y_c), np.cos(y_c)
    a = sn**3 * ii
    b = np.pi * cs
    # J_j(c) = -u'(y_c) (u(j pi) - c)^2 / (phi1((1-j) pi) phi1'((1-j) pi))
    j0 = -sn * (u_of(0.0) - c) ** 2 / (prof.phi1_pi * prof.dphi1_pi)
    j1 = -sn * (u_of(np.pi) - c) ** 2 / (prof.phi1_0 * prof.dphi1_0)
    rho = sn**2
    a1 = j1 - j0 + rho * a
    b1 = rho * b
    return WaveOpCoefficients(ii=float(ii), a=float(a), b=float(b), j0=float(j0),
                              j1=float(j1), a1=float(a1), b1=float(b1), rho=float(rho))


def _solve_node(c: float, alpha: float, y_half: np.ndarray
                ) -> tuple[np.ndarray, WaveOpCoefficients]:
    """phi1 row and coefficients of one c-node. The profile, with its dense
    ODE output, is dropped on return, so only the row and scalars travel."""
    prof = solve_phi1(c, alpha, y_half)
    return prof.phi1, compute_coefficients(prof)


def _check_grid_size(n: int) -> None:
    if n < 8 or n % 4 != 0:
        raise ConfigurationError(
            f"wave-operator grid size must be a multiple of 4 and at least 8, got {n}")


class WaveOperator:
    """D1/D2 realized on a uniform full-period grid y_j = -pi + 2 pi j / N.

    Outputs are defined on the interior c-grid (valid y_c nodes at least
    `margin` from {0, pi}): D1 at +-y_c, the read-only mask `valid_D1`, and
    D2 at those points shifted by pi/2, `valid_D2`. The masks and the per-c
    profile table are immutable after construction and safe to read
    concurrently.
    """

    def __init__(self, alpha: float, n: int, margin: float = ENDPOINT_MARGIN,
                 _defer: bool = False):
        _check_grid_size(n)
        self.alpha = float(alpha)
        self.n = int(n)
        self.margin = float(margin)
        self.h = 2.0 * np.pi / n
        self.y_full = -np.pi + self.h * np.arange(n)
        m = n // 2
        self.y_half = self.h * np.arange(m + 1)  # 0 .. pi inclusive
        interior = np.arange(1, m)
        yc = self.y_half[interior]
        ok = (yc >= margin) & (yc <= np.pi - margin)
        self.valid_half_idx = interior[ok]          # indices into y_half
        self.y_c = self.y_half[self.valid_half_idx]
        valid = np.zeros(n, dtype=bool)
        valid[m + self.valid_half_idx] = valid[m - self.valid_half_idx] = True
        self.valid_D1 = valid
        self.valid_D2 = np.roll(valid, n // 4)
        self.valid_D1.setflags(write=False)
        self.valid_D2.setflags(write=False)
        if _defer:
            return
        import scipy.integrate  # noqa: F401  (forked children inherit it)

        nodes = process_map(partial(_solve_node, alpha=self.alpha, y_half=self.y_half),
                            [float(-np.cos(ycv)) for ycv in self.y_c])
        self._install_tables(
            np.array([phi1 for phi1, _ in nodes]),
            {name: np.array([getattr(cf, name) for _, cf in nodes])
             for name in ("a", "b", "j0", "j1", "a1", "b1", "rho")},
        )

    def _install_tables(self, phi1_table: np.ndarray, coeff: dict) -> None:
        self.phi1_table = phi1_table
        self.coeff = coeff
        # 4th-order Gregory end-corrected trapezoid weights on [0, pi]
        w = np.full(len(self.y_half), self.h)
        for i, wi in ((0, 3.0 / 8.0), (1, 7.0 / 6.0), (2, 23.0 / 24.0)):
            w[i] = wi * self.h
            w[-1 - i] = wi * self.h
        self._trap_w = w
        # grid-only factors of the II_1 integrands: one row per c-node
        k = self.valid_half_idx
        self._diag = (np.arange(len(k)), k)
        self._sin_c = np.sin(self.y_c)
        u = u_of(self.y_half)
        q = u - u[k, None]
        self._q2 = q**2
        self._sin_q = self._sin_c[:, None] * q
        self._phi1_sq = phi1_table**2

    # -- grid plumbing ------------------------------------------------------
    def half_values(self, omega_full: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(odd, even) parts of a full-period grid function on the half grid."""
        m = self.n // 2
        pos = np.empty(m + 1, dtype=complex)   # omega(y), y = 0..pi
        neg = np.empty(m + 1, dtype=complex)   # omega(-y)
        idx = np.arange(m + 1)
        pos[:] = omega_full[(m + idx) % self.n]
        neg[:] = omega_full[(m - idx) % self.n]
        return 0.5 * (pos - neg), 0.5 * (pos + neg)

    def _cumint(self, vals: np.ndarray) -> np.ndarray:
        """4th-order cumulative integral from y=0 along the half grid, taken
        along the last axis (one profile or a stack of rows).

        Gregory end-corrected cumulative trapezoid; the first two prefixes
        use the matching-order Adams-Moulton and Simpson rules. The in-place
        steps keep each element's operation order, and so its rounding.
        """
        h = self.h
        f = vals
        out = np.empty_like(vals)
        out[..., 0] = 0.0
        out[..., 1] = (h / 24.0) * (9.0 * f[..., 0] + 19.0 * f[..., 1]
                                    - 5.0 * f[..., 2] + f[..., 3])
        out[..., 2] = (h / 3.0) * (f[..., 0] + 4.0 * f[..., 1] + f[..., 2])
        trap = f[..., 1:] + f[..., :-1]
        trap *= 0.5 * h
        np.cumsum(trap, axis=-1, out=trap)
        grad = np.subtract(f[..., 3:], f[..., 2:-1], out=out[..., 3:])
        grad -= (f[..., 1] - f[..., 0])[..., None]
        grad *= h / 12.0
        np.subtract(trap[..., 2:], grad, out=grad)
        grad2 = 2 * f[..., 2:-1]
        np.subtract(f[..., 3:], grad2, out=grad2)
        grad2 += f[..., 1:-2]
        grad2 += (f[..., 2] - 2 * f[..., 1] + f[..., 0])[..., None]
        grad2 *= h / 24.0
        out[..., 3:] -= grad2
        return out

    def _ii1(self, phi: np.ndarray, dphi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """II_1 = II_{1,1} + L_0 at every c-grid node, and the rows of g1.

        Row i of the (nodes, m+1) integrand arrays belongs to the node
        valid_half_idx[i]. II_{1,1} carries the principal value: the 1/(u-c)
        pole is subtracted analytically (its p.v. integral vanishes), the
        remainder is regular with limit value
        (phi'(y_c) - phi(y_c) u''/u') / (2 u'(y_c)^2).
        """
        k = self.valid_half_idx
        up, upp = self._sin_c, np.cos(self.y_c)
        cum0 = self._cumint(phi)
        g0 = cum0 - cum0[k, None]
        g1 = self._cumint(phi * self.phi1_table)
        g1 -= g1[self._diag][:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            r = g0 / self._q2
            r -= phi[k, None] / self._sin_q
            t = g1 / self._phi1_sq
            t -= g0
            t /= self._q2
        r[self._diag] = (dphi[k] - phi[k] * upp / up) / (2.0 * up**2)
        t[self._diag] = 0.0
        r *= self._trap_w
        t *= self._trap_w
        return np.sum(r, axis=1) + np.sum(t, axis=1), g1

    def apply_D1(self, omega_full: np.ndarray) -> np.ndarray:
        """D1(omega) on the full-period grid, zero off `valid_D1`.

        The odd input part maps to an odd output, the even part to an even
        output; values within `margin` of y in {0, +-pi} are not computed.
        """
        omega_full = np.asarray(omega_full, dtype=complex)
        if omega_full.shape != (self.n,):
            raise ConfigurationError("omega must live on the operator's grid")
        odd, even = self.half_values(omega_full)
        dodd = np.gradient(odd, self.h)
        deven = np.gradient(even, self.h)
        k = self.valid_half_idx
        up = self._sin_c
        cf = self.coeff
        rho = cf["rho"]
        ii1_o, _ = self._ii1(odd, dodd)
        d1_odd = (rho * ii1_o - 1j * np.pi * odd[k]) / (cf["a"] + 1j * cf["b"])
        ii1_e, g1_e = self._ii1(even, deven)
        denom_e = up * (cf["a1"] + 1j * cf["b1"])
        d1_even = (rho * up * (rho * ii1_e - 1j * np.pi * even[k])
                   + cf["j1"] * g1_e[:, 0] - cf["j0"] * g1_e[:, -1]) / denom_e
        m = self.n // 2
        out = np.zeros(self.n, dtype=complex)
        out[m + k] = d1_odd + d1_even        # +y_c
        out[m - k] = -d1_odd + d1_even       # -y_c
        return out

    def apply_D2(self, omega_full: np.ndarray) -> np.ndarray:
        """D2 = shift(-pi/2) o D1 o shift(pi/2), zero off `valid_D2`; exact
        index rolls."""
        q = self.n // 4
        return np.roll(self.apply_D1(np.roll(np.asarray(omega_full, dtype=complex), -q)), q)


_OPERATOR_CACHE: dict[tuple, WaveOperator] = {}


def get_wave_operator(alpha: float, n: int) -> WaveOperator:
    """The cached operator for (alpha, n), masked ENDPOINT_MARGIN from the
    endpoints, built on first use.

    A coarse level is cut from a cached finer operator of the same alpha
    whose n is a power-of-two multiple of the requested one, instead of
    being solved again. The result is bit-identical to a cold build: the
    profiles and coefficients depend only on c and alpha, the dense ODE
    output is evaluated point by point, and the coarse grid points are
    exactly every r-th fine grid point.
    """
    _check_grid_size(n)
    key = (round(float(alpha), 12), int(n))
    if key not in _OPERATOR_CACHE:
        fine = min((op for (a, nf), op in _OPERATOR_CACHE.items()
                    if a == key[0] and nf > n and nf % n == 0
                    and (nf // n) & (nf // n - 1) == 0),
                   key=lambda op: op.n, default=None)
        _OPERATOR_CACHE[key] = (WaveOperator(alpha, n) if fine is None
                                else _coarsen(fine, n))
    return _OPERATOR_CACHE[key]


def _coarsen(fine: WaveOperator, n: int) -> WaveOperator:
    """The level-n operator taken from the tables of a finer one."""
    r = fine.n // n
    op = WaveOperator(fine.alpha, n, _defer=True)
    rows = np.searchsorted(fine.valid_half_idx, r * op.valid_half_idx)
    op._install_tables(fine.phi1_table[rows][:, ::r],
                       {k: v[rows] for k, v in fine.coeff.items()})
    return op


# ---------------------------------------------------------------------------
# spectral helpers on the full-period grid
# ---------------------------------------------------------------------------

def helmholtz_inverse_full(omega: np.ndarray, alpha: float) -> np.ndarray:
    """(d^2 - alpha^2)^(-1) omega, spectrally, on the uniform periodic grid."""
    n = len(omega)
    k = np.fft.fftfreq(n, d=1.0 / n)
    return np.fft.ifft(np.fft.fft(omega) / (-(k**2) - alpha**2))


def spectral_second_derivative(omega: np.ndarray) -> np.ndarray:
    n = len(omega)
    k = np.fft.fftfreq(n, d=1.0 / n)
    return np.fft.ifft(-(k**2) * np.fft.fft(omega))


def fd_derivative(vals: np.ndarray, mask: np.ndarray, h: float, order: int = 1
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Centered 4th-order-accurate local derivative of a masked periodic
    grid function, or of each row of a stack, along the last axis; output
    zero and masked wherever the 5-point stencil touches a masked node
    (local stencils keep interpolation error from spreading)."""
    n = vals.shape[-1]
    idx = np.arange(n)
    st = [(idx + s) % n for s in (-2, -1, 0, 1, 2)]
    ok = mask[st[0]] & mask[st[1]] & mask[st[2]] & mask[st[3]] & mask[st[4]]
    v = [vals[..., s] for s in st]
    if order == 1:
        out = (v[0] - 8 * v[1] + 8 * v[3] - v[4]) / (12 * h)
    elif order == 2:
        out = (-v[0] + 16 * v[1] - 30 * v[2] + 16 * v[3] - v[4]) / (12 * h**2)
    else:
        raise ConfigurationError("order must be 1 or 2")
    out = np.where(ok, out, 0.0)
    return out, ok


def fill_masked(vals: np.ndarray, mask: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cubic interpolation across masked gaps (flagged use only)."""
    if mask.all():
        return vals
    from scipy.interpolate import CubicSpline

    good = np.where(mask)[0]
    yy = np.concatenate([y[good], [y[good[0]] + 2 * np.pi]])
    vv = np.concatenate([vals[good], [vals[good[0]]]])
    spl = CubicSpline(yy, vv)
    out = vals.copy()
    bad = ~mask
    ybad = np.where(y[bad] < yy[0], y[bad] + 2 * np.pi, y[bad])
    out[bad] = spl(ybad)
    return out


# ---------------------------------------------------------------------------
# verification harnesses
# ---------------------------------------------------------------------------

def _grid_norm(vals: np.ndarray, h: float) -> float:
    return float(np.sqrt(h * np.sum(np.abs(vals) ** 2)))


def _masked_norm(vals: np.ndarray, mask: np.ndarray, h: float) -> float:
    return _grid_norm(vals[mask], h)


def intertwining_residual(omegas: dict, alpha: float, ns: list[int]) -> dict:
    """Residuals of the cos-form (D1) and sin-form (D2) exchange identities.

    r = || D(T w) - M * D(w) + K w || / ||w|| over the valid c-grid, with
    T w = M_mult (1 + K) w, K = (d^2 - alpha^2)^(-1). `omegas` maps labels to
    callables y -> values. Pass iff both residual families decrease
    monotonically across `ns` and the finest level is <= 1e-3; `worst` is
    the largest finest-level residual, the one held to that 1e-3.

    The finest level is built first, so that `get_wave_operator` can cut the
    coarser levels whose n divides it by a power of two from its table.
    """
    get_wave_operator(alpha, max(ns))
    rows = []
    for n in ns:
        op = get_wave_operator(alpha, n)
        y = op.y_full
        h = op.h
        for label, fn in omegas.items():
            w = np.asarray(fn(y), dtype=complex)
            kw = helmholtz_inverse_full(w, alpha)
            nw = _grid_norm(w, h)
            lhs1 = op.apply_D1(np.cos(y) * (w + kw))
            d1 = op.apply_D1(w)
            r_cos = _masked_norm(lhs1 - np.cos(y) * d1 + kw, op.valid_D1, h) / nw
            lhs2 = op.apply_D2(np.sin(y) * (w + kw))
            d2 = op.apply_D2(w)
            r_sin = _masked_norm(lhs2 - np.sin(y) * d2 + kw, op.valid_D2, h) / nw
            rows.append({"omega": label, "n": n, "alpha": alpha,
                         "r_cos": r_cos, "r_sin": r_sin})
    verdicts = {}
    for label in omegas:
        seq = [r for r in rows if r["omega"] == label]
        seq.sort(key=lambda r: r["n"])
        dec = all(seq[i + 1]["r_cos"] < seq[i]["r_cos"]
                  and seq[i + 1]["r_sin"] < seq[i]["r_sin"]
                  for i in range(len(seq) - 1))
        final_ok = seq[-1]["r_cos"] <= 1e-3 and seq[-1]["r_sin"] <= 1e-3
        verdicts[label] = bool(dec and final_ok)
    worst = np.max([[r["r_cos"], r["r_sin"]] for r in rows if r["n"] == max(ns)])
    return {"rows": rows, "verdicts": verdicts, "worst": worst,
            "passed": all(verdicts.values())}


def random_smooth_profile(n: int, rng: np.random.Generator, k_max: int = 8
                          ) -> np.ndarray:
    """Band-limited random grid function on the full-period grid."""
    coeffs = np.zeros(n, dtype=complex)
    k = np.fft.fftfreq(n, d=1.0 / n)
    sel = np.abs(k) <= k_max
    coeffs[sel] = rng.standard_normal(sel.sum()) + 1j * rng.standard_normal(sel.sum())
    vals = np.fft.ifft(coeffs) * n
    return vals / _grid_norm(vals, 2.0 * np.pi / n)


def bound_sweep(alphas: list[float], n: int = 256, ensemble: int = 20,
                seed: int = 123) -> dict:
    """Fitted-constant ratio tables for the five commutator/norm bounds.

    Per bound the listed ratio is (left side)/(right side with C := 1), the
    fitted constant is the ensemble sup, and the cross-alpha stability is
    max/min of the per-alpha fits; a nan ratio makes both nan, which fails.
    Derivatives of masked outputs use local 4th-order stencils; stencil
    cells touching the mask are excluded (masked-endpoint contamination is
    flagged, not averaged in).

    Both the probe band and the grid scale with alpha: the extremizers of
    the alpha-uniform bounds live at the critical-layer scale 1/alpha, so a
    fixed band-limited ensemble systematically undersamples them at large
    alpha and the grid must keep that scale resolved: it has
    max(n, 32 alpha) points, rounded up to a multiple of 4.
    """
    if ensemble < 20:
        raise ConfigurationError("bound sweep wants an ensemble of >= 20 profiles")
    per_alpha: dict[float, dict[str, float]] = {}
    for alpha in alphas:
        n_a = int(max(n, 32 * alpha))
        n_a += -n_a % 4   # the wave-operator grid is a multiple of 4
        k_max = int(max(8, alpha))
        op = get_wave_operator(alpha, n_a)
        y, h = op.y_full, op.h
        rng = np.random.default_rng(seed)
        fits = {k: 0.0 for k in ("D1.1", "D1.2", "estD1", "D2.1", "D6")}
        for _ in range(ensemble):
            w = random_smooth_profile(n_a, rng, k_max=k_max)
            dw = np.fft.ifft(1j * np.fft.fftfreq(n_a, 1.0 / n_a) * np.fft.fft(w))
            d2w = spectral_second_derivative(w)
            nw = _grid_norm(w, h)
            ndw = _grid_norm(dw, h)

            sin_d1 = np.sin(y) * op.apply_D1(w)
            fits["D1.1"] = np.maximum(fits["D1.1"],
                                      alpha * _masked_norm(sin_d1, op.valid_D1, h) / nw)
            dsin_d1, ok = fd_derivative(sin_d1, op.valid_D1, h)
            fits["D1.2"] = np.maximum(fits["D1.2"],
                                      _masked_norm(dsin_d1, ok, h) / (nw + ndw / alpha))
            comm = np.sin(y) * op.apply_D1(d2w)
            d2_sin_d1, ok = fd_derivative(sin_d1, op.valid_D1, h, order=2)
            fits["estD1"] = np.maximum(fits["estD1"],
                                       _masked_norm(comm - d2_sin_d1, ok, h)
                                       / (alpha * nw + ndw))

            cos_d2 = np.cos(y) * op.apply_D2(w)
            fits["D2.1"] = np.maximum(fits["D2.1"],
                                      alpha * _masked_norm(cos_d2, op.valid_D2, h) / nw)
            dcos_d2, ok = fd_derivative(cos_d2, op.valid_D2, h)
            fits["D6"] = np.maximum(fits["D6"],
                                    _masked_norm(dcos_d2, ok, h) / (nw + ndw / alpha))
        per_alpha[alpha] = fits
    stability = {}
    for key in ("D1.1", "D1.2", "estD1", "D2.1", "D6"):
        vals = [per_alpha[a][key] for a in alphas]
        stability[key] = np.max(vals) / np.min(vals)
    return {"per_alpha": per_alpha, "stability": stability,
            "passed": all(v <= 3.0 for v in stability.values())}


def good_unknown_check(params, f0, g0, t_end: float, dt: float, n: int,
                       fit_t_end: float | None = None) -> dict:
    """Residual of the corrected-vorticity evolution along a coupled run.

    g1 = g + (k3/(k1 k_f)) cos y D2(f) should satisfy
    dg1/dt + (nu kappa^2 + ModeH) g1 = (nu k_f k3/k1) [cos y D2, d^2] f.
    The residual is evaluated with 4th-order stencils in t and y, relative
    to ||f|| + ||g||, where its y-stencil stays inside the stencil-valid part
    of `valid_D2`; `flagged_fraction` is the complement of that part, and
    nothing the residual reads lies on a masked c-point. The time stencil
    needs at least 5 stored states, and fewer raise ConfigurationError. A
    separate longer run fits the decay of ||g1|| over the whole grid, so it
    cubic-interpolates D2(f) across the masked c-points, and compares
    pure-exponential vs (1+at)-prefactor models.

    k3 = 0 leaves no correction to check and k1 = 0 no coupling k3/(k1 k_f),
    so both raise ConfigurationError; otherwise alpha >= sqrt(2)/k_f > 1.
    """
    from .evolution import evolve_coupled, fit_decay_rate, Trajectory
    from .spectral import build_grid

    if params.k1 == 0 or params.k3 == 0:
        raise ConfigurationError(
            f"the good unknown needs k1 != 0 and k3 != 0, got k1={params.k1}, k3={params.k3}")
    grid = build_grid(n, params)
    op = get_wave_operator(params.alpha, n)
    h, y = op.h, op.y_full
    traj = evolve_coupled(params, f0, g0, t_end, dt, grid=grid, store_states=True)
    if len(traj.times) < 5:
        raise ConfigurationError(
            f"the good-unknown time stencil needs >= 5 stored states, got {len(traj.times)}")
    m = n // 2

    def to_wave_grid(coeffs):
        return np.roll(grid.to_grid(coeffs), -m, axis=-1)

    scale = 1j * params.k1 * params.gamma / (params.k_f**2 * params.nu)
    kappa2 = params.k1**2 + params.k3**2
    couple = params.k3 / (params.k1 * params.k_f)
    rhs_scale = params.nu * params.k_f * params.k3 / params.k1

    # one row per stored state; D2 goes row by row, since a stacked apply
    # would hold (states x nodes x n) temporaries
    f_full = to_wave_grid(traj.f_states)
    g_full = to_wave_grid(traj.g_states)
    d2f = np.array([op.apply_D2(f) for f in f_full])
    g1s = g_full + couple * np.cos(y) * d2f
    # the commutator right-hand side and the residual are taken at the
    # interior times, where the 5-point time stencil fits
    inner = slice(2, -2)
    d2_fpp = np.array([op.apply_D2(fpp) for fpp in
                       to_wave_grid(-(grid.wavenumbers**2) * traj.f_states[inner])])
    lap_cos_d2f, mask = fd_derivative(np.cos(y) * d2f[inner], op.valid_D2, h, order=2)
    rhs = rhs_scale * (np.cos(y) * d2_fpp - lap_cos_d2f)
    g1 = g1s[inner]
    dg1 = (g1s[:-4] - 8 * g1s[1:-3] + 8 * g1s[3:-1] - g1s[4:]) / (12 * dt)
    lap_g1, mok = fd_derivative(g1, mask, h, order=2)
    hg1 = -params.nu * params.k_f**2 * lap_g1 + scale * np.sin(y) * g1
    res = dg1 + params.nu * kappa2 * g1 + hg1 - rhs
    res_max = np.max([_masked_norm(r, mok, h) / (_grid_norm(f, h) + _grid_norm(g, h))
                      for r, f, g in zip(res, f_full[inner], g_full[inner])])
    out = {"residual": float(res_max), "flagged_fraction": float(1.0 - mask.mean())}
    if fit_t_end is not None:
        fit_dt = max(dt, fit_t_end / 400.0)
        traj2 = evolve_coupled(params, f0, g0, fit_t_end, fit_dt, grid=grid,
                               store_states=True)
        norms_g1 = [_grid_norm(g + couple * np.cos(y)
                               * fill_masked(op.apply_D2(f), op.valid_D2, y), h)
                    for f, g in zip(to_wave_grid(traj2.f_states),
                                    to_wave_grid(traj2.g_states))]
        synth = Trajectory(times=traj2.times, params=params, grid=grid,
                           norm_g=np.array(norms_g1))
        fit_pure = fit_decay_rate(synth, "g")
        fit_pref = fit_decay_rate(synth, "g", prefactor=True)
        out["g1_fit_pure_residual"] = fit_pure.residual
        out["g1_fit_prefactor_residual"] = fit_pref.residual
    return out
