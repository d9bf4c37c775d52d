"""Fourier-Galerkin building blocks on the 2*pi torus.

Everything downstream works with the basis e^{i n y}, n = -N/2 .. N/2-1,
stored in monotone order so that multiplication by sin(y) or cos(y) is an
exact coupling between adjacent coefficients and every operator here is
banded. Transforms wrap numpy's FFT with the reordering applied.

The L2 inner product on the torus is <f,g> = int f conj(g) dy
= 2*pi * sum_n c_n conj(d_n), and the same convention is used for grid
values via the quadrature weight 2*pi/N.

`process_map` is the one fan-out of the package: the wave-operator build
maps its c-nodes through it and the threshold sweep its cells, both over
every CPU in the affinity mask, with the caller as one of the workers.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import signal
import sys
import traceback
import warnings
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi
_SQRT_TWO_PI = np.sqrt(TWO_PI)

#: operationalization of the asymptotic regime condition "amplitude >> nu^2"
REGIME_FACTOR = 100.0


class ConfigurationError(ValueError):
    """Invalid grid/parameter configuration."""


def step_count(t_end: float, dt: float) -> int:
    """Steps of size dt that reach t_end: ceil(t_end/dt), except that a
    quotient at most 1e-9 above an integer counts as that integer."""
    return int(np.ceil(t_end / dt - 1e-9))


#: true while process_map fans out, in the caller and in every child, so a
#: process_map called inside an item runs serially
_fanning_out = False


def process_map(fn, items) -> list:
    """[fn(x) for x in items], in order.

    Fans out over W = min(CPUs in the affinity mask, len(items)) processes:
    this one and W - 1 children forked here. The caller runs item 0, then it
    and the children claim the other indices one at a time from one pipe of
    4-byte records, which a pipe hands out whole, so no process waits on a
    slow item of another. A child sends its pickled (index, result) pairs
    once no index is left and leaves by os._exit. With W <= 1 (also where
    there is no affinity mask) and inside an item of an enclosing
    process_map, the list is built here and nothing is forked.

    Fork, not spawn: a child inherits the modules and data the caller has
    instead of importing numpy, scipy and this package afresh (about 0.4 s
    each), and fn and the items are never pickled. An exception raised by
    fn in any process is raised here with its own type, after every child
    has been stopped and reaped.
    """
    global _fanning_out
    items = list(items)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(items))
    if workers <= 1 or _fanning_out:
        return [fn(x) for x in items]
    import fcntl  # POSIX only, like the affinity mask without which no child is forked

    records = np.arange(1, len(items), dtype="<u4").tobytes()
    claims, claims_w = os.pipe()
    children: list[tuple[int, int]] = []  # (pid, read end of its reply pipe)
    reaped = set()
    _fanning_out = True
    try:
        with open(claims_w, "wb") as fh:
            fcntl.fcntl(claims_w, fcntl.F_SETPIPE_SZ, len(records))
            fh.write(records)
        sys.stdout.flush()  # a child must not write the caller's buffered output again
        sys.stderr.flush()
        for _ in range(workers - 1):
            reply, reply_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(reply)
                _serve_claims(fn, items, claims, reply_w)
            os.close(reply_w)
            children.append((pid, reply))
        out = [fn(items[0])] + [None] * (len(items) - 1)
        for i in _claimed(claims):
            out[i] = fn(items[i])
        failures = []
        for pid, reply in children:
            data = b"".join(iter(lambda: os.read(reply, 1 << 16), b""))
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped.add(pid)
            if status != 0:
                raise ChildProcessError(
                    f"process_map child {pid} ended with status {status} and no result")
            for i, ok, value in pickle.loads(data):
                if ok:
                    out[i] = value
                else:
                    failures.append((i, value))
        if failures:
            raise min(failures, key=lambda f: f[0])[1]
        return out
    finally:
        _fanning_out = False
        for pid, reply in children:
            if pid not in reaped:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(reply)  # after the kill, so no child meets a closed pipe
        os.close(claims)


def _claimed(claims: int):
    """Indices claimed from the pipe of 4-byte records until it is empty."""
    while record := os.read(claims, 4):
        yield int.from_bytes(record, "little")


def _serve_claims(fn, items, claims: int, reply_w: int) -> None:
    """A forked child's whole life: run claimed items until none is left or
    one raises, send one pickled list of (index, ok, result or exception),
    and leave by os._exit, which runs no handler of the caller's."""
    code = 1
    try:
        replies = []
        for i in _claimed(claims):
            try:
                replies.append((i, True, fn(items[i])))
            except Exception as exc:
                replies.append((i, False, exc))
                break
        with open(reply_w, "wb") as fh:
            fh.write(pickle.dumps(replies))
        code = 0
    except BaseException:
        traceback.print_exc()
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)


@dataclass(frozen=True)
class ModeParams:
    """Physical and spectral parameters of one horizontal Fourier mode.

    Parameters
    ----------
    nu : viscosity, > 0.
    gamma : forcing amplitude.
    k_f : forcing wavenumber, in (0, 1].
    k1, k3 : integer horizontal wavenumbers.

    Derived quantities: alpha = beta = sqrt(k1^2+k3^2)/k_f (positive root)
    and the shear coefficient s = k1*gamma/(nu*k_f^2).
    """

    nu: float
    gamma: float
    k_f: float
    k1: int
    k3: int

    def __post_init__(self):
        if self.nu <= 0:
            raise ConfigurationError(f"nu must be positive, got {self.nu}")
        if not (0 < self.k_f <= 1):
            raise ConfigurationError(f"k_f must be in (0, 1], got {self.k_f}")
        if int(self.k1) != self.k1 or int(self.k3) != self.k3:
            raise ConfigurationError("k1, k3 must be integers")
        if not self.regime_valid:
            warnings.warn(
                f"|gamma|={abs(self.gamma):.3g} is not >> nu^2 "
                f"(threshold {REGIME_FACTOR}*nu^2={REGIME_FACTOR * self.nu**2:.3g}); "
                "fitted bounds may degrade",
                stacklevel=3,
            )

    @property
    def alpha(self) -> float:
        """Positive root of (k1^2+k3^2)/k_f^2; requires (k1,k3) != (0,0)."""
        k2 = self.k1**2 + self.k3**2
        if k2 == 0:
            raise ConfigurationError("alpha undefined for (k1,k3)=(0,0)")
        return np.sqrt(k2) / self.k_f

    @property
    def beta(self) -> float:
        return self.alpha

    @property
    def shear(self) -> float:
        """Skew-part scale k1*gamma/(nu*k_f^2); the numerical range of the
        imaginary part of the mode operators is +- |shear|."""
        return self.k1 * self.gamma / (self.nu * self.k_f**2)

    @property
    def regime_valid(self) -> bool:
        return abs(self.gamma) >= REGIME_FACTOR * self.nu**2

    def layer_scale(self, alpha: float | None = None) -> float:
        """Critical-layer width delta = |alpha|^(-1/4) nu^(1/2)."""
        a = self.alpha if alpha is None else alpha
        return abs(a) ** -0.25 * np.sqrt(self.nu)


@dataclass(frozen=True)
class FourierGrid:
    """Uniform collocation grid y_j = 2*pi*j/N with monotone wavenumbers.

    `delta` is the critical-layer scale |alpha|^(-1/4) nu^(1/2) of the
    parameters the grid was built for; `adequate` records the resolution
    rule N >= 8/delta.
    """

    n: int
    delta: float
    wavenumbers: np.ndarray = field(repr=False)

    @property
    def adequate(self) -> bool:
        return self.n >= 8.0 / self.delta

    # -- transforms -------------------------------------------------------
    def to_grid(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients (monotone order) -> grid values, of a vector or of
        each row of a 2-D stack."""
        return np.fft.ifft(np.fft.ifftshift(coeffs, axes=-1)) * self.n

    # -- inner products ---------------------------------------------------
    def inner_coeffs(self, c: np.ndarray, d: np.ndarray) -> complex:
        return TWO_PI * np.vdot(d, c)

    def norm_coeffs(self, c: np.ndarray) -> float | np.ndarray:
        """sqrt(2*pi) ||c|| of a coefficient vector, or of each row of a 2-D
        stack, summed as np.linalg.norm sums it (re.re + im.im, then the square
        root) without numpy's dispatch, so the bits are the same; a row's
        (1, n) @ (n, 1) matmul is numpy's dot."""
        re, im = c.real, c.imag
        if c.ndim == 1:
            return _SQRT_TWO_PI * math.sqrt(re.dot(re) + im.dot(im))
        re, im = re[:, None, :], im[:, None, :]
        sq = re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)
        return _SQRT_TWO_PI * np.sqrt(sq[:, 0, 0])

    def l1_norm_grid(self, values: np.ndarray) -> float | np.ndarray:
        """The quadrature L1 norm of grid values, or of each row of a stack."""
        return (TWO_PI / self.n) * np.sum(np.abs(values), axis=-1)

    def random_coeffs(self, rng: np.random.Generator, mean_zero: bool = False) -> np.ndarray:
        """Band-limited (|n| <= N/2-2) complex Gaussian coefficients.

        Band-limiting keeps sin/cos products inside the Galerkin truncation,
        so collocation oracles are exact to round-off.
        """
        c = rng.standard_normal(self.n) + 1j * rng.standard_normal(self.n)
        n = self.wavenumbers
        c[np.abs(n) > self.n // 2 - 2] = 0.0
        if mean_zero:
            c[n == 0] = 0.0
        return c


def build_grid(n: int, params: ModeParams, alpha: float | None = None) -> FourierGrid:
    """Build a FourierGrid; `alpha` overrides params.alpha for delta."""
    if n % 2 != 0 or n < 16:
        raise ConfigurationError(f"grid size must be even and >= 16, got {n}")
    return FourierGrid(n=n, delta=params.layer_scale(alpha),
                       wavenumbers=np.arange(-n // 2, n // 2))


def _band_index(b: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(inside, rows, cols) of a (2b+1, n) band array: `inside` masks the
    slots ab[r, j] that hold a matrix entry, rows/cols are their A indices."""
    i = np.arange(n)[None, :] + np.arange(-b, b + 1)[:, None]
    inside = (i >= 0) & (i < n)
    return inside, i[inside], np.broadcast_to(np.arange(n), i.shape)[inside]


@dataclass
class OperatorMatrix:
    """Banded complex operator in the monotone Fourier basis.

    `ab` is the one storage of the entries: the LAPACK/scipy general-band
    array of shape (2b+1, n) with ab[b + i - j, j] = A[i, j], so row b - k
    holds diagonal k and the slots that fall outside the matrix are zero.
    n and the half-bandwidth b are read off its shape. scipy's
    solve_banded reads `ab` as it is, and the sigma_min kernel builds its
    Gram band M^*M and its Jordan-Wielandt band from its rows; nothing
    re-packs diagonals per call. `diags` is a derived view. The band array
    is all an operator holds: `OperatorMatrix(ab)` wraps one, `from_dense`
    packs a dense matrix. Instances are treated as immutable after assembly
    and are safe to share across workers.
    """

    ab: np.ndarray

    def __post_init__(self):
        self.ab = np.asarray(self.ab, dtype=complex)
        if self.ab.ndim != 2 or self.ab.shape[0] % 2 != 1:
            raise ConfigurationError("band array must have shape (2b+1, n)")

    @property
    def n(self) -> int:
        return self.ab.shape[1]

    @property
    def b(self) -> int:
        return self.ab.shape[0] // 2

    @property
    def diags(self) -> dict[int, np.ndarray]:
        """Offset k -> diagonal k, scipy.sparse.diags convention (k >= 0
        holds A[j, j+k], k < 0 holds A[j-k, j], length n - |k|), as
        read-only views of `ab` in ascending k."""
        n, b = self.n, self.b
        out = {k: self.ab[b - k, k:] if k >= 0 else self.ab[b - k, :n + k]
               for k in range(-b, b + 1)}
        for v in out.values():
            v.flags.writeable = False
        return out

    @property
    def bandwidth(self) -> int:
        live = [abs(self.b - r) for r in range(2 * self.b + 1) if np.any(self.ab[r])]
        return max(live, default=0)

    def dense(self) -> np.ndarray:
        inside, rows, cols = _band_index(self.b, self.n)
        a = np.zeros((self.n, self.n), dtype=complex)
        a[rows, cols] = self.ab[inside]
        return a

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x for a vector or an (n, m) block of column vectors. The
        diagonals are accumulated in ascending offset order, whatever
        built the operator, so the rounding of A @ x is fixed."""
        n, b = self.n, self.b
        out = np.zeros(np.shape(x), dtype=complex)
        for k in range(-b, b + 1):
            v = self.ab[b - k].reshape((-1,) + (1,) * (out.ndim - 1))
            if k >= 0:
                out[: n - k] += v[k:] * x[k:]
            else:
                out[-k:] += v[: n + k] * x[: n + k]
        return out

    def shifted(self, lam: complex) -> "OperatorMatrix":
        """Return A - i*lam*I (the pseudospectral shift; a complex lam
        moves the real part of the spectrum too)."""
        ab = self.ab.copy()
        ab[self.b] -= 1j * lam
        return OperatorMatrix(ab)

    def scaled_similarity(self, w_sqrt: np.ndarray) -> "OperatorMatrix":
        """Return W^(1/2) A W^(-1/2) for diagonal weights (w_sqrt = W^(1/2))."""
        inside, rows, cols = _band_index(self.b, self.n)
        ab = np.zeros_like(self.ab)
        ab[inside] = self.ab[inside] * w_sqrt[rows] / w_sqrt[cols]
        return OperatorMatrix(ab)

    def restricted(self, keep: np.ndarray) -> "OperatorMatrix":
        """Restrict to the index subset `keep` (boolean mask). Dropping
        rows and columns never widens the band."""
        a = self.dense()[np.ix_(keep, keep)]
        return OperatorMatrix.from_dense(a, bandwidth=self.bandwidth)

    @classmethod
    def from_dense(cls, a: np.ndarray, bandwidth: int | None = None) -> "OperatorMatrix":
        """Band array of `a`, as narrow as its nonzero diagonals allow; a
        caller that knows `a` has no entry beyond offset `bandwidth` passes
        it to skip scanning the rest."""
        a = np.asarray(a, dtype=complex)
        m = a.shape[0]
        bw = m - 1 if bandwidth is None else min(bandwidth, m - 1)
        b = max((abs(k) for k in range(-bw, bw + 1) if np.any(np.diagonal(a, k))),
                default=0)
        inside, rows, cols = _band_index(b, m)
        ab = np.zeros((2 * b + 1, m), dtype=complex)
        ab[inside] = a[rows, cols]
        return cls(ab)


def multiplication_matrix(which: str, n: int) -> np.ndarray:
    """Band rows (half-bandwidth 1) of multiplication by sin(y) or cos(y)
    in the Fourier basis.

    sin(y): (Sw)_n = -i/2 w_{n-1} + i/2 w_{n+1};  cos(y): 1/2 (w_{n-1}+w_{n+1}).
    """
    if which == "sin":
        up, down = 0.5j, -0.5j
    elif which == "cos":
        up, down = 0.5 + 0j, 0.5 + 0j
    else:
        raise ConfigurationError(f"unknown multiplier {which!r}")
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = up
    ab[2, :-1] = down
    return ab


def helmholtz_inverse(beta: float, grid: FourierGrid) -> np.ndarray:
    """(beta^2 - d^2/dy^2)^(-1), which is exactly diagonal: its real
    diagonal 1/(beta^2+n^2). The star weight of the nonlocal operators is
    1 - this diagonal."""
    if beta <= 0:
        raise ConfigurationError(f"(beta^2 - d^2)^(-1) requires beta > 0, got {beta}")
    return 1.0 / (beta**2 + grid.wavenumbers**2)


def _shear_operator(diag: np.ndarray, c: complex,
                    weights: np.ndarray | None = None) -> OperatorMatrix:
    """diag(diag) + c * S * diag(weights), S multiplication by sin(y): the
    shape of every mode operator, a viscous diagonal plus the shear, with
    the nonlocal weight 1 - (beta^2 - d^2)^(-1) on the right where it has
    one. The diagonal band is added to c * S, so each entry has the bits of
    that one sum."""
    sin_b = multiplication_matrix("sin", len(diag))
    ab = np.zeros((3, len(diag)), dtype=complex)
    ab[1] = diag
    return OperatorMatrix(ab + c * (sin_b if weights is None else sin_b * weights[None, :]))


def assemble_N_lambda(params: ModeParams, lam: float, grid: FourierGrid,
                      alpha: float | None = None) -> OperatorMatrix:
    """N_lambda w = i(alpha/nu)(sin y - lambda) w - nu w''."""
    a = params.alpha if alpha is None else alpha
    nu = params.nu
    c = 1j * a / nu
    return _shear_operator(c * (-lam) + nu * grid.wavenumbers.astype(complex) ** 2, c)


def assemble_L_lambda(params: ModeParams, lam: float, grid: FourierGrid,
                      alpha: float | None = None, beta: float | None = None,
                      u_form: bool = False) -> OperatorMatrix:
    """Full resolvent operator at the shift lam, w-form or u-form.

    w-form: L_lambda w = i(alpha/nu)[(sin y - lambda) w + sin y phi] - nu w''
    with (d^2-beta^2) phi = w, i.e. phi = -(beta^2-d^2)^(-1) w.

    u-form (same assumptions, reduced wavenumber
    beta_tilde = sqrt(beta^2 - 1), so beta > 1):
    i(alpha/nu)[(sin y - lambda) u + lambda phi] - nu u'' with
    (d^2 - beta_tilde^2) phi = u.
    """
    a = params.alpha if alpha is None else alpha
    b = params.beta if beta is None else beta
    nu = params.nu
    visc = nu * grid.wavenumbers.astype(complex) ** 2
    c = 1j * a / nu
    if u_form:
        if b <= 1:
            raise ConfigurationError(f"u-form requires beta > 1, got {b}")
        hinv = helmholtz_inverse(np.sqrt(b**2 - 1.0), grid)
        return _shear_operator(visc + c * (-lam) * (1.0 + hinv).astype(complex), c)
    return _shear_operator(visc + c * (-lam), c, 1.0 - helmholtz_inverse(b, grid))


def assemble_mode_operators(params: ModeParams, grid: FourierGrid) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Per-mode operators (ModeL, ModeH) after Fourier transform in (x,z).

    ModeL = -nu k_f^2 d^2 + (i k1/k_f^2)(gamma/nu) sin y (1 - (beta^2-d^2)^(-1))
    ModeH = -nu k_f^2 d^2 + (i k1/k_f^2)(gamma/nu) sin y
    """
    if params.k1 == 0 and params.k3 == 0:
        raise ConfigurationError("mode operators need (k1,k3) != (0,0)")
    nu, kf = params.nu, params.k_f
    c = 1j * params.k1 * params.gamma / (kf**2 * nu)
    visc = nu * kf**2 * grid.wavenumbers.astype(complex) ** 2
    mode_l = _shear_operator(visc, c, 1.0 - helmholtz_inverse(params.beta, grid))
    return mode_l, _shear_operator(visc, c)


def assemble_L1(nu: float, beta: float, grid: FourierGrid) -> OperatorMatrix:
    """L1 u = nu u'' - nu u - i(beta/nu) sin y u (alpha=1 special operator)."""
    if nu <= 0 or beta == 0:
        raise ConfigurationError("assemble_L1 requires nu > 0 and beta != 0")
    return _shear_operator(-nu * (grid.wavenumbers.astype(complex) ** 2 + 1.0),
                           -1j * beta / nu)


def mean_projections(grid: FourierGrid) -> tuple[OperatorMatrix, OperatorMatrix]:
    """(Q1, P1): Q1 zeroes the n=0 coefficient, P1 keeps only it."""
    q = (grid.wavenumbers != 0).astype(complex)
    return (
        OperatorMatrix(q[None, :]),
        OperatorMatrix(1.0 - q[None, :]),
    )


@dataclass(frozen=True)
class StarMetric:
    """Diagonal metric <f,g>_* = <f, (I-(beta^2-d^2)^(-1)) g>.

    weights[n] = 1 - 1/(beta^2+n^2). For the alpha=1 variant the metric lives
    on the mean-zero subspace; `keep` masks out n=0 there.
    """

    weights: np.ndarray
    keep: np.ndarray | None = None

    @classmethod
    def for_beta(cls, beta: float, grid: FourierGrid) -> "StarMetric":
        if beta <= 1:
            raise ConfigurationError("full-space star metric requires beta > 1")
        return cls(weights=1.0 - helmholtz_inverse(beta, grid))

    @classmethod
    def for_alpha1(cls, grid: FourierGrid) -> "StarMetric":
        return cls(weights=1.0 - helmholtz_inverse(1.0, grid), keep=grid.wavenumbers != 0)

    def transform(self, op: OperatorMatrix) -> OperatorMatrix:
        """W^(1/2) A W^(-1/2) of A restricted to `keep` (when set): the
        euclidean singular values of the result are the star ones of A.
        The similarity is exact because W is diagonal."""
        w = self.weights
        if self.keep is not None:
            op, w = op.restricted(self.keep), w[self.keep]
        return op.scaled_similarity(np.sqrt(w))
