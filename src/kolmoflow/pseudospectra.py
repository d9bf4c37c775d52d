"""Smallest singular values, Psi scans and bound sweeps.

Psi(H) = inf over real shifts lambda of sigma_min(H - i*lambda), computed in
the euclidean or star metric. sigma_min(lambda) is 1-Lipschitz in lambda, so a
coarse scan of spacing h brackets the infimum to within h before refinement.

Up to DENSE_SVD_MAX, where it is faster, sigma_min is the last value of a
dense LAPACK SVD. Above it, one O(n) kernel reads the band array of the
shifted operator M (half-bandwidth b):

1. Bisection brackets sigma_min. The band Cholesky factorization (zpbtrf) of
   the Hermitian band M^*M - s^2 I (half-bandwidth 2b) succeeds exactly when
   sigma_min > s. It stops at a relative width of 1e-9, or once the upper end
   is below eps*||M||, which happens when sigma_min = 0; either way it takes
   at most about 82 steps.
2. Three block inverse iterations (block size 3) on the Hermitian
   Jordan-Wielandt matrix B = [[0, M], [M^*, 0]], whose eigenvalues are
   +-sigma_i, run at the bracket's midpoint on one banded LU (zgbtrf, zgbtrs).
   They start from the same seeded random block on every call, which is
   drawn once per n and kept read-only.
3. sigma_min is the smallest Rayleigh-Ritz value of B on the block that lies
   inside the bracket.

The bisection only locates sigma_min: its test is exact up to a perturbation
of M^*M of order eps*||M||^2. The polish restores the accuracy of an
eigensolve, about eps*||M||. The block carries the near-degenerate bottom
pairs the lambda symmetry produces, and the bracket rejects the Ritz values
of mixtures of +sigma and -sigma eigenvectors. A call costs about 0.7 ms at
n = 128, 1.5 ms at n = 256, 4 ms at n = 1024 and 6.5 ms at n = 2048 on one
thread, whatever the shift; dense SVD costs 0.34 ms at n = 64 against the
kernel's 0.5 ms, and 1.6 ms at n = 128.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import lapack

from .spectral import (
    ConfigurationError,
    FourierGrid,
    ModeParams,
    OperatorMatrix,
    REGIME_FACTOR,
    StarMetric,
    assemble_L_lambda,
    assemble_mode_operators,
    assemble_N_lambda,
    build_grid,
)

DENSE_SVD_MAX = 64
PSI_SCAN_MARGIN = 0.5
PSI_REFINE_RTOL = 1e-3
_BRACKET_RTOL = 1e-9
_N_MIN, _N_MAX = 64, 4096
_EPS = np.finfo(float).eps


@dataclass
class PsiResult:
    psi: float
    lam_star: float
    lam_grid: np.ndarray
    sigma_grid: np.ndarray
    converged: bool
    # lam-width of the golden-section bracket of the refined basin (the coarse
    # spacing when no basin improved on the grid); not a bound on psi - inf
    scan_error: float
    flags: list[str] = field(default_factory=list)
    sigma_evals: int = 0

    def as_record(self) -> dict:
        return {
            "psi": self.psi,
            "lam_star": self.lam_star,
            "converged": self.converged,
            "scan_error": self.scan_error,
            "flags": list(self.flags),
            "sigma_evals": self.sigma_evals,
        }


@dataclass
class PseudospectrumField:
    re: np.ndarray
    im: np.ndarray
    sigma: np.ndarray  # sigma[i, j] = sigma_min(A - (re[j] + i*im[i]))


@dataclass
class EmpiricalConstants:
    """Fitted constants with the sweep that produced them."""

    name: str
    value: float
    sweep: list[dict]
    decade_ratio: float | None = None

    def as_record(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "decade_ratio": self.decade_ratio,
            "n_points": len(self.sweep),
        }


# ---------------------------------------------------------------------------
# sigma_min
# ---------------------------------------------------------------------------

def _norm_bound(op: OperatorMatrix) -> float:
    """sqrt(||M||_1 ||M||_inf) >= ||M||_2: the column sums of |M| are those
    of its band array, the row sums are |M| applied to a vector of ones."""
    a = np.abs(op.ab)
    row = OperatorMatrix(a).matvec(np.ones(op.n)).real
    return float(np.sqrt(a.sum(axis=0).max() * row.max()))


def _gram_band(m: OperatorMatrix) -> np.ndarray:
    """M^*M in LAPACK's lower Hermitian band layout, kd = min(2b, n - 1):
    row d holds (M^*M)[j + d, j], the sum over band rows r of
    ab[r, j] * conj(ab[r - d, j + d]). Row 0 holds the squared column norms
    ||M e_j||^2, summed in ascending offset order."""
    n, b = m.n, m.b
    kd = min(2 * b, n - 1)
    g = np.zeros((kd + 1, n), dtype=complex)
    for d in range(kd + 1):
        g[d, :n - d] = sum(m.ab[r, :n - d] * np.conj(m.ab[r - d, d:])
                           for r in range(2 * b, d - 1, -1))
    return g


def _column_norm_bound(op: OperatorMatrix, lam: float) -> float:
    """min_j ||(A - i*lam) e_j||: an upper bound for sigma_min."""
    return float(np.sqrt(_gram_band(op.shifted(lam))[0].real.min()))


def _jordan_wielandt(m: OperatorMatrix, s: float) -> OperatorMatrix:
    """B - s*I for the Hermitian Jordan-Wielandt matrix B = [[0, M], [M^*, 0]]
    (Golub & Van Loan, Matrix Computations, sec. 8.6).

    Rows and columns interleave (2i <- row i of M, 2c+1 <- column c), so
    B - s*I is a band operator of half-bandwidth 2b + 1. With o = i - c,
    B[2i, 2c+1] = M[i, c] sits in band row 2o - 1 about the diagonal and
    B[2c+1, 2i] = conj(M[i, c]) in band row 1 - 2o.
    """
    n, b = m.n, m.b
    k = 2 * b + 1
    ab = np.zeros((2 * k + 1, 2 * n), dtype=complex)
    ab[k] = -s
    for o in range(-b, b + 1):
        ab[k + 2 * o - 1, 1::2] = m.ab[b + o]
        c0, c1 = max(0, -o), min(n, n - o)
        ab[k - 2 * o + 1, 2 * (c0 + o):2 * (c1 + o):2] = np.conj(m.ab[b + o, c0:c1])
    return OperatorMatrix(ab)


@lru_cache(maxsize=None)
def _polish_start(n: int) -> np.ndarray:
    """The seeded (2n, 3) start block of the polish, read-only. It depends
    on n alone, and a process meets a handful of n (powers of two from
    _pick_n), so it is drawn once per n."""
    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal((2 * n, 3)) + 1j * rng.standard_normal((2 * n, 3))
    v.flags.writeable = False
    return v


def _sigma_min_bisect_polish(m: OperatorMatrix) -> float:
    """sigma_min of the band operator M: Cholesky bisection, then a block
    inverse-iteration polish on the Jordan-Wielandt band (module docstring)."""
    n = m.n
    gram = _gram_band(m)
    norm = _norm_bound(m)
    # sigma_min <= min_j ||M e_j|| <= norm; the width halves per step, so the
    # loop ends within log2(1 / (_BRACKET_RTOL * eps)) steps
    lo, hi = 0.0, float(np.sqrt(gram[0].real.min()))
    a = np.empty_like(gram)
    while hi - lo > _BRACKET_RTOL * hi and hi > _EPS * norm:
        s = 0.5 * (lo + hi)
        a[:] = gram
        a[0] -= s * s
        if lapack.zpbtrf(a, lower=1, overwrite_ab=1)[1] == 0:
            lo = s
        else:
            hi = s
    s = 0.5 * (lo + hi)
    jw = _jordan_wielandt(m, s)
    k = jw.b
    # zgbtrf wants k rows above the band for the fill-in of U
    lu, ipiv, info = lapack.zgbtrf(np.vstack([np.zeros((k, 2 * n), complex), jw.ab]), k, k)
    if info != 0:
        # B - s*I is exactly singular: s is a singular value of M
        return s
    v = _polish_start(n)
    for _ in range(3):
        v, _ = np.linalg.qr(lapack.zgbtrs(lu, k, k, v, ipiv)[0])
    ritz = np.linalg.eigvalsh(v.conj().T @ jw.matvec(v)) + s
    # the bracket, widened by the rounding of the Cholesky test, which is
    # exact only up to a perturbation of M^*M of order eps*||M||^2; the
    # midpoint stands in if no Ritz value lies inside
    slack = 16.0 * _EPS * norm**2
    inside = ritz[(ritz >= np.sqrt(max(lo * lo - slack, 0.0)))
                  & (ritz <= np.sqrt(hi * hi + slack))]
    return float(inside.min()) if inside.size else s


def smallest_singular_value(op: OperatorMatrix, lam: complex = 0.0,
                            metric: StarMetric | None = None,
                            method: str = "auto") -> float:
    """sigma_min of (A - i*lam) in the given metric.

    With a metric this is sigma_min of `metric.transform(A - i*lam)`.
    `method` is "dense" (the SVD, kept as the test oracle), "banded" (the
    O(n) kernel) or "auto" (the SVD up to DENSE_SVD_MAX, the kernel above);
    any other value raises ConfigurationError.
    """
    if method not in ("auto", "dense", "banded"):
        raise ConfigurationError(f"unknown sigma_min method {method!r}")
    shifted = op.shifted(lam)
    if metric is not None:
        shifted = metric.transform(shifted)
    if method == "dense" or (method == "auto" and shifted.n <= DENSE_SVD_MAX):
        return float(np.linalg.svd(shifted.dense(), compute_uv=False)[-1])
    return _sigma_min_bisect_polish(shifted)


# ---------------------------------------------------------------------------
# Psi
# ---------------------------------------------------------------------------

def _golden_refine(f, a: float, b: float, rtol: float, max_iter: int = 120):
    """Golden-section minimization of f on [a, b]; returns (x, f(x), width)."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a <= rtol * max(abs(a), abs(b), 1.0):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    if fc < fd:
        return c, fc, b - a
    return d, fd, b - a


def psi_half_width(params: ModeParams) -> float:
    """Half-width 1.5*|shear|*(1+PSI_SCAN_MARGIN) of a Psi scan: the skew
    numerical range is +-|shear|."""
    return 1.5 * abs(params.shear) * (1.0 + PSI_SCAN_MARGIN)


def compute_psi(op: OperatorMatrix, half_width: float, scan_count: int,
                metric: StarMetric | None = None) -> PsiResult:
    """Coarse scan of [-half_width, half_width] with `scan_count` points,
    then golden-section refinement (to PSI_REFINE_RTOL) of every interior
    local minimum.

    The scan is in the star metric if and only if `metric` is given, and in
    the euclidean one otherwise. `metric.transform` is applied once per scan
    and each point only shifts the result; the shift commutes with the
    restriction and the diagonal similarity, so this is exact up to rounding.

    The transformed operator M must be real (ModeH, ModeL and Q1L are, to
    the bit); a complex one raises ConfigurationError. sigma_min is then
    even in lam: conj(M - i*lam) = M + i*lam has the same singular values.
    Each distinct |lam| is evaluated once, at +|lam|. The coarse grid is
    exactly odd, so mirrored points share one sigma_min and `sigma_grid`
    equals its reverse; refining the mirror of a refined minimum visits the
    mirrored points and evaluates nothing new. `lam_star` is reported as
    -|lam|, the first point of its mirrored pair, so lam_star <= 0.
    `sigma_evals` counts the sigma_min evaluations of the scan.
    """
    if not (half_width > 0.0 and scan_count >= 16):
        raise ConfigurationError("a Psi scan needs half_width > 0 and scan_count >= 16")
    a = op if metric is None else metric.transform(op)
    if np.any(a.ab.imag):
        raise ConfigurationError("Psi scans need a real operator: sigma_min must be even in lam")
    memo: dict[float, float] = {}

    def sigma(lam: float) -> float:
        key = abs(float(lam))
        if key not in memo:
            memo[key] = smallest_singular_value(a, key)
        return memo[key]

    flags: list[str] = []
    lam_grid = np.linspace(-half_width, half_width, scan_count)
    lam_grid = (lam_grid - lam_grid[::-1]) / 2.0
    sig = np.array([sigma(lam) for lam in lam_grid])

    # sanity: sigma_min never exceeds the smallest column norm
    for i in range(0, len(lam_grid), max(1, len(lam_grid) // 8)):
        bound = _column_norm_bound(a, lam_grid[i])
        if sig[i] > bound * (1 + 1e-8):
            flags.append(f"column-bound violation at lam={lam_grid[i]:.6g}")

    h = np.diff(lam_grid).max()
    best_lam, best_sig = lam_grid[np.argmin(sig)], sig.min()
    interior_min = []
    for i in range(1, len(lam_grid) - 1):
        if sig[i] <= sig[i - 1] and sig[i] <= sig[i + 1]:
            interior_min.append(i)
    width = h
    for i in interior_min:
        lam, s, width_i = _golden_refine(sigma, lam_grid[i - 1], lam_grid[i + 1],
                                         PSI_REFINE_RTOL)
        if s < best_sig:
            best_sig, best_lam = s, lam
            width = width_i
    # a tie in the golden search can end a refinement at lam > 0
    best_lam = min(best_lam, -best_lam)
    boundary = np.argmin(sig) in (0, len(lam_grid) - 1)
    if boundary:
        flags.append("minimum at scan boundary; widen the interval")
    return PsiResult(
        psi=float(best_sig),
        lam_star=float(best_lam),
        lam_grid=lam_grid,
        sigma_grid=sig,
        converged=not boundary,
        scan_error=float(width),
        flags=flags,
        sigma_evals=len(memo),
    )


def pseudospectrum_grid(op: OperatorMatrix, rect: tuple[float, float, float, float],
                        resolution: tuple[int, int]) -> PseudospectrumField:
    """sigma_min(A - z) over a complex rectangle (re_lo, re_hi, im_lo, im_hi)."""
    nx, ny = resolution
    if nx < 8 or ny < 8:
        raise ConfigurationError("pseudospectrum resolution must be >= 8x8")
    re = np.linspace(rect[0], rect[1], nx)
    im = np.linspace(rect[2], rect[3], ny)
    sigma = np.empty((ny, nx))
    for i, y in enumerate(im):
        for j, x in enumerate(re):
            # A - i*(y - i*x) = A - x - i*y
            sigma[i, j] = smallest_singular_value(op, y - 1j * x)
    return PseudospectrumField(re=re, im=im, sigma=sigma)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _pick_n(delta: float) -> int:
    n = _N_MIN
    while n < 8.0 / delta and n < _N_MAX:
        n *= 2
    return n


def _decade_key(alpha: float) -> int:
    return int(np.floor(np.log10(abs(alpha)) + 1e-12))


def _fitted_constant(name: str, good: list[dict], envelope: list[float]
                     ) -> EmpiricalConstants:
    """The constant of a sweep: its value is the least ratio of the `good`
    rows, its decade_ratio max/min of `envelope`. np.min and np.max, not
    the builtins, so that one nan ratio makes both nan and fails the checks
    that read them."""
    ratios = [r["ratio"] for r in good]
    return EmpiricalConstants(name=name, value=float(np.min(ratios)), sweep=good,
                              decade_ratio=float(np.max(envelope) / np.min(envelope)))


def resolvent_bound_sweep(kind: str, nus, alphas, lams, betas=None
                          ) -> tuple[EmpiricalConstants, list[dict]]:
    """Normalized resolvent lower-bound table over a (nu, alpha, lambda[, beta]) sweep.

    For each point computes r = sigma_min / (sqrt|alpha| * factor), factor
    being (1 - beta^(-2)) for the w-form nonlocal operator and 1 otherwise.
    C_hat is the smallest r over adequately resolved points; decade stability
    is max/min of the per-alpha-decade lower envelopes. The nonlocal sweeps
    need every beta > 1 (beta_tilde = sqrt(beta^2 - 1) and 1 - beta^(-2) > 0).
    """
    if kind not in ("Nlambda", "Llambda", "Lu-form"):
        raise ConfigurationError(f"unknown sweep kind {kind!r}")
    if kind != "Nlambda" and not betas:
        raise ConfigurationError("beta list required for the nonlocal sweeps")
    if kind != "Nlambda" and min(betas) <= 1.0:
        raise ConfigurationError(
            f"the nonlocal sweeps need every beta > 1, got {min(betas)}")
    rows: list[dict] = []
    beta_list = [None] if kind == "Nlambda" else list(betas)
    for nu in nus:
        for alpha in alphas:
            if abs(alpha) < REGIME_FACTOR * nu**2:
                rows.append({"kind": kind, "nu": nu, "alpha": alpha,
                             "flag": "regime", "ratio": np.nan})
                continue
            params = ModeParams(nu=nu, gamma=max(abs(alpha), 1.0), k_f=1.0, k1=1, k3=0)
            n = _pick_n(params.layer_scale(alpha))
            grid = build_grid(n, params, alpha=alpha)
            inadequate = not grid.adequate
            for beta in beta_list:
                for lam in lams:
                    if kind == "Nlambda":
                        op = assemble_N_lambda(params, lam, grid, alpha=alpha)
                        factor = 1.0
                    else:
                        u_form = kind == "Lu-form"
                        op = assemble_L_lambda(params, lam, grid, alpha=alpha, beta=beta,
                                               u_form=u_form)
                        factor = 1.0 if u_form else 1.0 - beta**-2
                    sigma = smallest_singular_value(op)
                    row = {
                        "kind": kind, "nu": nu, "alpha": alpha, "lam": lam,
                        "beta": beta, "n": n, "sigma_min": sigma,
                        "ratio": sigma / (np.sqrt(abs(alpha)) * factor),
                        "flag": "inadequate" if inadequate else "",
                    }
                    rows.append(row)
    good = [r for r in rows if r.get("flag") == ""]
    if not good:
        raise ConfigurationError("no adequately resolved sweep points")
    per_decade: dict[int, float] = {}
    for r in good:
        d = _decade_key(r["alpha"])
        per_decade[d] = np.minimum(per_decade.get(d, np.inf), r["ratio"])
    return _fitted_constant(f"C_hat[{kind}]", good, list(per_decade.values())), rows


def psi_grid(params: ModeParams, n: int | None = None) -> FourierGrid:
    """The grid of a Psi scan: built for the resolvent-scale alpha
    k1*gamma/k_f^4, of size `n` or else the smallest adequate one."""
    alpha_res = params.k1 * params.gamma / params.k_f**4
    if alpha_res == 0.0:
        raise ConfigurationError(
            "Psi needs k1*gamma != 0: with k1 = 0 or gamma = 0 the shear term "
            "and the critical-layer scale vanish")
    if n is None:
        n = _pick_n(params.layer_scale(alpha_res))
    return build_grid(n, params, alpha=alpha_res)


def psi_operator(params: ModeParams, which: str, n: int | None = None
                 ) -> tuple[OperatorMatrix, StarMetric | None]:
    """The operator a Psi scan of `which` reads, and the metric it is
    scanned in, on `psi_grid(params, n)`; which in {"H", "L", "Q1L"}.

    "H" is ModeH in the euclidean metric; "L" is ModeL in the beta > 1 star
    metric; "Q1L" is ModeL restricted to the mean-zero modes n != 0, in the
    alpha = 1 star metric on them (no `keep`: the operator is restricted
    already). The Gearhart-Pruss bound e^(-t Psi + pi/2) holds for the
    semigroup of this operator in this metric.
    """
    grid = psi_grid(params, n)
    mode_l, mode_h = assemble_mode_operators(params, grid)
    if which == "H":
        return mode_h, None
    if which == "L":
        return mode_l, StarMetric.for_beta(params.beta, grid)
    if which == "Q1L":
        if params.beta != 1.0:
            raise ConfigurationError("Q1L path requires k1^2+k3^2 = k_f^2 = 1")
        star = StarMetric.for_alpha1(grid)
        return mode_l.restricted(star.keep), StarMetric(weights=star.weights[star.keep])
    raise ConfigurationError(f"unknown operator selector {which!r}")


def psi_for_params(params: ModeParams, which: str, n: int | None = None,
                   scan_count: int = 128) -> PsiResult:
    """Psi of the `psi_operator(params, which, n)` operator in its metric."""
    op, metric = psi_operator(params, which, n)
    return compute_psi(op, psi_half_width(params), scan_count, metric)


def psi_bound_sweep(sweep_params: list[ModeParams], which: str = "H",
                    scan_count: int = 128) -> tuple[EmpiricalConstants, list[dict]]:
    """Psi_hat / (sqrt|k1 gamma| * factor) table; c_hat := min over the sweep."""
    rows = []
    for p in sweep_params:
        res = psi_for_params(p, which, scan_count=scan_count)
        factor = (1.0 - p.beta**-2) if which == "L" else 1.0
        denom = np.sqrt(abs(p.k1 * p.gamma)) * factor
        rows.append({
            "which": which, "nu": p.nu, "gamma": p.gamma, "k_f": p.k_f,
            "k1": p.k1, "k3": p.k3, "alpha": p.alpha, "beta": p.beta,
            "psi": res.psi, "lam_star": res.lam_star,
            "ratio": res.psi / denom,
            "flag": "" if res.converged else "boundary",
        })
    good = [r for r in rows if r["flag"] == ""]
    if not good:
        raise ConfigurationError("every sweep point hit a scan boundary")
    return _fitted_constant(f"c_hat[{which}]", good, [r["ratio"] for r in good]), rows

