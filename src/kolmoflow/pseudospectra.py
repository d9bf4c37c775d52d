"""Smallest singular values, Psi scans and bound sweeps.

Psi(H) = inf over real shifts lambda of sigma_min(H - i*lambda), computed in
the euclidean or star metric. sigma_min(lambda) is 1-Lipschitz in lambda, so a
coarse scan of spacing h brackets the infimum to within h before refinement.

sigma_min has two paths. Up to DENSE_SVD_MAX it is the last value of a dense
LAPACK SVD. Above it, block inverse iteration on the normal equations runs on
a banded LU of the shifted operator and stops on a residual test; if it has
not converged after ITER_MAX iterations (the bottom singular values cluster
when |lambda| > 1), a warning is issued and sigma_min is taken as the
eigenvalue of the banded Hermitian Jordan-Wielandt matrix [[0, M], [M^*, 0]]
that sits at index n. Both banded paths cost O(n) memory, and the worst case
is one capped iteration plus one banded eigensolve. Callers that pass a
SigmaCounts get the number of calls and of fallbacks as plain counts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eig_banded, lapack

from .spectral import (
    ConfigurationError,
    FourierGrid,
    ModeParams,
    OperatorMatrix,
    ResolventQuery,
    StarMetric,
    assemble_L_lambda,
    assemble_mode_operators,
    assemble_N_lambda,
    build_grid,
    write_csv_table,
)

DENSE_SVD_MAX = 256
ITER_TOL = 1e-10
ITER_MAX = 30


@dataclass(frozen=True)
class PsiQuery:
    """Scan interval, coarse resolution and refinement tolerance for Psi."""

    lam_lo: float
    lam_hi: float
    scan_count: int = 256
    refine_rtol: float = 1e-3
    metric: str = "euclidean"  # or "star"

    def __post_init__(self):
        if not self.lam_lo < self.lam_hi:
            raise ConfigurationError("lam_lo must be < lam_hi")
        if self.scan_count < 16:
            raise ConfigurationError("scan count must be >= 16")
        if self.metric not in ("euclidean", "star"):
            raise ConfigurationError(f"unknown metric {self.metric!r}")


@dataclass
class SigmaCounts:
    """smallest_singular_value calls, and those of them that stalled and fell
    back to the Jordan-Wielandt eigensolve."""

    evals: int = 0
    fallbacks: int = 0


@dataclass
class PsiResult:
    psi: float
    lam_star: float
    lam_grid: np.ndarray
    sigma_grid: np.ndarray
    converged: bool
    scan_error: float  # Lipschitz bound on psi - inf over the interval
    flags: list[str] = field(default_factory=list)
    sigma_evals: int = 0
    sigma_fallbacks: int = 0

    def as_record(self) -> dict:
        return {
            "psi": self.psi,
            "lam_star": self.lam_star,
            "converged": self.converged,
            "scan_error": self.scan_error,
            "flags": list(self.flags),
            "sigma_evals": self.sigma_evals,
            "sigma_fallbacks": self.sigma_fallbacks,
        }


@dataclass
class PseudospectrumField:
    re: np.ndarray
    im: np.ndarray
    sigma: np.ndarray  # sigma[i, j] = sigma_min(A - (re[j] + i*im[i]))

    def write_csv(self, path, header_lines: list[str] | None = None) -> None:
        rows = ((a, b, self.sigma[i, j])
                for i, b in enumerate(self.im) for j, a in enumerate(self.re))
        write_csv_table(path, ["re", "im", "sigma_min"], rows, header_lines)


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
    of its band array, the row sums those of the band array of M^*, each
    summed in ascending offset order."""
    col = sum(np.abs(r) for r in op.ab[::-1])
    row = sum(np.abs(r) for r in op.adjoint().ab)
    return float(np.sqrt(col.max() * row.max()))


def _sigma_min_banded(op: OperatorMatrix, rng_seed: int = 0x5EED,
                      block: int = 3) -> float | None:
    """sigma_min via block inverse iteration with (M^*M)^(-1) = M^(-1) M^(-*).

    One banded LU of M serves both solves per iteration (zgbtrs supports the
    conjugate-transpose triangles of the same factorization). A small block
    rides through the near-degenerate singular pairs the lambda=0 symmetry
    produces; sigma_min is the smallest Ritz value of M on the block. The
    iteration stops once the Ritz pair (sigma, z), u = Mz/sigma, has
    ||M^* u - sigma z|| <= ITER_TOL * ||M||; after ITER_MAX iterations
    without that it returns None (a stall).
    """
    n, bw = op.n, op.b
    # zgbtrf wants bw rows above the band for the fill-in of U
    lu, ipiv, info = lapack.zgbtrf(np.vstack([np.zeros((bw, n), complex), op.ab]), bw, bw)
    if info != 0:
        # exactly singular shifted operator: sigma_min is zero
        return 0.0
    rng = np.random.default_rng(rng_seed)
    b = min(block, n)
    v = rng.standard_normal((n, b)) + 1j * rng.standard_normal((n, b))
    v, _ = np.linalg.qr(v)
    adjoint = op.adjoint()
    tol = ITER_TOL * _norm_bound(op)
    for _ in range(ITER_MAX):
        y, info1 = lapack.zgbtrs(lu, bw, bw, v, ipiv, trans=2)   # M^(-*) V
        x, info2 = lapack.zgbtrs(lu, bw, bw, y, ipiv, trans=0)   # M^(-1) Y
        if info1 != 0 or info2 != 0 or not np.all(np.isfinite(x)):
            return None
        v, _ = np.linalg.qr(x)
        w = op.matvec(v)
        _, evecs = np.linalg.eigh(w.conj().T @ w)
        mz = w @ evecs[:, 0]
        sigma = float(np.linalg.norm(mz))
        if sigma == 0.0:
            return 0.0
        resid = adjoint.matvec(mz / sigma) - sigma * (v @ evecs[:, 0])
        if np.linalg.norm(resid) <= tol:
            return sigma
    return None


def _sigma_min_jordan_wielandt(op: OperatorMatrix) -> float:
    """sigma_min as eigenvalue n (ascending, from 0) of the Hermitian
    Jordan-Wielandt matrix B = [[0, M], [M^*, 0]], whose eigenvalues are
    +-sigma_i (Golub & Van Loan, Matrix Computations, sec. 8.6).

    Rows and columns interleave (2i <- row i of M, 2c+1 <- column c), so B
    is banded with half-bandwidth 2*bw+1. Its lower band holds M[i, c] at
    B[2i, 2c+1] for i > c and conj(M[i, c]) at B[2c+1, 2i] for c >= i.
    Bisection on the tridiagonalized band gives sigma_min to an absolute
    error of order eps*||M||, whatever the clustering.
    """
    n, bw = op.n, op.b
    jw = np.zeros((2 * bw + 2, 2 * n), dtype=complex)
    for k in range(bw + 1):
        # M[j, j+k] = op.ab[bw-k, j+k] -> B[2(j+k)+1, 2j], lower-band row 2k+1
        jw[2 * k + 1, 0:2 * (n - k):2] = np.conj(op.ab[bw - k, k:])
    for k in range(1, bw + 1):
        # M[j+k, j] = op.ab[bw+k, j] -> B[2(j+k), 2j+1], lower-band row 2k-1
        jw[2 * k - 1, 1:2 * (n - k):2] = op.ab[bw + k, :n - k]
    w = eig_banded(jw, lower=True, eigvals_only=True, select="i", select_range=(n, n))
    return abs(float(w[0]))


def smallest_singular_value(op: OperatorMatrix, lam: float = 0.0,
                            metric: StarMetric | None = None,
                            method: str = "auto", *,
                            counts: SigmaCounts | None = None) -> float:
    """sigma_min of (A - i*lam) in the given metric.

    With a metric W this is sigma_min(W^(1/2) (A - i*lam) W^(-1/2)); the
    similarity is exact because W is diagonal. `method` is one of
    "auto" | "dense" | "banded"; any other value raises
    ConfigurationError. A stall of the banded iteration warns and,
    if `counts` is given, is tallied there with every call.
    """
    if method not in ("auto", "dense", "banded"):
        raise ConfigurationError(f"unknown sigma_min method {method!r}")
    if counts is not None:
        counts.evals += 1
    shifted = op.shifted(lam)
    if metric is not None:
        if metric.keep is not None:
            shifted = shifted.restricted(metric.keep)
        shifted = shifted.scaled_similarity(metric.sqrt_weights())
    if method == "dense" or (method == "auto" and shifted.n <= DENSE_SVD_MAX):
        return float(np.linalg.svd(shifted.dense(), compute_uv=False)[-1])
    sigma = _sigma_min_banded(shifted)
    if sigma is not None:
        return sigma
    warnings.warn(f"banded sigma_min did not converge in {ITER_MAX} iterations; "
                  "falling back to dense-accuracy Jordan-Wielandt eigensolve")
    if counts is not None:
        counts.fallbacks += 1
    return _sigma_min_jordan_wielandt(shifted)


def _column_norm_bound(op: OperatorMatrix, lam: float) -> float:
    """min_j ||(A - i*lam) e_j||: an upper bound for sigma_min."""
    sq = sum(np.abs(r) ** 2 for r in op.shifted(lam).ab[::-1])
    return float(np.sqrt(sq.min()))


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


def default_psi_query(params: ModeParams, margin: float = 0.5, **kw) -> PsiQuery:
    """Scan +-1.5*|shear|*(1+margin): the skew numerical range is +-|shear|."""
    half = 1.5 * abs(params.shear) * (1.0 + margin)
    if half == 0.0:
        half = 1.0
    return PsiQuery(lam_lo=-half, lam_hi=half, **kw)


def compute_psi(op: OperatorMatrix, query: PsiQuery,
                metric: StarMetric | None = None,
                extra_lams: np.ndarray | None = None) -> PsiResult:
    """Coarse scan + golden-section refinement of all interior local minima.

    The metric is applied once per scan (restriction to `metric.keep`, then
    the similarity W^(1/2) A W^(-1/2)) and each point only shifts the
    result; the shift commutes with both, so this is exact up to rounding.

    If the transformed operator M is real, sigma_min is even in lam:
    conj(M - i*lam) = M + i*lam has the same singular values. Each distinct
    |lam| is then evaluated once, at +|lam|. On a symmetric interval
    (lam_lo == -lam_hi) the coarse grid is made exactly odd, so mirrored
    points share one SVD and `sigma_grid` equals its reverse; refining the
    mirror of a refined minimum visits the mirrored points and makes no new
    SVD. `lam_star` is reported as -|lam|, the first point of its mirrored
    pair, so lam_star <= 0. Any other operator is evaluated once per
    distinct lam. `sigma_evals` counts the SVDs of the scan and
    `sigma_fallbacks` those that fell back to the Jordan-Wielandt eigensolve.
    """
    if query.metric == "star" and metric is None:
        raise ConfigurationError("star metric requested but none supplied")
    if query.metric == "euclidean":
        metric = None
    a = op
    if metric is not None:
        if metric.keep is not None:
            a = a.restricted(metric.keep)
        a = a.scaled_similarity(metric.sqrt_weights())
    even = not np.any(a.ab.imag)
    counts = SigmaCounts()
    memo: dict[float, float] = {}

    def sigma(lam: float) -> float:
        key = abs(float(lam)) if even else float(lam)
        if key not in memo:
            memo[key] = smallest_singular_value(a, key, counts=counts)
        return memo[key]

    flags: list[str] = []
    symmetric = query.lam_lo == -query.lam_hi
    lam_grid = np.linspace(query.lam_lo, query.lam_hi, query.scan_count)
    if symmetric:
        lam_grid = (lam_grid - lam_grid[::-1]) / 2.0
    if extra_lams is not None and len(extra_lams):
        lam_grid = np.unique(np.concatenate([lam_grid, np.asarray(extra_lams, float)]))
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
                                         query.refine_rtol)
        if s < best_sig:
            best_sig, best_lam = s, lam
            width = width_i
    if even and symmetric:
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
        sigma_evals=counts.evals,
        sigma_fallbacks=counts.fallbacks,
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
            sigma[i, j] = smallest_singular_value(op.shifted(y - 1j * x), 0.0)
    return PseudospectrumField(re=re, im=im, sigma=sigma)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _pick_n(delta: float, n_min: int = 64, n_max: int = 4096) -> int:
    n = n_min
    while n < 8.0 / delta and n < n_max:
        n *= 2
    return n


def _decade_key(alpha: float) -> int:
    return int(np.floor(np.log10(abs(alpha)) + 1e-12))


def resolvent_bound_sweep(kind: str, nus, alphas, lams, betas=None,
                          n_max: int = 4096) -> tuple[EmpiricalConstants, list[dict]]:
    """Normalized resolvent lower-bound table over a (nu, alpha, lambda[, beta]) sweep.

    For each point computes r = sigma_min / (sqrt|alpha| * factor), factor
    being (1 - beta^(-2)) for the w-form nonlocal operator and 1 otherwise.
    C_hat is the smallest r over adequately resolved points; decade stability
    is max/min of the per-alpha-decade lower envelopes. A row's `fallback`
    says whether its sigma_min came from the Jordan-Wielandt eigensolve
    after banded inverse iteration stalled.
    """
    if kind not in ("Nlambda", "Llambda", "Lu-form"):
        raise ConfigurationError(f"unknown sweep kind {kind!r}")
    if kind != "Nlambda" and not betas:
        raise ConfigurationError("beta list required for the nonlocal sweeps")
    rows: list[dict] = []
    beta_list = [None] if kind == "Nlambda" else list(betas)
    for nu in nus:
        for alpha in alphas:
            if abs(alpha) < 100.0 * nu**2:
                rows.append({"kind": kind, "nu": nu, "alpha": alpha,
                             "flag": "regime", "ratio": np.nan, "fallback": False})
                continue
            params = ModeParams(nu=nu, gamma=max(abs(alpha), 1.0), k_f=1.0, k1=1, k3=0)
            delta = abs(alpha) ** -0.25 * np.sqrt(nu)
            n = _pick_n(delta, n_max=n_max)
            grid = build_grid(n, params, alpha=alpha)
            inadequate = not grid.adequate
            for beta in beta_list:
                for lam in lams:
                    if kind == "Nlambda":
                        op = assemble_N_lambda(params, lam, grid, alpha=alpha)
                        factor = 1.0
                    elif kind == "Llambda":
                        q = ResolventQuery(lam=lam, beta_tilde=np.sqrt(beta**2 - 1.0))
                        op = assemble_L_lambda(params, q, grid, alpha=alpha, beta=beta)
                        factor = 1.0 - beta**-2
                    else:
                        q = ResolventQuery(lam=lam, beta_tilde=np.sqrt(beta**2 - 1.0))
                        op = assemble_L_lambda(params, q, grid, alpha=alpha, beta=beta,
                                               u_form=True)
                        factor = 1.0
                    counts = SigmaCounts()
                    sigma = smallest_singular_value(op, counts=counts)
                    row = {
                        "kind": kind, "nu": nu, "alpha": alpha, "lam": lam,
                        "beta": beta, "n": n, "sigma_min": sigma,
                        "ratio": sigma / (np.sqrt(abs(alpha)) * factor),
                        "flag": "inadequate" if inadequate else "",
                        "fallback": counts.fallbacks > 0,
                    }
                    rows.append(row)
    good = [r for r in rows if r.get("flag") == ""]
    if not good:
        raise ConfigurationError("no adequately resolved sweep points")
    per_decade: dict[int, float] = {}
    for r in good:
        d = _decade_key(r["alpha"])
        per_decade[d] = min(per_decade.get(d, np.inf), r["ratio"])
    envelope = list(per_decade.values())
    decade_ratio = max(envelope) / min(envelope)
    c_hat = EmpiricalConstants(
        name=f"C_hat[{kind}]",
        value=min(r["ratio"] for r in good),
        sweep=good,
        decade_ratio=float(decade_ratio),
    )
    return c_hat, rows


def psi_for_params(params: ModeParams, which: str, n: int | None = None,
                   scan_count: int = 128, refine_rtol: float = 1e-3) -> PsiResult:
    """Psi of one mode operator; which in {"H", "L", "Q1L"}.

    "H" uses the euclidean metric; "L" the beta>1 star metric; "Q1L" the
    alpha=1 mean-zero star metric.
    """
    alpha_res = params.k1 * params.gamma / params.k_f**4  # resolvent-scale alpha
    delta = abs(alpha_res) ** -0.25 * np.sqrt(params.nu)
    if n is None:
        n = _pick_n(delta)
    grid = build_grid(n, params, alpha=alpha_res)
    mode_l, mode_h = assemble_mode_operators(params, grid)
    query = default_psi_query(params, scan_count=scan_count, refine_rtol=refine_rtol,
                              metric="euclidean" if which == "H" else "star")
    if which == "H":
        return compute_psi(mode_h, query)
    if which == "L":
        metric = StarMetric.for_beta(params.beta, grid)
        return compute_psi(mode_l, query, metric=metric)
    if which == "Q1L":
        if params.beta != 1.0:
            raise ConfigurationError("Q1L path requires k1^2+k3^2 = k_f^2 = 1")
        metric = StarMetric.for_alpha1(grid)
        return compute_psi(mode_l, query, metric=metric)
    raise ConfigurationError(f"unknown operator selector {which!r}")


def psi_bound_sweep(sweep_params: list[ModeParams], which: str = "H",
                    n: int | None = None, scan_count: int = 128
                    ) -> tuple[EmpiricalConstants, list[dict]]:
    """Psi_hat / (sqrt|k1 gamma| * factor) table; c_hat := min over the sweep."""
    rows = []
    for p in sweep_params:
        res = psi_for_params(p, which, n=n, scan_count=scan_count)
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
    ratios = [r["ratio"] for r in good]
    c_hat = EmpiricalConstants(
        name=f"c_hat[{which}]",
        value=min(ratios),
        sweep=good,
        decade_ratio=float(max(ratios) / min(ratios)),
    )
    return c_hat, rows


def write_sweep_csv(rows: list[dict], path, header_lines: list[str] | None = None) -> None:
    cols = ["kind", "which", "nu", "gamma", "k_f", "k1", "k3", "alpha", "beta",
            "lam", "lam_star", "n", "sigma_min", "psi", "ratio", "flag"]
    write_csv_table(path, cols, ([r.get(c) for c in cols] for r in rows), header_lines)
