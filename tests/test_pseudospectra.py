"""sigma_min paths, Psi scans, pseudospectrum fields and bound sweeps."""

import warnings

import numpy as np
import pytest

from kolmoflow.spectral import (
    ModeParams,
    OperatorMatrix,
    ResolventQuery,
    StarMetric,
    assemble_L_lambda,
    assemble_mode_operators,
    assemble_N_lambda,
    build_grid,
)
from kolmoflow.pseudospectra import (
    EmpiricalConstants,
    PsiQuery,
    _sigma_min_jordan_wielandt,
    compute_psi,
    default_psi_query,
    pseudospectrum_grid,
    psi_bound_sweep,
    psi_for_params,
    resolvent_bound_sweep,
    smallest_singular_value,
)


def diag_op(*values):
    return OperatorMatrix.from_dense(np.diag(np.asarray(values, dtype=complex)))


def n_lambda_cell(nu, alpha, n, lam):
    p = ModeParams(nu=nu, gamma=max(abs(alpha), 1.0), k_f=1.0, k1=1, k3=0)
    return assemble_N_lambda(p, lam, build_grid(n, p, alpha=alpha), alpha=alpha)


def dense_sigma_min(op):
    return np.linalg.svd(op.dense(), compute_uv=False)[-1]


class TestSigmaMin:
    def test_identity(self):
        assert smallest_singular_value(diag_op(1, 1, 1)) == pytest.approx(1.0)

    def test_diag(self):
        assert smallest_singular_value(diag_op(1, 2, 3)) == pytest.approx(1.0)

    def test_shift(self):
        # sigma_min(diag(2) - i) = sqrt(5)
        assert smallest_singular_value(diag_op(2), lam=1.0) == pytest.approx(np.sqrt(5.0))

    def test_iterative_matches_dense(self):
        p = ModeParams(nu=1e-2, gamma=1.0, k_f=1.0, k1=1, k3=0)
        grid = build_grid(128, p, alpha=10.0)
        op = assemble_N_lambda(p, 0.5, grid, alpha=10.0)
        dense = smallest_singular_value(op, method="dense")
        banded = smallest_singular_value(op, method="banded")
        assert abs(dense - banded) / dense <= 1e-9

    def test_banded_residual_stop_matches_dense(self):
        # a stop on the change of sigma accepts an answer 1.3e-9 off here
        op = n_lambda_cell(1e-2, 10.0, 256, 0.75)
        dense = dense_sigma_min(op)
        banded = smallest_singular_value(op, method="banded")
        assert abs(banded - dense) / dense <= 1e-12

    def test_stall_falls_back_once_to_jordan_wielandt(self):
        # |lambda| > 1 clusters the bottom singular values: inverse iteration
        # stalls at its cap and the banded eigensolve takes over
        op = n_lambda_cell(1e-3, 100.0, 1024, 1.5)
        dense = dense_sigma_min(op)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sigma = smallest_singular_value(op)
        fallbacks = [w for w in caught if "falling back to dense" in str(w.message)]
        assert len(fallbacks) == 1 and len(caught) == 1
        assert abs(sigma - dense) / dense <= 1e-10

    def test_jordan_wielandt_star_metric_l_lambda(self):
        p = ModeParams(nu=1e-2, gamma=100.0, k_f=1.0, k1=1, k3=0)
        grid = build_grid(128, p, alpha=100.0)
        metric = StarMetric.for_beta(2.0, grid)
        for lam in (0.0, 0.75, 1.5):
            q = ResolventQuery(lam=lam, beta_tilde=np.sqrt(3.0))
            op = assemble_L_lambda(p, q, grid, alpha=100.0, beta=2.0)
            m = op.scaled_similarity(metric.sqrt_weights())
            dense = dense_sigma_min(m)
            assert abs(_sigma_min_jordan_wielandt(m) - dense) / dense <= 1e-12

    def test_metric_consistency(self):
        # euclid and star sigma_min within factors (1-beta^-2)^(+-1/2)
        p = ModeParams(nu=0.01, gamma=0.3, k_f=0.5, k1=1, k3=1)
        grid = build_grid(64, p)
        mode_l, _ = assemble_mode_operators(p, grid)
        metric = StarMetric.for_beta(p.beta, grid)
        fac = np.sqrt(1.0 - p.beta**-2)
        for lam in (0.0, 5.0, -12.0):
            se = smallest_singular_value(mode_l, lam)
            ss = smallest_singular_value(mode_l, lam, metric=metric)
            assert fac * se * (1 - 1e-10) <= ss <= se / fac * (1 + 1e-10)


class TestComputePsi:
    def test_normal_diag(self):
        res = compute_psi(diag_op(2, 5), PsiQuery(-3.0, 3.0, scan_count=64))
        assert res.psi == pytest.approx(2.0, rel=1e-6)
        assert res.lam_star == pytest.approx(0.0, abs=1e-3)
        assert res.converged

    def test_boundary_flagged(self):
        # minimum of sigma(diag(1)-i lam) over [1, 2] sits at lam=1: boundary
        res = compute_psi(diag_op(1), PsiQuery(1.0, 2.0, scan_count=16))
        assert not res.converged
        assert any("boundary" in f for f in res.flags)

    def test_scan_resolution_self_consistency(self):
        p = ModeParams(nu=0.01, gamma=0.4, k_f=1.0, k1=1, k3=0)
        grid = build_grid(256, p, alpha=p.k1 * p.gamma / p.k_f**4)
        _, mode_h = assemble_mode_operators(p, grid)
        r1 = compute_psi(mode_h, default_psi_query(p, scan_count=96))
        r2 = compute_psi(mode_h, default_psi_query(p, scan_count=144))
        assert abs(r1.psi - r2.psi) / r1.psi <= 0.01

    def test_determinism(self):
        p = ModeParams(nu=0.01, gamma=0.4, k_f=1.0, k1=1, k3=0)
        grid = build_grid(128, p, alpha=0.4)
        _, mode_h = assemble_mode_operators(p, grid)
        q = default_psi_query(p, scan_count=48)
        a = compute_psi(mode_h, q)
        b = compute_psi(mode_h, q)
        assert a.psi == b.psi and a.lam_star == b.lam_star
        assert np.array_equal(a.sigma_grid, b.sigma_grid)

    def test_psi_below_spectral_abscissa(self):
        # Psi lower-bounds Re(eig) for accretive operators; add the eigenvalue
        # imaginary parts to the scan so the comparison is exact
        p = ModeParams(nu=0.02, gamma=0.3, k_f=0.5, k1=1, k3=0)
        grid = build_grid(128, p)
        _, mode_h = assemble_mode_operators(p, grid)
        eigs = np.linalg.eigvals(mode_h.dense())
        q = default_psi_query(p, scan_count=64)
        inside = np.abs(eigs.imag) <= q.lam_hi
        res = compute_psi(mode_h, q, extra_lams=eigs.imag[inside])
        assert res.psi <= eigs.real.min() * (1 + 1e-9)

    def test_sqrt_gamma_scaling(self):
        psi_lo = psi_for_params(
            ModeParams(nu=0.01, gamma=0.1, k_f=1.0, k1=1, k3=0), "H", n=128).psi
        psi_hi = psi_for_params(
            ModeParams(nu=0.01, gamma=0.4, k_f=1.0, k1=1, k3=0), "H", n=128).psi
        assert psi_hi / psi_lo == pytest.approx(2.0, rel=0.15)


class TestPseudospectrumGrid:
    def test_diag_values(self):
        field = pseudospectrum_grid(diag_op(1), (-0.5, 1.0, -0.5, 0.5), (16, 9))
        j1 = np.argmin(np.abs(field.re - 1.0))
        j0 = np.argmin(np.abs(field.re - 0.0))
        i0 = np.argmin(np.abs(field.im - 0.0))
        assert field.sigma[i0, j1] == pytest.approx(0.0, abs=1e-12)
        assert field.sigma[i0, j0] == pytest.approx(1.0, rel=1e-12)
        assert (field.sigma >= -1e-15).all()

    def test_jordan_block(self):
        jordan = OperatorMatrix.from_dense(np.array([[0, 1], [0, 0]], dtype=complex))
        field = pseudospectrum_grid(jordan, (-0.1, 0.1, -0.1, 0.1), (9, 9))
        center = field.sigma[4, 4]
        assert center == pytest.approx(0.0, abs=1e-12)
        # closed form at z=0.1: sigma_min([[ -z, 1], [0, -z]])
        z = 0.1
        m = np.array([[-z, 1], [0, -z]])
        want = np.linalg.svd(m, compute_uv=False)[-1]
        j = np.argmin(np.abs(field.re - 0.1))
        i = np.argmin(np.abs(field.im - 0.0))
        assert field.sigma[i, j] == pytest.approx(want, rel=1e-10)
        assert field.sigma[i, j] < 0.1  # nonnormal bulge

    def test_conjugate_symmetry(self):
        p = ModeParams(nu=0.05, gamma=0.3, k_f=1.0, k1=1, k3=0)
        grid = build_grid(32, p)
        _, mode_h = assemble_mode_operators(p, grid)
        field = pseudospectrum_grid(mode_h, (0.0, 1.0, -2.0, 2.0), (8, 9))
        assert np.allclose(field.sigma, field.sigma[::-1, :], rtol=1e-9)

    def test_resolution_validated(self):
        with pytest.raises(Exception):
            pseudospectrum_grid(diag_op(1), (0, 1, 0, 1), (4, 4))

    def test_csv_roundtrip(self, tmp_path):
        field = pseudospectrum_grid(diag_op(1, 2), (-1, 1, -1, 1), (8, 8))
        out = tmp_path / "field.csv"
        field.write_csv(out)
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "re,im,sigma_min"
        assert len(rows) == 1 + 64


class TestResolventSweep:
    def test_small_N_sweep(self):
        c_hat, rows = resolvent_bound_sweep(
            "Nlambda", nus=[1e-2, 3e-3], alphas=[10.0, 100.0], lams=[0.0, 0.5, 1.0])
        assert isinstance(c_hat, EmpiricalConstants)
        assert c_hat.value > 0
        assert c_hat.decade_ratio <= 3.0
        assert all(r["ratio"] > 0 for r in rows if r.get("flag") == "")

    def test_far_shift_diagonally_dominant(self):
        # lambda = 10: sigma_min ~ |alpha|(lambda-1)/nu >> C sqrt(alpha)
        nu, alpha = 1e-2, 10.0
        p = ModeParams(nu=nu, gamma=1.0, k_f=1.0, k1=1, k3=0)
        grid = build_grid(64, p, alpha=alpha)
        op = assemble_N_lambda(p, 10.0, grid, alpha=alpha)
        sigma = smallest_singular_value(op)
        assert sigma >= 0.9 * alpha * 9.0 / nu
        assert sigma / np.sqrt(alpha) > 100.0

    def test_llambda_beta_factor(self):
        # Llambda ratios at beta=2 vs beta=10 agree after the (1-beta^-2)
        # normalization, up to sweep noise
        c2, rows2 = resolvent_bound_sweep("Llambda", nus=[1e-2], alphas=[100.0],
                                          lams=[0.0, 0.5], betas=[2.0])
        c10, rows10 = resolvent_bound_sweep("Llambda", nus=[1e-2], alphas=[100.0],
                                            lams=[0.0, 0.5], betas=[10.0])
        for r2, r10 in zip(rows2, rows10):
            assert r2["ratio"] / r10["ratio"] == pytest.approx(1.0, abs=0.75)

    def test_regime_points_flagged(self):
        c_hat, rows = resolvent_bound_sweep(
            "Nlambda", nus=[1e-2], alphas=[1e-3, 10.0], lams=[0.0])
        flagged = [r for r in rows if r.get("flag") == "regime"]
        assert len(flagged) == 1
        assert all(r["alpha"] != 1e-3 for r in c_hat.sweep)


class TestPsiSweep:
    def test_h_sweep_scaling_and_stability(self):
        sweep = [ModeParams(nu=0.01, gamma=g, k_f=kf, k1=k1, k3=0)
                 for g in (0.1, 0.4) for kf in (0.5, 1.0) for k1 in (1, 2)]
        c_hat, rows = psi_bound_sweep(sweep, which="H", n=256, scan_count=96)
        assert c_hat.value > 0
        assert c_hat.decade_ratio <= 3.0

    def test_k1_doubling(self):
        p1 = ModeParams(nu=0.01, gamma=0.2, k_f=1.0, k1=1, k3=0)
        p2 = ModeParams(nu=0.01, gamma=0.2, k_f=1.0, k1=2, k3=0)
        r1 = psi_for_params(p1, "H", n=192)
        r2 = psi_for_params(p2, "H", n=192)
        assert r2.psi / r1.psi == pytest.approx(np.sqrt(2.0), rel=0.15)

    def test_q1_variant_positive_with_sqrt_scaling(self):
        lo = psi_for_params(ModeParams(nu=0.01, gamma=0.1, k_f=1.0, k1=1, k3=0),
                            "Q1L", n=192).psi
        hi = psi_for_params(ModeParams(nu=0.01, gamma=0.4, k_f=1.0, k1=1, k3=0),
                            "Q1L", n=192).psi
        assert lo > 0 and hi > 0
        assert hi / lo == pytest.approx(2.0, rel=0.20)
