"""Operator assembly: collocation oracles, band structure, accretivity;
the package's one worker pool."""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kolmoflow

from band_oracle import band_of
from kolmoflow.evolution import alpha1_generator, coupled_generators
from kolmoflow.pseudospectra import psi_operator
from kolmoflow.spectral import (
    TWO_PI,
    ConfigurationError,
    FourierGrid,
    ModeParams,
    OperatorMatrix,
    StarMetric,
    assemble_L1,
    assemble_L_lambda,
    assemble_mode_operators,
    assemble_N_lambda,
    build_grid,
    helmholtz_inverse,
    mean_projections,
    multiplication_matrix,
    process_map,
    step_count,
)

RNG = np.random.default_rng(20260809)


def params_for(nu=0.01, gamma=0.4, k_f=1.0, k1=1, k3=0):
    return ModeParams(nu=nu, gamma=gamma, k_f=k_f, k1=k1, k3=k3)


def star_inner(metric, c, d):
    """<c, d>_* = 2*pi sum_n w_n c_n conj(d_n) over the metric's modes
    (n != 0 where `keep` masks the mean out)."""
    keep = slice(None) if metric.keep is None else metric.keep
    return TWO_PI * np.sum(metric.weights[keep] * c[keep] * np.conj(d[keep]))


def star_norm(metric, c):
    return np.sqrt(star_inner(metric, c, c).real)


def to_coeffs(grid, values):
    """Grid values -> coefficients of e^{i n y} in monotone order."""
    return np.fft.fftshift(np.fft.fft(values)) / grid.n


def grid_points(grid):
    """The collocation points y_j = 2*pi*j/N that `to_grid` evaluates at."""
    return TWO_PI * np.arange(grid.n) / grid.n


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

class TestGrid:
    def test_transform_roundtrip(self):
        grid = build_grid(64, params_for())
        w = RNG.standard_normal(64) + 1j * RNG.standard_normal(64)
        back = grid.to_grid(to_coeffs(grid, w))
        assert np.linalg.norm(back - w) / np.linalg.norm(w) <= 1e-12

    def test_delta_and_adequacy(self):
        # delta = 100^(-1/4) * 0.1 ~ 0.03162, 8/delta ~ 252.98
        p = params_for(nu=1e-2, gamma=1.0, k_f=1.0, k1=1, k3=0)
        g64 = build_grid(64, p, alpha=100.0)
        assert g64.delta == pytest.approx(100 ** -0.25 * 0.1, rel=1e-12)
        assert 8.0 / g64.delta == pytest.approx(252.98, abs=0.01)
        assert not g64.adequate
        assert build_grid(256, p, alpha=100.0).adequate

    def test_wavenumber_range(self):
        grid = build_grid(16, params_for())
        assert grid.wavenumbers[0] == -8 and grid.wavenumbers[-1] == 7

    def test_odd_n_rejected(self):
        with pytest.raises(ConfigurationError):
            build_grid(15, params_for())
        with pytest.raises(ConfigurationError):
            build_grid(8, params_for())

    def test_step_count(self):
        # 0.3/0.1 = 2.9999999999999996; 1 + 5e-10 is within 1e-9 of 1
        assert step_count(0.3, 0.1) == 3
        assert step_count(300.0, 0.75) == 400
        assert step_count(1.0 + 5e-10, 1.0) == 1
        assert step_count(1.0 + 5e-9, 1.0) == 2
        assert step_count(1.0, 0.3) == 4

    def test_parseval(self):
        grid = build_grid(32, params_for())
        c = grid.random_coeffs(RNG)
        w = grid.to_grid(c)
        assert np.sqrt(2 * np.pi / grid.n) * np.linalg.norm(w) == pytest.approx(
            grid.norm_coeffs(c), rel=1e-12)


class TestModeParams:
    def test_alpha_beta(self):
        p = params_for(k_f=0.5, k1=1, k3=1)
        assert p.alpha == pytest.approx(np.sqrt(2) / 0.5)
        assert p.beta == p.alpha

    def test_regime_warning(self):
        with pytest.warns(UserWarning):
            ModeParams(nu=0.1, gamma=0.5, k_f=1.0, k1=1, k3=0)


# ---------------------------------------------------------------------------
# collocation oracle: Fourier-assembled action == physical-space evaluation
# ---------------------------------------------------------------------------

def collocation_apply(kind, grid, params, lam=None, u_form=False, nu=None, beta=None):
    """Pointwise physical-space evaluation of each operator on coefficients."""
    y = grid_points(grid)
    n = grid.wavenumbers

    def act(c):
        w = grid.to_grid(c)
        wpp = grid.to_grid(-(n**2) * c)
        if kind == "Nlambda":
            return (1j * params.alpha / params.nu) * (np.sin(y) - lam) * w - params.nu * wpp
        if kind == "Llambda" and not u_form:
            phi = grid.to_grid(-c / (params.beta**2 + n**2))
            return (1j * params.alpha / params.nu) * (
                (np.sin(y) - lam) * w + np.sin(y) * phi) - params.nu * wpp
        if kind == "Llambda" and u_form:
            # the reduced wavenumber beta_tilde^2 = beta^2 - 1
            phi = grid.to_grid(-c / (params.beta**2 - 1.0 + n**2))
            return (1j * params.alpha / params.nu) * (
                (np.sin(y) - lam) * w + lam * phi) - params.nu * wpp
        if kind == "ModeH":
            cc = 1j * params.k1 * params.gamma / (params.k_f**2 * params.nu)
            return -params.nu * params.k_f**2 * wpp + cc * np.sin(y) * w
        if kind == "ModeL":
            cc = 1j * params.k1 * params.gamma / (params.k_f**2 * params.nu)
            hw = grid.to_grid(c / (params.beta**2 + n**2))
            return -params.nu * params.k_f**2 * wpp + cc * np.sin(y) * (w - hw)
        if kind == "L1":
            return nu * wpp - nu * w - (1j * beta / nu) * np.sin(y) * w
        raise AssertionError(kind)

    return act


@pytest.mark.parametrize("n", [32, 64])
def test_collocation_equivalence(n):
    p = params_for(nu=0.01, gamma=0.3, k_f=0.5, k1=2, k3=1)
    grid = build_grid(n, p)
    lam = 0.37
    cases = [
        (assemble_N_lambda(p, lam, grid), collocation_apply("Nlambda", grid, p, lam=lam)),
        (assemble_L_lambda(p, lam, grid), collocation_apply("Llambda", grid, p, lam=lam)),
        (assemble_L_lambda(p, lam, grid, u_form=True),
         collocation_apply("Llambda", grid, p, lam=lam, u_form=True)),
        (assemble_mode_operators(p, grid)[0], collocation_apply("ModeL", grid, p)),
        (assemble_mode_operators(p, grid)[1], collocation_apply("ModeH", grid, p)),
        (assemble_L1(0.01, 0.3, grid), collocation_apply("L1", grid, p, nu=0.01, beta=0.3)),
    ]
    for case, (op, oracle) in enumerate(cases):
        for _ in range(50):
            c = grid.random_coeffs(RNG)
            got = grid.to_grid(op.matvec(c))
            want = oracle(c)
            err = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert err <= 1e-9, (case, err)


def test_band_structure():
    p = params_for(nu=0.01, gamma=0.3, k_f=0.5, k1=2, k3=1)
    grid = build_grid(64, p)
    ml, mh = assemble_mode_operators(p, grid)
    ops = [
        assemble_N_lambda(p, 0.2, grid),
        assemble_L_lambda(p, 0.2, grid),
        assemble_L_lambda(p, 0.2, grid, u_form=True),
        ml, mh,
        assemble_L1(0.01, 0.3, grid),
    ]
    for op in ops:
        assert band_of(op.dense()).b <= 2
        dense = op.dense()
        for k in range(3, grid.n):
            assert not np.any(np.diagonal(dense, offset=k))
            assert not np.any(np.diagonal(dense, offset=-k))
    # the Helmholtz inverse is diagonal by type: one real entry per mode
    hinv = helmholtz_inverse(p.beta, grid)
    assert hinv.shape == (grid.n,) and hinv.dtype == np.float64


# ---------------------------------------------------------------------------
# trivial-value examples
# ---------------------------------------------------------------------------

class TestPointExamples:
    def test_N_lambda_on_constant(self):
        # N_0 applied to 1 is i(alpha/nu) sin y: coefficients only at n=+-1
        p = params_for(nu=0.02, gamma=1.0, k_f=1.0, k1=3, k3=4)
        grid = build_grid(32, p)
        c = np.zeros(32, dtype=complex)
        c[grid.wavenumbers == 0] = 1.0
        out = assemble_N_lambda(p, 0.0, grid).matvec(c)
        mod = np.abs(out)
        mask = np.abs(grid.wavenumbers) == 1
        assert np.allclose(mod[mask], p.alpha / (2 * p.nu), rtol=1e-13)
        assert np.allclose(mod[~mask], 0.0, atol=1e-13)

    def test_N_lambda_alpha_zero_eigenfunction(self):
        # alpha=0: N_lambda e^{iy} = nu e^{iy}
        p = params_for(nu=0.004, gamma=0.4, k_f=1.0, k1=1, k3=0)
        grid = build_grid(32, p)
        c = np.zeros(32, dtype=complex)
        c[grid.wavenumbers == 1] = 1.0
        out = assemble_N_lambda(p, 0.7, grid, alpha=0.0).matvec(c)
        assert np.allclose(out, p.nu * c, atol=1e-15)

    def test_L_lambda_on_constant_beta1(self):
        # (1-d^2)^(-1) 1 = 1, so sin y (1 - (1-d^2)^(-1)) 1 = 0 and
        # L_lambda 1 = -i alpha lam / nu
        p = params_for(nu=0.01, gamma=0.4, k_f=1.0, k1=1, k3=0)
        grid = build_grid(32, p)
        lam = 0.9
        op = assemble_L_lambda(p, lam, grid, beta=1.0)
        c = np.zeros(32, dtype=complex)
        c[grid.wavenumbers == 0] = 1.0
        out = op.matvec(c)
        want = -1j * p.alpha * lam / p.nu * c
        assert np.allclose(out, want, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("beta", [1.0, 0.5])
    def test_u_form_refuses_beta_at_most_one(self, beta):
        # beta_tilde = sqrt(beta^2 - 1) needs beta > 1; the w-form takes beta = 1
        p = params_for(nu=0.01, gamma=0.4, k_f=1.0, k1=1, k3=0)
        grid = build_grid(32, p)
        with pytest.raises(ConfigurationError, match="beta > 1"):
            assemble_L_lambda(p, 0.9, grid, beta=beta, u_form=True)

    def test_helmholtz_diagonal_rule(self):
        p = params_for(k_f=0.5, k1=1, k3=1)
        grid = build_grid(32, p)
        hinv = helmholtz_inverse(p.beta, grid)
        for n_mode in (-5, 0, 3):
            c = np.zeros(32, dtype=complex)
            c[grid.wavenumbers == n_mode] = 1.0
            # phi = (d^2-beta^2)^(-1) e^{iny} = -e^{iny}/(beta^2+n^2)
            phi = -hinv * c
            assert phi[grid.wavenumbers == n_mode] == pytest.approx(
                -1.0 / (p.beta**2 + n_mode**2), rel=1e-14)

    def test_mode_L_annihilates_constants_at_alpha1(self):
        p = params_for(nu=0.01, gamma=0.4, k_f=1.0, k1=1, k3=0)
        assert p.alpha == 1.0
        grid = build_grid(32, p)
        ml, _ = assemble_mode_operators(p, grid)
        c = np.zeros(32, dtype=complex)
        c[grid.wavenumbers == 0] = 1.0
        assert np.allclose(ml.matvec(c), 0.0, atol=1e-14)

    def test_L1_on_constant_and_eigenfunction(self):
        nu, beta = 0.05, 0.3
        p = params_for(nu=nu, gamma=beta)
        grid = build_grid(32, p)
        op = assemble_L1(nu, beta, grid)
        c = np.zeros(32, dtype=complex)
        c[grid.wavenumbers == 0] = 1.0
        out = grid.to_grid(op.matvec(c))
        want = -nu - (1j * beta / nu) * np.sin(grid_points(grid))
        assert np.allclose(out, want, atol=1e-13)
        c = np.zeros(32, dtype=complex)
        c[grid.wavenumbers == 1] = 1.0
        out = op.matvec(c)
        # nu u'' - nu u = -2 nu e^{iy}; sin-coupling spills to n=0,2 only
        assert out[grid.wavenumbers == 1] == pytest.approx(-2 * nu, rel=1e-14)
        spill = np.abs(grid.wavenumbers - 1) == 1
        assert np.allclose(np.abs(out[spill]), beta / (2 * nu), rtol=1e-13)


# ---------------------------------------------------------------------------
# accretivity, projections, star metric, symmetry
# ---------------------------------------------------------------------------

class TestAccretivity:
    def test_modeH_rayleigh_identity(self):
        p = params_for(nu=0.01, gamma=0.3, k_f=0.5, k1=1, k3=1)
        grid = build_grid(64, p)
        _, mh = assemble_mode_operators(p, grid)
        n = grid.wavenumbers
        for _ in range(20):
            c = grid.random_coeffs(RNG)
            lhs = np.real(grid.inner_coeffs(mh.matvec(c), c))
            rhs = p.nu * p.k_f**2 * grid.norm_coeffs(1j * n * c) ** 2
            assert abs(lhs - rhs) / abs(rhs) <= 1e-10

    def test_modeL_star_accretive(self):
        p = params_for(nu=0.01, gamma=0.3, k_f=0.5, k1=1, k3=1)
        grid = build_grid(64, p)
        ml, _ = assemble_mode_operators(p, grid)
        metric = StarMetric.for_beta(p.beta, grid)
        n = grid.wavenumbers
        worst = np.inf
        for _ in range(20):
            c = grid.random_coeffs(RNG)
            lhs = np.real(star_inner(metric, ml.matvec(c), c))
            rhs = p.nu * p.k_f**2 * star_norm(metric, 1j * n * c) ** 2
            assert abs(lhs - rhs) / abs(rhs) <= 1e-10
            worst = min(worst, lhs / star_norm(metric, c) ** 2)
        assert worst >= -1e-12

    def test_modeH_eigenvalues_nonnegative_real(self):
        p = params_for(nu=0.05, gamma=0.3, k_f=0.5, k1=1, k3=0)
        grid = build_grid(128, p)
        _, mh = assemble_mode_operators(p, grid)
        eigs = np.linalg.eigvals(mh.dense())
        assert eigs.real.min() >= -1e-12

    def test_L1_dissipativity_identity(self):
        nu, beta = 0.01, 0.3
        p = params_for(nu=nu, gamma=beta)
        grid = build_grid(64, p)
        op = assemble_L1(nu, beta, grid)
        n = grid.wavenumbers
        for _ in range(20):
            c = grid.random_coeffs(RNG)
            lhs = np.real(grid.inner_coeffs(op.matvec(c), c))
            rhs = -nu * (grid.norm_coeffs(1j * n * c) ** 2 + grid.norm_coeffs(c) ** 2)
            assert abs(lhs - rhs) / abs(rhs) <= 1e-10


class TestProjections:
    def test_basics(self):
        grid = build_grid(32, params_for())
        q1, p1 = mean_projections(grid)
        one = np.zeros(32, dtype=complex)
        one[grid.wavenumbers == 0] = 1.0
        assert np.allclose(q1.matvec(one), 0.0)
        assert np.allclose(p1.matvec(one), one)
        siny = to_coeffs(grid, np.sin(grid_points(grid)))
        assert np.allclose(q1.matvec(siny), siny, atol=1e-15)

    def test_idempotence(self):
        grid = build_grid(32, params_for())
        q1, p1 = mean_projections(grid)
        for _ in range(10):
            c = grid.random_coeffs(RNG)
            qc = q1.matvec(c)
            assert np.linalg.norm(q1.matvec(qc) - qc) <= 1e-14 * np.linalg.norm(c)
            assert np.linalg.norm(q1.matvec(p1.matvec(c))) <= 1e-14 * np.linalg.norm(c)


class TestStarMetric:
    def test_sandwich_beta(self):
        p = params_for(nu=0.01, gamma=0.3, k_f=0.5, k1=1, k3=1)
        grid = build_grid(64, p)
        m = StarMetric.for_beta(p.beta, grid)
        lo = 1.0 - p.beta**-2
        for _ in range(100):
            c = grid.random_coeffs(RNG)
            l2 = grid.norm_coeffs(c) ** 2
            star = star_norm(m, c) ** 2
            assert lo * l2 - 1e-12 * l2 <= star <= l2 * (1 + 1e-12)

    def test_sandwich_alpha1(self):
        grid = build_grid(64, params_for())
        m = StarMetric.for_alpha1(grid)
        for _ in range(100):
            c = grid.random_coeffs(RNG, mean_zero=True)
            l2 = grid.norm_coeffs(c) ** 2
            star = star_norm(m, c) ** 2
            assert 0.5 * l2 - 1e-12 * l2 <= star <= l2 * (1 + 1e-12)

    def test_transform_is_the_restricted_similarity(self):
        p = params_for(nu=0.01, gamma=0.3, k_f=0.5, k1=1, k3=1)
        grid = build_grid(32, p)
        ml, _ = assemble_mode_operators(p, grid)
        for m in (StarMetric.for_beta(p.beta, grid), StarMetric.for_alpha1(grid)):
            keep = np.ones(32, bool) if m.keep is None else m.keep
            w = np.sqrt(m.weights[keep])
            want = w[:, None] * ml.dense()[np.ix_(keep, keep)] / w[None, :]
            got = m.transform(ml).dense()
            assert got.shape == (keep.sum(),) * 2
            assert np.allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())


def test_half_period_shift_conjugation():
    # The half-period shift composed with complex conjugation intertwines
    # N_lambda and N_{-lambda}; on matrices: A_{-lam}[n,m] =
    # (-1)^(n+m) conj(A_lam[-n,-m]). (The linear shift alone flips the sign
    # of the whole skew part, so sigma_min transfers but the operators don't.)
    p = params_for(nu=0.01, gamma=0.4, k_f=1.0, k1=2, k3=0)
    grid = build_grid(64, p)
    a_plus = assemble_N_lambda(p, 0.6, grid).dense()
    a_minus = assemble_N_lambda(p, -0.6, grid).dense()
    n = grid.wavenumbers
    # index of mode -n; mode -N/2 has no mirror and is excluded
    order = np.argsort(n)  # already monotone, identity permutation
    idx = {m: i for i, m in enumerate(n)}
    inner = [i for i, m in enumerate(n) if -m in idx]
    mirrored = np.empty_like(a_plus)
    for i in inner:
        for j in inner:
            mirrored[i, j] = (-1.0) ** (n[i] + n[j]) * np.conj(
                a_plus[idx[-n[i]], idx[-n[j]]])
    sub = np.ix_(inner, inner)
    scale = np.max(np.abs(a_minus[sub]))
    assert np.max(np.abs(mirrored[sub] - a_minus[sub])) <= 1e-12 * scale
    # consequence actually used downstream: sigma_min is lambda-even
    s_plus = np.linalg.svd(a_plus, compute_uv=False)[-1]
    s_minus = np.linalg.svd(a_minus, compute_uv=False)[-1]
    assert s_plus == pytest.approx(s_minus, rel=1e-10)


# ---------------------------------------------------------------------------
# bit identity: one builder and one Helmholtz symbol, the bits of the formulas
# written out in full
# ---------------------------------------------------------------------------

def _inline_diagonal(v):
    ab = np.zeros((3, len(v)), dtype=complex)
    ab[1] = v
    return ab


def _inline_sin_band(n):
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = 0.5j
    ab[2, :-1] = -0.5j
    return ab


def _inline_cos_dense(n):
    a = np.zeros((n, n), dtype=complex)
    i = np.arange(n - 1)
    a[i, i + 1] = 0.5
    a[i + 1, i] = 0.5
    return a


def inline_operators(p, lam, grid):
    """name -> band array or weight vector of each operator of `p`, each
    diagonal, shear band and Helmholtz symbol 1/(beta^2 + n^2) written out
    in place, in the operand order the assemblers use."""
    n = grid.wavenumbers
    sin_b = _inline_sin_band(grid.n)
    a, b, nu, kf = p.alpha, p.beta, p.nu, p.k_f
    c = 1j * a / nu
    visc = nu * n.astype(complex) ** 2
    out = {
        "N_lambda": (_inline_diagonal((1j * a / nu) * (-lam) + nu * n.astype(complex) ** 2)
                     + (1j * a / nu) * _inline_sin_band(grid.n)),
        "L_lambda": (_inline_diagonal(visc + c * (-lam))
                     + c * (sin_b * (1.0 - 1.0 / (b**2 + n**2))[None, :])),
    }
    if b > 1:
        bt = np.sqrt(b**2 - 1.0)
        hinv = 1.0 / (bt**2 + n**2)
        out["L_lambda u-form"] = (
            _inline_diagonal(visc + c * (-lam) * (1.0 + hinv).astype(complex)) + c * sin_b)
        out["star weights"] = 1.0 - 1.0 / (b**2 + n**2)
    cm = 1j * p.k1 * p.gamma / (kf**2 * nu)
    visc_m = _inline_diagonal(nu * kf**2 * n.astype(complex) ** 2)
    out["ModeL"] = visc_m + cm * (sin_b * (1.0 - 1.0 / (b**2 + n**2))[None, :])
    out["ModeH"] = visc_m + cm * sin_b
    out["coupling"] = (1j * p.k3 / kf**3) * (p.gamma / nu) * (
        _inline_cos_dense(grid.n) * (1.0 / (p.alpha**2 + n**2))[None, :])
    return out


def assembled_operators(p, lam, grid):
    """The same names, from the assemblers and their callers."""
    mode_l, mode_h = assemble_mode_operators(p, grid)
    out = {"N_lambda": assemble_N_lambda(p, lam, grid).ab,
           "L_lambda": assemble_L_lambda(p, lam, grid).ab,
           "ModeL": mode_l.ab, "ModeH": mode_h.ab,
           "coupling": coupled_generators(p, grid)[2]}
    if p.beta > 1:
        out["L_lambda u-form"] = assemble_L_lambda(p, lam, grid, u_form=True).ab
        out["star weights"] = StarMetric.for_beta(p.beta, grid).weights
    return out


def assert_same_bits(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    # bytes, not values: a +0.0 that became -0.0 fails too
    assert got.tobytes() == want.tobytes(), what


@pytest.mark.parametrize("n", [16, 64, 256])
@pytest.mark.parametrize("p", [
    ModeParams(nu=0.01, gamma=0.3, k_f=0.5, k1=2, k3=1),     # beta > 1
    ModeParams(nu=0.02, gamma=-0.4, k_f=0.5, k1=1, k3=-1),   # beta > 1, negative shear
    ModeParams(nu=0.01, gamma=0.4, k_f=1.0, k1=1, k3=0),     # beta = 1
    ModeParams(nu=0.01, gamma=0.4, k_f=1.0, k1=-1, k3=0),    # beta = 1, negative shear
], ids=["beta>1", "beta>1,-shear", "beta=1", "beta=1,-shear"])
@pytest.mark.parametrize("lam", [0.0, 0.37, -0.8])
def test_operators_have_the_bits_of_the_inline_formulas(p, n, lam):
    grid = build_grid(n, p)
    want = inline_operators(p, lam, grid)
    got = assembled_operators(p, lam, grid)
    assert sorted(got) == sorted(want)
    for name in want:
        assert_same_bits(got[name], want[name], name)


@pytest.mark.parametrize("n", [16, 64, 256])
def test_alpha1_operators_have_the_bits_of_the_inline_formulas(n):
    grid = build_grid(n, params_for())
    k = grid.wavenumbers
    weights = 1.0 - 1.0 / (1.0 + k.astype(float) ** 2)
    metric = StarMetric.for_alpha1(grid)
    assert_same_bits(metric.weights, weights, "alpha=1 star weights")
    assert np.array_equal(metric.keep, k != 0)
    for nu, beta in ((0.05, 0.3), (0.01, -0.2)):
        l1 = (_inline_diagonal(-nu * (k.astype(complex) ** 2 + 1.0))
              + (-1j * beta / nu) * _inline_sin_band(n))
        assert_same_bits(assemble_L1(nu, beta, grid).ab, l1, ("L1", nu, beta))
        gen = nu * np.eye(n) - OperatorMatrix(l1).dense() * weights[None, :]
        assert_same_bits(alpha1_generator(nu, beta, grid), gen, ("alpha1", nu, beta))


def test_multiplication_matrix_rejects_unknown():
    with pytest.raises(ConfigurationError):
        multiplication_matrix("tan", 16)


def test_operator_matrix_restriction_keeps_band():
    p = params_for()
    grid = build_grid(32, p)
    op, _ = assemble_mode_operators(p, grid)
    keep = grid.wavenumbers != 0
    sub = op.restricted(keep)
    assert sub.n == 31
    assert sub.b == op.b == 1
    dense = op.dense()
    assert np.allclose(sub.dense(), dense[np.ix_(keep, keep)])


def test_operator_matrix_restriction_refuses_a_mask_of_another_size():
    p = params_for()
    op, _ = assemble_mode_operators(p, build_grid(32, p))
    for keep in (np.ones(33, dtype=bool), np.ones(31, dtype=bool), np.arange(32)):
        with pytest.raises(ConfigurationError, match="boolean mask of length 32"):
            op.restricted(keep)


def test_operator_matrix_restriction_matches_dense_round_trip():
    # restricting on the band gives the bytes of the dense detour: densify,
    # cut rows and columns with ix_, pack as narrow as the nonzeros allow
    for n in (16, 64, 256):
        p = params_for(k_f=0.5, k1=1, k3=1)
        grid = build_grid(n, p)
        mode_l, mode_h = assemble_mode_operators(p, grid)
        planted = RNG.standard_normal((5, n)) + 1j * RNG.standard_normal((5, n))
        planted[RNG.random((5, n)) < 0.2] = -0.0
        planted[RNG.random((5, n)) < 0.2] = 0.0
        planted[0] = 0.0  # offset 2 holds only signed zeros
        planted[0, ::5] = -0.0
        ops = (mode_l, mode_h, assemble_L_lambda(p, 0.3, grid).shifted(0.4),
               OperatorMatrix(planted))
        keeps = (grid.wavenumbers != 0, RNG.random(n) < 0.2, RNG.random(n) < 0.6,
                 np.ones(n, dtype=bool), np.zeros(n, dtype=bool))
        for op in ops:
            for keep in keeps:
                want = band_of(op.dense()[np.ix_(keep, keep)])
                got = op.restricted(keep)
                assert got.ab.shape == want.ab.shape
                assert got.ab.tobytes() == want.ab.tobytes()


def test_q1l_restriction_allocates_no_dense_matrix():
    # a dense 2047 x 2047 complex matrix alone is 64 MiB
    p = ModeParams(nu=1e-4, gamma=0.4, k_f=1, k1=1, k3=0)
    tracemalloc.start()
    try:
        op, _ = psi_operator(p, "Q1L", n=2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.n == 2047
    assert peak < 4 * 2**20


def test_operator_matrix_block_matvec():
    p = params_for(k_f=0.5, k1=1, k3=1)
    grid = build_grid(32, p)
    op = assemble_L_lambda(p, 0.3, grid)
    block = RNG.standard_normal((32, 3)) + 1j * RNG.standard_normal((32, 3))
    by_column = np.column_stack([op.matvec(block[:, j]) for j in range(3)])
    assert np.array_equal(op.matvec(block), by_column)


def test_operator_matrix_band_layout():
    # offsets -1 .. 2: half-bandwidth 2 with an all-zero offset -2 row
    a = sum(np.diag(RNG.standard_normal(9 - abs(k)) + 1j * RNG.standard_normal(9 - abs(k)), k)
            for k in (-1, 0, 1, 2))
    op = band_of(a)
    assert op.ab.shape == (5, 9) and (op.b, op.n) == (2, 9)
    assert np.array_equal(op.dense(), a)
    for r in range(5):
        for j in range(9):
            i = j + r - 2
            assert op.ab[r, j] == (a[i, j] if 0 <= i < 9 else 0.0)
    assert list(op.diags) == [-2, -1, 0, 1, 2]
    assert all(np.array_equal(v, np.diagonal(a, k)) for k, v in op.diags.items())
    assert np.array_equal(op.dense(), a)
    w = 1.0 + RNG.random(9)
    assert np.array_equal(op.scaled_similarity(w).dense(), (w[:, None] * a) / w[None, :])
    assert np.array_equal(op.shifted(0.5).dense(), a - 0.5j * np.eye(9))
    with pytest.raises(ConfigurationError):
        OperatorMatrix(np.zeros((2, 9)))


# ---------------------------------------------------------------------------
# process_map
# ---------------------------------------------------------------------------

def _pid_and_square(x):
    return os.getpid(), x * x


def _slow_pid_and_square(x):
    time.sleep(0.01)  # long enough for a forked child to claim items too
    return os.getpid(), x * x


class ItemError(Exception):
    """Raised by an item, to check that its type reaches the caller."""


ONE_WORKER_PROBE = """
import json, os, sys
from kolmoflow.spectral import process_map
f = lambda x: (os.getpid(), x)
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
out = process_map(f, range(5))
os.sched_getaffinity = lambda pid: {0, 1}
out += process_map(f, [5]) + process_map(f, range(6, 9))
print(json.dumps({"pids": sorted({p for p, _ in out[:6]}), "me": os.getpid(),
                  "order": [x for _, x in out],
                  "mp": "multiprocessing" in sys.modules}))
"""


class TestProcessMap:
    """`process_map` fans out over min(CPUs in the affinity mask, items)
    processes, the caller and the children it forks, and maps in the
    caller alone when that is one."""

    def test_pool_keeps_order_and_leaves_no_children(self, set_cpus, forks,
                                                     assert_no_children):
        set_cpus(2)
        out = process_map(_slow_pid_and_square, range(12))
        assert [sq for _, sq in out] == [x * x for x in range(12)]
        assert out[0][0] == os.getpid()  # the caller runs item 0
        assert len(forks) == 1
        assert {pid for pid, _ in out} == {os.getpid(), *forks}
        assert_no_children()

    @pytest.mark.parametrize("cpus, items, workers", [
        (2, 12, 2),
        (4, 12, 4),
        (3, 2, 2),     # the items bound the CPUs
        (1, 12, 1),    # one worker: no fork
        (3, 1, 1),
        (3, 0, 1),
    ])
    def test_worker_count_is_min_of_cpus_and_items(self, set_cpus, forks, cpus, items,
                                                   workers):
        set_cpus(cpus)
        out = process_map(_pid_and_square, range(items))
        assert [sq for _, sq in out] == [x * x for x in range(items)]
        assert len(forks) == workers - 1

    def test_more_items_than_a_default_pipe_holds(self, set_cpus):
        set_cpus(2)
        n = 20_000  # 80 kB of index records, above the 64 kB default pipe size
        assert process_map(abs, range(-n, 0)) == list(range(n, 0, -1))

    def test_call_inside_an_item_runs_in_its_process(self, set_cpus, forks):
        set_cpus(2)
        out = process_map(lambda x: {p for p, _ in process_map(_slow_pid_and_square,
                                                               range(4))}, range(6))
        assert len(forks) == 1
        assert all(len(pids) == 1 for pids in out)

    @pytest.mark.parametrize("where", ["caller", "child"])
    def test_exception_keeps_its_type_and_leaves_no_children(self, set_cpus, forks,
                                                             assert_no_children, where):
        set_cpus(3)
        caller = os.getpid()

        def item(x):
            in_caller = os.getpid() == caller
            if in_caller == (where == "caller"):
                raise ItemError(f"item {x} raised in the {where}")
            time.sleep(0.05)  # leaves the other side time to claim an item
            return x

        with pytest.raises(ItemError, match=f"raised in the {where}"):
            process_map(item, range(8))
        assert len(forks) == 2
        assert_no_children()

    def test_child_that_dies_without_a_result_is_an_error(self, set_cpus,
                                                         assert_no_children):
        set_cpus(2)
        caller = os.getpid()

        def item(x):
            if os.getpid() != caller:
                os._exit(7)
            time.sleep(0.05)
            return x

        with pytest.raises(ChildProcessError, match="status 7"):
            process_map(item, range(4))
        assert_no_children()

    def test_one_worker_runs_in_the_caller_without_multiprocessing(self):
        src = str(Path(kolmoflow.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", ONE_WORKER_PROBE], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert out["pids"] == [out["me"]]
        assert out["order"] == list(range(9))
        assert not out["mp"]


# ---------------------------------------------------------------------------
# one_blas_thread
# ---------------------------------------------------------------------------

BLAS_THREADS_PROBE = """
import json
from kolmoflow import cli, spectral  # cli loads numpy's BLAS
import scipy.linalg  # and scipy's
counts = lambda: [get() for get, _ in spectral._loaded_openblas()]
out = {"paths": spectral._openblas_paths(), "before": counts()}
with spectral.one_blas_thread():
    out["inside"] = counts()
    with spectral.one_blas_thread():
        out["nested"] = counts()
    out["after_nested"] = counts()
out["after"] = counts()
print(json.dumps(out))
"""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs 2 CPUs in the affinity mask")
def test_one_blas_thread_sets_and_restores_every_loaded_openblas():
    src = str(Path(kolmoflow.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", BLAS_THREADS_PROBE], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not out["paths"]:
        pytest.skip("numpy and scipy load no OpenBLAS here")
    # every loaded OpenBLAS exports one of the known thread-count pairs
    k = len(out["paths"])
    assert len(out["before"]) == k
    assert out["before"] == [2] * k
    assert out["inside"] == out["nested"] == out["after_nested"] == [1] * k
    assert out["after"] == [2] * k
