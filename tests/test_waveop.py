"""Wave operators: profiles, coefficients, exchange identities, bounds."""


import numpy as np
import pytest
from scipy.integrate import solve_ivp

from kolmoflow import waveop
from kolmoflow.spectral import ConfigurationError, ModeParams, build_grid
from kolmoflow.waveop import (
    WaveOperator,
    bound_sweep,
    compute_coefficients,
    fill_masked,
    get_wave_operator,
    good_unknown_check,
    helmholtz_inverse_full,
    intertwining_residual,
    random_smooth_profile,
    solve_phi1,
    u_of,
)

Y_HALF = np.linspace(0.0, np.pi, 129)
RNG = np.random.default_rng(17)


def radau_phi1(c, alpha, y):
    """Oracle: phi1 on y from scipy's Radau at rtol 1e-9, seeded from the
    series at y_c +- eps as solve_phi1 seeds its DOP853 solves."""
    y_c = float(np.arccos(-c))
    eps = min(waveop.SERIES_RADIUS, 0.45 * min(y_c, np.pi - y_c))

    def rhs(t, z):
        q2 = (u_of(t) - c) ** 2
        return [z[1] / q2, alpha**2 * q2 * z[0]]

    phi1 = np.empty_like(y)
    near = np.abs(y - y_c) <= eps
    phi1[near] = waveop._series_eval(alpha, y_c, y[near] - y_c)[0]
    for sign, stop in ((+1, np.pi), (-1, 0.0)):
        y0 = y_c + sign * eps
        phi0, dphi0 = waveop._series_eval(alpha, y_c, sign * eps)
        sol = solve_ivp(rhs, (y0, stop), [phi0, (u_of(y0) - c) ** 2 * dphi0],
                        method="Radau", rtol=1e-9, atol=1e-12, dense_output=True)
        assert sol.success
        sel = (y - y_c) * sign > eps
        phi1[sel] = sol.sol(y[sel])[0]
    return phi1


def count_solves(monkeypatch):
    """The c of every solve_phi1 call made in this process (forked children
    count in their own copy)."""
    calls = []
    real = waveop.solve_phi1

    def counting(*args, **kw):
        calls.append(args[0])
        return real(*args, **kw)

    monkeypatch.setattr(waveop, "solve_phi1", counting)
    return calls


def smooth_mode_data(grid, rng, kmax=4):
    c = np.zeros(grid.n, dtype=complex)
    sel = np.abs(grid.wavenumbers) <= kmax
    c[sel] = rng.standard_normal(sel.sum()) + 1j * rng.standard_normal(sel.sum())
    return c / grid.norm_coeffs(c)


class TestProfile:
    def test_normalization_and_monotonicity(self):
        for c in (-0.6, 0.0, 0.4):
            prof = solve_phi1(c, 3.0, Y_HALF)
            assert prof.phi1.min() >= 1.0 - 1e-10
            right = Y_HALF >= prof.y_c
            assert np.all(np.diff(prof.phi1[right]) >= -1e-12)

    def test_c0_symmetry(self):
        prof = solve_phi1(0.0, 2.0, Y_HALF)
        assert np.max(np.abs(prof.phi1 - prof.phi1[::-1])) <= 1e-8

    def test_cross_integrator_oracle(self):
        a = solve_phi1(0.0, 2.0, Y_HALF)
        b = radau_phi1(0.0, 2.0, Y_HALF)
        assert np.max(np.abs(a.phi1 - b) / a.phi1) <= 1e-7

    def test_endpoint_rejection(self):
        with pytest.raises(ConfigurationError):
            solve_phi1(0.9999999, 2.0, Y_HALF)
        with pytest.raises(ConfigurationError):
            solve_phi1(-0.9999999, 2.0, Y_HALF)

    def test_alpha_validation(self):
        with pytest.raises(ConfigurationError):
            solve_phi1(0.0, 0.5, Y_HALF)


class TestCoefficients:
    def test_exact_identities(self):
        prof = solve_phi1(0.6, 2.0, Y_HALF)
        cf = compute_coefficients(prof)
        y_c = prof.y_c
        assert cf.b == pytest.approx(np.pi * np.cos(y_c), abs=1e-15)
        assert cf.rho == pytest.approx(0.64, rel=1e-12)  # 1 - 0.36
        assert cf.b1 == pytest.approx(np.sin(y_c) ** 2 * cf.b, abs=1e-15)
        assert cf.a1 == pytest.approx(cf.j1 - cf.j0 + np.sin(y_c) ** 2 * cf.a,
                                      abs=1e-12 * max(abs(cf.a1), 1.0))

    def test_b_vanishes_at_c0(self):
        prof = solve_phi1(0.0, 2.0, Y_HALF)
        cf = compute_coefficients(prof)
        assert abs(cf.b) <= 1e-15

    @pytest.mark.parametrize("alpha", [2.0, 8.0, 32.0])
    def test_ab_magnitude_bounds(self, alpha):
        op = get_wave_operator(alpha, 192)
        sn = np.sin(op.y_c)
        ratio = (op.coeff["a"] ** 2 + op.coeff["b"] ** 2) / (1 + alpha * sn) ** 2
        assert 0.2 <= ratio.min() and ratio.max() <= 20.0
        assert np.max(np.abs(op.coeff["a"]) / (alpha * sn)) <= 3.0


class TestWaveOperatorBasics:
    def test_zero_maps_to_zero(self):
        op = get_wave_operator(2.0, 64)
        out, mask = op.apply_D2(np.zeros(64, dtype=complex))
        assert np.allclose(out[mask], 0.0)

    def test_linearity(self):
        op = get_wave_operator(2.0, 64)
        rng = np.random.default_rng(3)
        for _ in range(5):
            w1 = random_smooth_profile(64, rng)
            w2 = random_smooth_profile(64, rng)
            a, b = 1.3 - 0.7j, -0.4 + 2.1j
            lhs, m1 = op.apply_D1(a * w1 + b * w2)
            r1, _ = op.apply_D1(w1)
            r2, _ = op.apply_D1(w2)
            rhs = a * r1 + b * r2
            scale = np.max(np.abs(rhs[m1]))
            assert np.max(np.abs((lhs - rhs)[m1])) <= 1e-10 * scale

    def test_parity_preservation(self):
        op = get_wave_operator(2.0, 128)
        y = op.y_full
        odd = np.sin(3 * y).astype(complex)
        even = np.cos(2 * y).astype(complex)
        out_o, m = op.apply_D1(odd)
        out_e, _ = op.apply_D1(even)
        n = op.n
        idx = np.arange(n)
        mirror = (-idx) % n  # index of -y
        both = m & m[mirror]
        assert np.allclose(out_o[both], -out_o[mirror][both], atol=1e-12)
        assert np.allclose(out_e[both], out_e[mirror][both], atol=1e-12)

    def test_mask_respects_margin(self):
        op = get_wave_operator(2.0, 128, margin=0.1)
        _, mask = op.apply_D1(np.sin(op.y_full).astype(complex))
        y = op.y_full
        dist = np.minimum(np.abs(y), np.pi - np.abs(y))
        assert not mask[dist < 0.1].any()
        assert mask[(dist > 0.12) & (dist < np.pi / 2)].all()

    def test_grid_divisibility(self):
        with pytest.raises(ConfigurationError):
            WaveOperator(2.0, 66)


# -- per-node reference for apply_D1 ------------------------------------------

def _loop_cumint(op, f):
    h = op.h
    out = np.zeros_like(f)
    trap = np.zeros_like(f)
    trap[1:] = np.cumsum(0.5 * h * (f[1:] + f[:-1]))
    d_f0 = f[1] - f[0]
    d2_f0 = f[2] - 2 * f[1] + f[0]
    out[1] = (h / 24.0) * (9.0 * f[0] + 19.0 * f[1] - 5.0 * f[2] + f[3])
    out[2] = (h / 3.0) * (f[0] + 4.0 * f[1] + f[2])
    k = np.arange(3, len(f))
    grad_k = f[k] - f[k - 1]
    grad2_k = f[k] - 2 * f[k - 1] + f[k - 2]
    out[k] = trap[k] - (h / 12.0) * (grad_k - d_f0) - (h / 24.0) * (grad2_k + d2_f0)
    return out


def _loop_ii1(op, phi, dphi, k, row):
    y_c = op.y_half[k]
    u_half = u_of(op.y_half)
    up, upp = np.sin(y_c), np.cos(y_c)
    phi1 = op.phi1_table[row]
    q = u_half - u_half[k]
    cum0 = _loop_cumint(op, phi)
    g0 = cum0 - cum0[k]
    cum1 = _loop_cumint(op, phi * phi1)
    g1 = cum1 - cum1[k]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = g0 / q**2 - phi[k] / (up * q)
        t = (g1 / phi1**2 - g0) / q**2
    r[k] = (dphi[k] - phi[k] * upp / up) / (2.0 * up**2)
    t[k] = 0.0
    return np.sum(op._trap_w * r) + np.sum(op._trap_w * t), g1


def loop_apply_D1(op, omega_full):
    """apply_D1 one c-node at a time, as the formulas are written."""
    odd, even = op.half_values(np.asarray(omega_full, dtype=complex))
    dodd = np.gradient(odd, op.h)
    deven = np.gradient(even, op.h)
    m = op.n // 2
    out = np.zeros(op.n, dtype=complex)
    mask = np.zeros(op.n, dtype=bool)
    cf = op.coeff
    for row, k in enumerate(op.valid_half_idx):
        up = np.sin(op.y_half[k])
        rho = cf["rho"][row]
        ii1_o, _ = _loop_ii1(op, odd, dodd, k, row)
        d1_odd = (rho * ii1_o - 1j * np.pi * odd[k]) / (cf["a"][row] + 1j * cf["b"][row])
        ii1_e, g1_e = _loop_ii1(op, even, deven, k, row)
        denom_e = up * (cf["a1"][row] + 1j * cf["b1"][row])
        d1_even = (rho * up * (rho * ii1_e - 1j * np.pi * even[k])
                   + cf["j1"][row] * g1_e[0] - cf["j0"][row] * g1_e[-1]) / denom_e
        out[m + k] = d1_odd + d1_even
        out[m - k] = -d1_odd + d1_even
        mask[m + k] = mask[m - k] = True
    return out, mask


def loop_apply_D2(op, omega_full):
    q = op.n // 4
    vals, mask = loop_apply_D1(op, np.roll(np.asarray(omega_full, dtype=complex), -q))
    return np.roll(vals, q), np.roll(mask, q)


class TestBatchedApply:
    """The batched apply_D1/apply_D2 reproduce the per-node loop bit for bit."""

    @staticmethod
    def _assert_matches_loop(op, seed):
        rng = np.random.default_rng(seed)
        for _ in range(3):
            w = random_smooth_profile(op.n, rng)
            for new, old in ((op.apply_D1, loop_apply_D1), (op.apply_D2, loop_apply_D2)):
                vals, mask = new(w)
                ref_vals, ref_mask = old(op, w)
                assert np.array_equal(mask, ref_mask)
                assert np.array_equal(vals, ref_vals)

    @pytest.mark.parametrize("alpha, n, margin", [(2.0, 64, waveop.ENDPOINT_MARGIN),
                                                  (16.0, 64, waveop.ENDPOINT_MARGIN),
                                                  (2.0, 128, 0.1)])
    def test_matches_per_node_loop(self, alpha, n, margin):
        self._assert_matches_loop(get_wave_operator(alpha, n, margin), seed=n)


class TestCoarseLevels:
    """get_wave_operator cuts coarse levels from a finer cached table."""

    @pytest.fixture
    def solves(self, monkeypatch, set_cpus):
        set_cpus(1)  # serial builds, so that every solve counts
        monkeypatch.setattr(waveop, "_OPERATOR_CACHE", {})
        return count_solves(monkeypatch)

    @pytest.mark.parametrize("alpha, n_fine", [(2.0, 128), (2.0 * np.sqrt(2.0), 256)])
    def test_cut_level_equals_cold_build(self, solves, alpha, n_fine):
        get_wave_operator(alpha, n_fine)
        cold = WaveOperator(alpha, 64)
        solves.clear()
        cut = get_wave_operator(alpha, 64)
        assert solves == []
        assert np.array_equal(cut.valid_half_idx, cold.valid_half_idx)
        assert np.array_equal(cut.y_c, cold.y_c)
        assert np.array_equal(cut.phi1_table, cold.phi1_table)
        assert cut.coeff.keys() == cold.coeff.keys()
        for name, column in cold.coeff.items():
            assert np.array_equal(cut.coeff[name], column), name

    @pytest.mark.parametrize("n_fine, margin", [(192, waveop.ENDPOINT_MARGIN), (128, 0.1)])
    def test_other_ratio_or_margin_builds_cold(self, solves, n_fine, margin):
        get_wave_operator(2.0, n_fine, margin)
        solves.clear()
        op = get_wave_operator(2.0, 64)
        assert len(solves) == len(op.y_c) > 0


class TestNodePool:
    """A build solves its c-nodes through `spectral.process_map`: in this
    process and one forked child per further CPU in the affinity mask, and
    in this process alone on one CPU. The tables are the same bits either way."""

    @pytest.mark.parametrize("alpha, n", [(2.0, 128), (16.0, 64)])
    def test_pool_build_equals_serial_build(self, monkeypatch, set_cpus, forks,
                                            assert_no_children, alpha, n):
        solves = count_solves(monkeypatch)
        set_cpus(3)
        pooled = WaveOperator(alpha, n)
        assert len(forks) == 2
        assert solves[0] == float(-np.cos(pooled.y_c[0]))  # the builder solves node 0
        assert_no_children()
        set_cpus(1)
        solves.clear()
        serial = WaveOperator(alpha, n)
        assert len(forks) == 2  # no further fork
        assert len(solves) == len(serial.y_c) > 0
        assert np.array_equal(pooled.phi1_table, serial.phi1_table)
        assert pooled.coeff.keys() == serial.coeff.keys()
        for name, column in serial.coeff.items():
            assert np.array_equal(pooled.coeff[name], column), name


class TestIntertwining:
    def test_constant_closed_form(self):
        # (d^2-a^2)^(-1) const = -const/a^2 exactly in the spectral inverse
        k = helmholtz_inverse_full(np.ones(64, dtype=complex), 2.0)
        assert np.allclose(k, -0.25, atol=1e-14)
        rep = intertwining_residual({"const": lambda y: np.ones_like(y)},
                                    2.0, [128, 256])
        assert rep["passed"]

    def test_sin2y_reference(self):
        rep = intertwining_residual({"sin2y": lambda y: np.sin(2 * y)},
                                    2.0, [256, 512, 1024])
        rows = sorted((r for r in rep["rows"]), key=lambda r: r["n"])
        assert rep["passed"]
        assert rows[-1]["r_sin"] <= 1e-3
        # refinement halving drops the residual by at least 4x
        for a, b in zip(rows, rows[1:]):
            assert a["r_cos"] / b["r_cos"] >= 4.0
            assert a["r_sin"] / b["r_sin"] >= 4.0

    def test_exchange_identity_sign_is_minus(self):
        # the "+K omega" variant of the cos-form identity leaves an O(1)
        # residual; the minus sign converges under refinement
        op = get_wave_operator(2.0, 256)
        y = op.y_full
        w = np.sin(2 * y).astype(complex)
        kw = helmholtz_inverse_full(w, 2.0)
        lhs, m1 = op.apply_D1(np.cos(y) * (w + kw))
        d1, m2 = op.apply_D1(w)
        mask = m1 & m2
        nrm = np.linalg.norm(w[mask])
        r_minus = np.linalg.norm((lhs - np.cos(y) * d1 + kw)[mask]) / nrm
        r_plus = np.linalg.norm((lhs - np.cos(y) * d1 - kw)[mask]) / nrm
        assert r_minus <= 1e-4
        assert r_plus >= 0.1

    def test_alpha_uniform(self):
        omegas = {"mix": lambda y: np.sin(2 * y) + 0.5 * np.cos(3 * y)}
        for alpha in (2.0, 8.0):
            rep = intertwining_residual(omegas, alpha, [128, 256])
            assert rep["passed"], f"alpha={alpha}"


class TestBoundSweep:
    def test_two_alpha_stability(self):
        rep = bound_sweep([2.0, 4.0], n=128, ensemble=20, seed=5)
        for key, val in rep["stability"].items():
            assert val <= 3.0, (key, val)
        for fits in rep["per_alpha"].values():
            assert all(np.isfinite(v) and v > 0 for v in fits.values())

    def test_determinism(self):
        a = bound_sweep([2.0], n=128, ensemble=20, seed=5)
        b = bound_sweep([2.0], n=128, ensemble=20, seed=5)
        assert a["per_alpha"] == b["per_alpha"]

    def test_ensemble_validation(self):
        with pytest.raises(ConfigurationError):
            bound_sweep([2.0], ensemble=5)


class TestGoodUnknown:
    @pytest.mark.parametrize("k1, k3", [(1, 0), (0, 1)])
    def test_needs_nonzero_k1_and_k3(self, k1, k3):
        # k3 = 0 leaves no correction to check; k1 = 0 leaves k3/(k1 k_f) undefined
        p = ModeParams(nu=0.05, gamma=0.3, k_f=1.0, k1=k1, k3=k3)
        f0 = np.zeros(64, dtype=complex)
        with pytest.raises(ConfigurationError, match="k1 != 0 and k3 != 0"):
            good_unknown_check(p, f0, f0, t_end=0.005, dt=5e-5, n=64)

    def test_criterion_point_and_refinement(self):
        p = ModeParams(nu=0.01, gamma=0.4, k_f=0.5, k1=1, k3=1)
        rng = np.random.default_rng(9)
        residuals = {}
        for n in (128, 256):
            grid = build_grid(n, p)
            f0 = smooth_mode_data(grid, rng)
            g0 = smooth_mode_data(grid, rng)
            out = good_unknown_check(p, f0, g0, t_end=0.01, dt=1.25e-4, n=n)
            residuals[n] = out["residual"]
        assert residuals[256] <= 1e-2
        assert residuals[256] < residuals[128]

    def test_flagged_fraction_reported(self):
        p = ModeParams(nu=0.01, gamma=0.4, k_f=0.5, k1=1, k3=1)
        grid = build_grid(128, p)
        rng = np.random.default_rng(4)
        f0 = smooth_mode_data(grid, rng)
        out = good_unknown_check(p, f0, f0, t_end=0.004, dt=2e-4, n=128)
        # masked c-points near y in {0, +-pi, +-pi/2} are interpolated+flagged
        assert 0.0 < out["flagged_fraction"] < 0.25


def test_fill_masked_smooth_gap():
    y = -np.pi + 2 * np.pi * np.arange(128) / 128
    vals = np.cos(y).astype(complex)
    mask = np.ones(128, dtype=bool)
    mask[30:33] = False
    filled = fill_masked(np.where(mask, vals, 0.0), mask, y)
    assert np.max(np.abs(filled - vals)) <= 1e-6
