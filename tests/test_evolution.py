"""Propagators, coupled evolution, decay fits, energy identities, alpha=1."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from kolmoflow.spectral import (
    ConfigurationError,
    ModeParams,
    OperatorMatrix,
    StarMetric,
    assemble_mode_operators,
    build_grid,
)
from kolmoflow.pseudospectra import PsiQuery, PsiResult, compute_psi, psi_for_params
from kolmoflow.evolution import (
    DecayFit,
    ForcingSpec,
    NormAccumulators,
    Trajectory,
    alpha1_generator,
    alpha1_suite,
    coupled_generators,
    energy_identity_residual,
    evolve_coupled,
    fit_decay_rate,
    forced_decay,
    propagator,
    semigroup_norm_curve,
    solve_L1,
)

RNG = np.random.default_rng(42)


class TestPropagator:
    def test_zero_matrix(self):
        a = np.zeros((4, 4))
        assert np.allclose(propagator(a, 3.0), np.eye(4))

    def test_diagonal(self):
        a = np.diag([1.0, 2.0, 5.0])
        got = propagator(a, 0.7)
        assert np.allclose(got, np.diag(np.exp(-0.7 * np.array([1, 2, 5.0]))),
                           rtol=1e-13)

    def test_semigroup_property(self):
        p = ModeParams(nu=0.02, gamma=0.3, k_f=0.5, k1=1, k3=0)
        grid = build_grid(48, p)
        _, mh = assemble_mode_operators(p, grid)
        e1 = propagator(mh, 0.3)
        e2 = propagator(mh, 0.5)
        e3 = propagator(mh, 0.8)
        assert np.linalg.norm(e2 @ e1 - e3) / np.linalg.norm(e3) <= 1e-9

    def test_ode_oracle(self):
        # columns of e^{-tA} match adaptive integration of the matrix ODE
        p = ModeParams(nu=0.05, gamma=0.3, k_f=1.0, k1=1, k3=0)
        grid = build_grid(64, p)
        _, mh = assemble_mode_operators(p, grid)
        a = mh.dense()
        t_end = 0.05
        want = propagator(a, t_end)

        def rhs(_, x):
            return (-a @ x.reshape(a.shape)).ravel()

        sol = solve_ivp(rhs, (0.0, t_end), np.eye(a.shape[0], dtype=complex).ravel(),
                        method="DOP853", rtol=1e-11, atol=1e-12)
        got = sol.y[:, -1].reshape(a.shape)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 1e-8

    def test_chunked_extreme_argument(self):
        a = np.diag([1.0, 3.0])
        got = propagator(a, 500.0, norm_cap=100.0)
        assert np.allclose(got, np.diag(np.exp([-500.0, -1500.0])), atol=1e-250)

    def test_negative_time_rejected(self):
        with pytest.raises(Exception):
            propagator(np.eye(2), -1.0)


class TestEvolveCoupled:
    def params(self, k3=1):
        return ModeParams(nu=0.01, gamma=0.4, k_f=0.5, k1=1, k3=k3)

    def test_k3_zero_decouples(self):
        p = ModeParams(nu=0.01, gamma=0.4, k_f=0.5, k1=1, k3=0)
        grid = build_grid(48, p)
        g0 = grid.random_coeffs(RNG)
        f0 = grid.random_coeffs(RNG)
        traj = evolve_coupled(p, f0, g0, 0.5, 0.1, grid=grid, store_states=True)
        _, a_h, coupling = coupled_generators(p, grid)
        assert np.max(np.abs(coupling)) == 0.0
        want = propagator(a_h, 0.5) @ g0
        assert np.linalg.norm(traj.g_states[-1] - want) <= 1e-9 * np.linalg.norm(want)

    def test_eigenvector_rate(self):
        p = self.params()
        grid = build_grid(48, p)
        a_l, _, _ = coupled_generators(p, grid)
        vals, vecs = np.linalg.eig(a_l)
        idx = np.argmin(vals.real)
        f0 = vecs[:, idx]
        traj = evolve_coupled(p, f0, np.zeros_like(f0), 1.0, 0.05, grid=grid)
        want = np.exp(-vals[idx].real * traj.times) * traj.norm_f[0]
        assert np.max(np.abs(traj.norm_f - want) / want) <= 1e-8

    def test_block_matches_ode_oracle(self):
        # adaptive integration of d/dt (f, g) = (-A_L f, C f - A_H g)
        p = ModeParams(nu=0.05, gamma=0.4, k_f=1.0, k1=1, k3=1)
        grid = build_grid(64, p)
        f0 = grid.random_coeffs(RNG)
        g0 = grid.random_coeffs(RNG)
        traj = evolve_coupled(p, f0, g0, 0.6, 0.005, grid=grid, store_states=True)
        a_l, a_h, coupling = coupled_generators(p, grid)
        n = grid.n

        def rhs(_, x):
            f, g = x[:n], x[n:]
            return np.concatenate([-a_l @ f, coupling @ f - a_h @ g])

        sol = solve_ivp(rhs, (0.0, 0.6), np.concatenate([f0, g0]).astype(complex),
                        method="DOP853", rtol=1e-11, atol=1e-12)
        f_want, g_want = sol.y[:n, -1], sol.y[n:, -1]
        den = np.linalg.norm(g_want)
        assert np.linalg.norm(traj.g_states[-1] - g_want) / den <= 1e-8
        assert np.linalg.norm(traj.f_states[-1] - f_want) <= 1e-10 * den

    def test_star_contraction_along_modeL_flow(self):
        p = self.params()
        grid = build_grid(48, p)
        metric = StarMetric.for_beta(p.beta, grid)
        f0 = grid.random_coeffs(RNG)
        traj = evolve_coupled(p, f0, np.zeros_like(f0), 1.0, 0.05, grid=grid,
                              store_states=True)
        stars = np.array([metric.norm_coeffs(f) for f in traj.f_states])
        assert np.all(np.diff(stars) <= 1e-12 * stars[:-1])


class TestSemigroupCurve:
    def test_selfadjoint_diag(self):
        a = np.diag([1.0, 3.0])
        psi = compute_psi(OperatorMatrix.from_dense(a), PsiQuery(-2, 2, scan_count=32))
        assert psi.psi == pytest.approx(1.0, rel=1e-6)
        out = semigroup_norm_curve(a, np.linspace(0, 5, 11), psi)
        assert out["verdict"]
        assert np.allclose(out["norms"], np.exp(-out["times"])), "||e^{-tA}||=e^{-t}"

    def test_accretive_nonnormal_hump(self):
        # [[1,2],[0,2]] is accretive (hermitian part spd) with a transient
        # hump above the naive e^{-t}; the sharp bound still holds
        a = np.array([[1.0, 2.0], [0.0, 2.0]])
        herm = 0.5 * (a + a.T)
        assert np.linalg.eigvalsh(herm).min() >= 0
        psi = compute_psi(OperatorMatrix.from_dense(a), PsiQuery(-4, 4, scan_count=64))
        times = np.linspace(0, 6, 25)
        out = semigroup_norm_curve(a, times, psi)
        assert out["verdict"]
        # closed form for the hump: |X12| = 2(e^{-t} - e^{-2t}) peaks at ln 2
        t_peak = np.log(2.0)
        x = propagator(a, t_peak)
        assert abs(x[0, 1]) == pytest.approx(0.5, rel=1e-10)
        # nonnormal transient: norm sits strictly above the modal e^{-t}
        from kolmoflow.evolution import operator_norm
        assert operator_norm(x) > np.exp(-t_peak) * 1.2

    def test_modeH_verdict(self):
        p = ModeParams(nu=0.01, gamma=0.4, k_f=1.0, k1=1, k3=0)
        grid = build_grid(128, p, alpha=p.k1 * p.gamma / p.k_f**4)
        _, mh = assemble_mode_operators(p, grid)
        psi = psi_for_params(p, "H", n=128)
        t_max = 20.0 / np.sqrt(p.gamma)
        out = semigroup_norm_curve(mh, np.linspace(0.0, t_max, 41), psi)
        assert out["verdict"]

    def test_non_uniform_times_rejected(self):
        a = np.diag([1.0, 3.0])
        psi = compute_psi(OperatorMatrix.from_dense(a), PsiQuery(-2, 2, scan_count=32))
        for times in (np.array([0.0, 0.5, 2.0, 3.0]), np.linspace(1.0, 5.0, 9)):
            with pytest.raises(ConfigurationError):
                semigroup_norm_curve(a, times, psi)

    def test_modeL_requires_metric(self):
        p = ModeParams(nu=0.01, gamma=0.4, k_f=0.5, k1=1, k3=1)
        grid = build_grid(32, p)
        ml, _ = assemble_mode_operators(p, grid)
        psi = PsiResult(psi=1.0, lam_star=0.0, lam_grid=np.array([0.0]),
                        sigma_grid=np.array([1.0]), converged=True, scan_error=0.0)
        with pytest.raises(Exception):
            semigroup_norm_curve(ml, np.linspace(0, 1, 5), psi)


def synthetic_trajectory(times, values, gamma=1.0, k1=1):
    p = ModeParams(nu=1e-4, gamma=gamma, k_f=1.0, k1=k1, k3=0)
    grid = build_grid(16, p)
    z = np.zeros_like(values)
    return Trajectory(times=times, norm_f=values, norm_g=values, norm_q1f=values,
                      norm_p1f=z, norm_dyf=z, params=p, grid=grid)


class TestDecayFit:
    def test_pure_exponential(self):
        t = np.linspace(0, 10, 200)
        traj = synthetic_trajectory(t, 3.5 * np.exp(-2.0 * t))
        fit = fit_decay_rate(traj, "f")
        assert fit.rate == pytest.approx(2.0, abs=1e-6)
        assert fit.residual <= 1e-9

    def test_prefactor_model(self):
        t = np.linspace(0, 10, 300)
        traj = synthetic_trajectory(t, np.exp(-2.0 * t) * (1.0 + 2.0 * t))
        fit = fit_decay_rate(traj, "g", prefactor=True)
        assert fit.rate == pytest.approx(2.0, abs=1e-3)
        # the pure-exponential fit is visibly worse on this signal
        plain = fit_decay_rate(traj, "g")
        assert fit.residual < plain.residual

    def test_floor_truncation(self):
        t = np.linspace(0, 40, 400)
        y = np.exp(-2.0 * t) + 1e-14
        traj = synthetic_trajectory(t, y)
        fit = fit_decay_rate(traj, "f")
        assert fit.rate == pytest.approx(2.0, rel=0.05)

    def test_too_few_samples(self):
        t = np.linspace(0, 1, 5)
        with pytest.raises(Exception):
            fit_decay_rate(synthetic_trajectory(t, np.exp(-t)), "f")


class TestEnergyIdentity:
    def params(self):
        return ModeParams(nu=0.01, gamma=0.4, k_f=0.5, k1=1, k3=1)

    def run(self, dt, t_end=2.0, n=48):
        p = self.params()
        grid = build_grid(n, p)
        rng = np.random.default_rng(3)
        f0 = grid.random_coeffs(rng)
        return evolve_coupled(p, f0, np.zeros_like(f0), t_end, dt, grid=grid,
                              store_states=True)

    def test_zero_data(self):
        p = self.params()
        grid = build_grid(32, p)
        z = np.zeros(32, dtype=complex)
        traj = evolve_coupled(p, z, z, 1.0, 0.1, grid=grid, store_states=True)
        out = energy_identity_residual(traj)
        assert np.allclose(out["residuals"], 0.0, atol=1e-250)

    def test_eigenvector_data_small_residual(self):
        p = self.params()
        grid = build_grid(48, p)
        a_l, _, _ = coupled_generators(p, grid)
        vals, vecs = np.linalg.eig(a_l)
        f0 = vecs[:, np.argmin(vals.real)]
        traj = evolve_coupled(p, f0, np.zeros(grid.n, dtype=complex), 2.0, 0.005,
                              grid=grid, store_states=True)
        out = energy_identity_residual(traj)
        assert out["max_rel_residual"] <= 1e-6

    def test_fourth_order_convergence(self):
        # sampling must resolve the shear-frequency oscillation before the
        # 4th-order asymptotics kick in
        r1 = energy_identity_residual(self.run(0.008))["max_rel_residual"]
        r2 = energy_identity_residual(self.run(0.004))["max_rel_residual"]
        r3 = energy_identity_residual(self.run(0.002))["max_rel_residual"]
        assert r1 / r2 >= 10.0  # 4th order would give 16
        assert r2 / r3 >= 10.0


class TestAlpha1:
    def test_conservation_and_bounds(self):
        out = alpha1_suite(nu=0.01, gamma=0.1, k1=1, n=48, n_random=10,
                           t_end=200.0, dt=1.0)
        assert out["conservation_drift"] <= 1e-8
        assert out["lowerb_ratio"] > 0
        assert np.isfinite(out["upb2_ratio_max"])
        assert out["q1_rate"] >= out["nu"]

    def test_generator_matches_mode_operator(self):
        # nu*kappa^2 + ModeL at k1^2+k3^2 = k_f = 1 equals the f' = -nu f + L1 u form
        nu, gamma = 0.01, 0.1
        p = ModeParams(nu=nu, gamma=gamma, k_f=1.0, k1=1, k3=0)
        grid = build_grid(48, p, alpha=gamma)
        a_l, _, _ = coupled_generators(p, grid)
        gen = alpha1_generator(nu, gamma, grid)
        assert np.max(np.abs(a_l - gen)) <= 1e-12 * np.max(np.abs(gen))

    def test_solve_L1_consistency(self):
        nu, beta = 0.01, 0.3
        p = ModeParams(nu=nu, gamma=beta, k_f=1.0, k1=1, k3=0)
        grid = build_grid(48, p, alpha=beta)
        w = grid.random_coeffs(RNG)
        from kolmoflow.spectral import assemble_L1
        u = solve_L1(nu, beta, grid, w)
        back = assemble_L1(nu, beta, grid).matvec(u)
        assert np.linalg.norm(back - w) <= 1e-10 * np.linalg.norm(w)

    def test_k1_validation(self):
        with pytest.raises(Exception):
            alpha1_suite(nu=0.01, gamma=0.1, k1=2)


class TestForcedDecay:
    def params(self):
        return ModeParams(nu=0.01, gamma=0.4, k_f=0.5, k1=1, k3=1)

    def test_zero_source_homogeneous(self):
        p = self.params()
        grid = build_grid(48, p)
        f0 = grid.random_coeffs(RNG)
        out = forced_decay(p, ForcingSpec(kind="zero"), t_end=20.0, dt=0.05,
                           c_hat=0.4, grid=grid, f0=f0)
        assert out["verdict"]
        assert out["weighted_source_integral"] == 0.0
        assert np.isfinite(out["x_norm_sq"])
        # independent oracle: adaptive integration of f' = -A_L f, not the
        # matrix exponential that forced_decay and evolve_coupled share
        a_l, _, _ = coupled_generators(p, grid)
        sol = solve_ivp(lambda _, f: -a_l @ f, (0.0, 20.0), f0.astype(complex),
                        method="DOP853", rtol=1e-11, atol=1e-14, t_eval=out["times"])
        want = np.array([grid.norm_coeffs(f) for f in sol.y.T])
        assert np.max(np.abs(out["norms"] - want) / want) <= 1e-7

    def test_pulse_recovers_homogeneous_rate(self):
        p = self.params()
        grid = build_grid(48, p)
        rng = np.random.default_rng(5)
        prof = grid.random_coeffs(rng)
        spec = ForcingSpec(kind="pulse", amplitude=5.0, t0=1.0, width=0.05,
                           h2=prof)
        out = forced_decay(p, spec, t_end=25.0, dt=0.05, c_hat=0.4, grid=grid)
        t, n = out["times"], out["norms"]
        # compare the post-pulse decay with a homogeneous run from the
        # post-pulse state
        sel = t >= 3.0
        post = synthetic_trajectory(t[sel] - t[sel][0], n[sel],
                                    gamma=p.gamma, k1=p.k1)
        fit = fit_decay_rate(post, "f", t_min=2.0)
        f0h = grid.random_coeffs(rng)
        hom = evolve_coupled(p, f0h, np.zeros_like(f0h), 25.0, 0.05, grid=grid)
        fit_h = fit_decay_rate(hom, "f")
        assert fit.rate == pytest.approx(fit_h.rate, rel=0.05)

    def test_cprime_validation(self):
        p = self.params()
        with pytest.raises(Exception):
            forced_decay(p, ForcingSpec(kind="zero"), 1.0, 0.1, c_hat=0.3,
                         c_prime=0.5)

    def test_accumulators_nondecreasing(self):
        acc = NormAccumulators(c_prime=0.1, gamma=0.4, nu=0.01)
        prev = (0.0, 0.0, 0.0)
        rng = np.random.default_rng(0)
        for i, t in enumerate(np.linspace(0, 5, 50)):
            acc.update(t, abs(rng.standard_normal()), abs(rng.standard_normal()))
            cur = (acc.sup_sq, acc.l2_sq, acc.diss_sq)
            assert all(c >= p0 for c, p0 in zip(cur, prev))
            prev = cur


class TestGEnvelope:
    def test_single_constant_across_trials(self):
        # ||g(t)|| <= C e^{-at}(||g0|| + (1+at)||f0||/|k1|): one envelope rate
        # bounding both channels (min of the f rate and the autonomous g
        # rate), one C fitted on 10 trials and reused on 10 more
        p = ModeParams(nu=0.01, gamma=0.4, k_f=0.5, k1=1, k3=1)
        grid = build_grid(48, p)
        rng = np.random.default_rng(11)
        g_hom = grid.random_coeffs(rng)
        traj_g = evolve_coupled(p, np.zeros(grid.n, complex), g_hom, 15.0, 0.25,
                                grid=grid)
        rate_g = fit_decay_rate(traj_g, "g").rate
        ratios = []
        for _ in range(20):
            f0 = grid.random_coeffs(rng)
            g0 = grid.random_coeffs(rng)
            f0 /= grid.norm_coeffs(f0)
            g0 /= grid.norm_coeffs(g0)
            traj = evolve_coupled(p, f0, g0, 15.0, 0.25, grid=grid)
            a = min(fit_decay_rate(traj, "f").rate, rate_g)
            env = np.exp(-a * traj.times) * (
                traj.norm_g[0] + (1 + a * traj.times) * traj.norm_f[0] / abs(p.k1))
            ratios.append(np.max(traj.norm_g / env))
        c_hat = max(ratios[:10])
        assert all(r <= 1.5 * c_hat for r in ratios[10:])
