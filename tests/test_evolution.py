"""Propagators, coupled evolution, decay fits, energy identities, alpha=1."""

import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from band_oracle import band_of
from kolmoflow import evolution
from kolmoflow.spectral import (
    TWO_PI,
    ConfigurationError,
    ModeParams,
    StarMetric,
    assemble_L1,
    assemble_mode_operators,
    build_grid,
    step_count,
)
from kolmoflow.pseudospectra import compute_psi, psi_for_params
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
        e1 = propagator(mh.dense(), 0.3)
        e2 = propagator(mh.dense(), 0.5)
        e3 = propagator(mh.dense(), 0.8)
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

    def test_step_count_forgives_a_quotient_1e9_above_an_integer(self):
        # t_end/dt = 4 + 5e-10 is 4 steps, as in the DNS; 4 + 1e-8 is 5
        p = self.params()
        grid = build_grid(32, p)
        f0 = grid.random_coeffs(RNG)
        for t_end, steps in ((1.0 + 1.25e-10, 4), (1.0 + 2.5e-9, 5)):
            traj = evolve_coupled(p, f0, f0, t_end, 0.25, grid=grid)
            assert len(traj.times) == steps + 1 == step_count(t_end, 0.25) + 1

    def test_star_contraction_along_modeL_flow(self):
        p = self.params()
        grid = build_grid(48, p)
        metric = StarMetric.for_beta(p.beta, grid)
        f0 = grid.random_coeffs(RNG)
        traj = evolve_coupled(p, f0, np.zeros_like(f0), 1.0, 0.05, grid=grid,
                              store_states=True)
        stars = np.array([np.sqrt(TWO_PI * np.sum(metric.weights * np.abs(f) ** 2))
                          for f in traj.f_states])
        assert np.all(np.diff(stars) <= 1e-12 * stars[:-1])


class TestSemigroupCurve:
    def test_selfadjoint_diag(self):
        a = np.diag([1.0, 3.0])
        psi = compute_psi(band_of(a), 2.0, 32)
        assert psi.psi == pytest.approx(1.0, rel=1e-6)
        out = semigroup_norm_curve(band_of(a), np.linspace(0, 5, 11), psi)
        assert out["verdict"]
        assert np.allclose(out["norms"], np.exp(-out["times"])), "||e^{-tA}||=e^{-t}"

    def test_accretive_nonnormal_hump(self):
        # [[1,2],[0,2]] is accretive (hermitian part spd) with a transient
        # hump above the naive e^{-t}; the sharp bound still holds
        a = np.array([[1.0, 2.0], [0.0, 2.0]])
        herm = 0.5 * (a + a.T)
        assert np.linalg.eigvalsh(herm).min() >= 0
        psi = compute_psi(band_of(a), 4.0, 64)
        times = np.linspace(0, 6, 25)
        out = semigroup_norm_curve(band_of(a), times, psi)
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
        psi = compute_psi(band_of(a), 2.0, 32)
        for times in (np.array([0.0, 0.5, 2.0, 3.0]), np.linspace(1.0, 5.0, 9)):
            with pytest.raises(ConfigurationError):
                semigroup_norm_curve(band_of(a), times, psi)


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

    def test_a_channel_not_computed_is_refused(self):
        t = np.linspace(0, 10, 200)
        full = synthetic_trajectory(t, np.exp(-2.0 * t))
        traj = Trajectory(times=t, params=full.params, grid=full.grid, norm_g=full.norm_g)
        assert fit_decay_rate(traj, "g").rate == pytest.approx(2.0, abs=1e-6)
        for channel in ("f", "Q1f", "P1f", "dyf"):
            with pytest.raises(ConfigurationError, match="not computed"):
                fit_decay_rate(traj, channel)


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

    @pytest.mark.parametrize("k1, gamma", [(1, 0.0), (0, 0.4)])
    def test_needs_shear(self, k1, gamma):
        # the identity holds without shear too: k1*gamma = 0 divides by nothing
        p = ModeParams(nu=0.5, gamma=gamma, k_f=0.5, k1=k1, k3=1)
        grid = build_grid(16, p)
        f0 = grid.random_coeffs(np.random.default_rng(8))
        traj = evolve_coupled(p, f0, f0, 5.0, 0.1, grid=grid, store_states=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = energy_identity_residual(traj)
        assert np.isfinite(out["max_rel_residual"])


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
        u = solve_L1(nu, beta, grid, w)
        back = assemble_L1(nu, beta, grid).matvec(u)
        assert np.linalg.norm(back - w) <= 1e-10 * np.linalg.norm(w)

    def test_k1_validation(self):
        with pytest.raises(ConfigurationError, match="k1"):
            alpha1_suite(nu=0.01, gamma=0.1, k1=2, t_end=1.0, dt=0.1)


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

    def test_cprime_validation(self):
        p = self.params()
        with pytest.raises(ConfigurationError, match="c'"):
            forced_decay(p, ForcingSpec(kind="zero"), 1.0, 0.1, c_hat=0.3,
                         grid=build_grid(48, p), c_prime=0.5)

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


def _norm(c):
    """The channel norm as numpy spells it: sqrt(2 pi) ||c||."""
    return np.sqrt(2.0 * np.pi) * np.linalg.norm(c)


class TestReuseIsBitIdentical:
    """Work done once in place of once per call gives the same bits as the
    per-call loop it replaces (np.array_equal, not a tolerance)."""

    P = ModeParams(nu=0.01, gamma=0.4, k_f=0.5, k1=1, k3=1)

    @pytest.fixture
    def expm_calls(self, monkeypatch):
        """Count the matrix exponentials, starting from an empty reuse store."""
        calls = []

        def counting(a):
            calls.append(a.shape)
            return expm(a)

        monkeypatch.setattr(evolution, "expm", counting)
        monkeypatch.setattr(evolution, "_LAST_PROPAGATORS", {})
        return calls

    def test_norm_coeffs_is_numpy_norm(self):
        grid = build_grid(48, self.P)
        rng = np.random.default_rng(1)
        block = rng.standard_normal((7, 48)) + 1j * rng.standard_normal((7, 48))
        vectors = [grid.random_coeffs(rng) * 10.0 ** k for k in range(-8, 9, 4)]
        vectors += list(block) + list(block.T[:, :5].T) + [block[:, 3], block[0].real]
        assert np.array_equal([grid.norm_coeffs(c) for c in vectors],
                              [_norm(c) for c in vectors])

    def test_norm_coeffs_of_a_stack_is_row_by_row(self):
        # a (1, n) @ (n, 1) matmul is numpy's dot, also on the strided halves
        # of a stacked [f, g] state
        rng = np.random.default_rng(4)
        for n in (48, 96, 192):
            grid = build_grid(n, self.P)
            scale = 10.0 ** rng.uniform(-8, 3, (30, 1))
            states = scale * (rng.standard_normal((30, 2 * n))
                              + 1j * rng.standard_normal((30, 2 * n)))
            for stack in (states[:, :n], states[:, n:], np.ascontiguousarray(states[:, :n])):
                assert np.array_equal(grid.norm_coeffs(stack),
                                      [grid.norm_coeffs(c) for c in stack])

    def test_grid_values_and_l1_norms_of_a_stack_are_row_by_row(self):
        rng = np.random.default_rng(8)
        for n in (48, 64, 96):
            grid = build_grid(n, self.P)
            block = rng.standard_normal((20, 2 * n)) + 1j * rng.standard_normal((20, 2 * n))
            for stack in (block[:, :n], block.T[:n].T, np.ascontiguousarray(block[:, n:])):
                values = grid.to_grid(stack)
                assert np.array_equal(values, [grid.to_grid(c) for c in stack])
                assert np.array_equal(grid.l1_norm_grid(values),
                                      [grid.l1_norm_grid(v) for v in values])

    def test_alpha1_inverse_bounds_match_per_sample_loop(self):
        nu, gamma, n, n_random, seed = 0.003, 0.3, 64, 12, 7
        out = alpha1_suite(nu=nu, gamma=gamma, k1=1, n=n, n_random=n_random,
                           t_end=30.0, dt=1.0, seed=seed)
        grid = build_grid(n, ModeParams(nu=nu, gamma=gamma, k_f=1.0, k1=1, k3=0),
                          alpha=gamma)
        rng = np.random.default_rng(seed)
        up2, up1 = [], []
        for _ in range(n_random):
            w = grid.random_coeffs(rng)
            u = solve_L1(nu, gamma, grid, w)
            nw = _norm(w)
            up2.append(_norm(u) * gamma ** (2 / 3) * nu ** (-1 / 3) / nw)
            l1 = (TWO_PI / n) * np.sum(np.abs(np.fft.ifft(np.fft.ifftshift(u)) * n))
            up1.append(l1 * gamma ** (5 / 6) * nu ** (-2 / 3) / nw)
        assert out["upb2_ratio_max"] == max(up2)
        assert out["upb1_ratio_max"] == max(up1)

    def test_march_is_the_explicit_loop(self):
        rng = np.random.default_rng(5)
        e = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        e /= np.linalg.norm(e, 2)
        for start in (rng.standard_normal(24) + 0j, np.eye(24, dtype=complex)):
            want, x = [start], start
            for _ in range(7):
                x = e @ x
                want.append(x)
            got = list(evolution._march(e, start, 7))
            assert len(got) == 8
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_trajectory_norms_match_per_state_loop(self):
        p, grid = self.P, build_grid(32, self.P)
        rng = np.random.default_rng(2)
        f0, g0 = grid.random_coeffs(rng), grid.random_coeffs(rng)
        traj = evolve_coupled(p, f0, g0, 3.0, 0.25, grid=grid, store_states=True)
        # the stepping loop as a list of copies, one state at a time
        a_l, a_h, coupling = coupled_generators(p, grid)
        n = grid.n
        gen = np.block([[-a_l, np.zeros((n, n))], [coupling, -a_h]])
        e = propagator(-gen, 0.25)
        state = np.concatenate([f0, g0])
        fs, gs = [f0], [g0]
        for _ in range(12):
            state = e @ state
            fs.append(state[:n].copy())
            gs.append(state[n:].copy())
        assert np.array_equal(traj.f_states, fs) and np.array_equal(traj.g_states, gs)
        k = grid.wavenumbers
        want = {"f": [_norm(f) for f in fs], "g": [_norm(g) for g in gs],
                "Q1f": [_norm(np.where(k != 0, f, 0)) for f in fs],
                "P1f": [_norm(np.where(k == 0, f, 0)) for f in fs],
                "dyf": [_norm(1j * k * f) for f in fs]}
        for name, values in want.items():
            assert np.array_equal(traj.channel(name), values), name

    def test_multi_rhs_L1_solve_matches_per_column(self):
        nu, beta = 0.003, 0.3
        p = ModeParams(nu=nu, gamma=beta, k_f=1.0, k1=1, k3=0)
        grid = build_grid(64, p, alpha=beta)
        rng = np.random.default_rng(3)
        cols = np.array([grid.random_coeffs(rng) * 10.0 ** k for k in range(-6, 7)])
        block = evolution._l1_banded_solve(assemble_L1(nu, beta, grid), cols.T)
        per_column = np.array([solve_L1(nu, beta, grid, w) for w in cols])
        assert np.array_equal(block.T, per_column)
        # <L1^{-1} f, 1> read off the n = 0 row equals the inner product
        one = (grid.wavenumbers == 0).astype(complex)
        row = 2.0 * np.pi * block[grid.wavenumbers == 0][0]
        assert np.array_equal(row, [grid.inner_coeffs(u, one) for u in per_column])

    @pytest.mark.parametrize("kind", ["sustained", "zero"])
    def test_forced_decay_matches_per_step_source_loop(self, kind):
        p, grid = self.P, build_grid(32, self.P)
        rng = np.random.default_rng(4)
        h = {name: grid.random_coeffs(rng) for name in ("h1", "h2", "h3")}
        spec = ForcingSpec(kind=kind, amplitude=1.3, c_weight=0.2, **h)
        f0 = grid.random_coeffs(rng)
        t_end, dt, c_prime = 4.0, 0.1, 0.15
        out = forced_decay(p, spec, t_end=t_end, dt=dt, c_hat=0.3, grid=grid, f0=f0,
                           c_prime=c_prime)
        # the loop with the source formed in full at each of its 3 nodes per step

        def source(t):
            if kind == "zero":
                return np.zeros(grid.n, dtype=complex)
            k = grid.wavenumbers
            div = 1j * p.k1 * h["h1"] + 1j * k * h["h2"] + 1j * p.k3 * h["h3"]
            return spec.envelope(t, p.gamma) * div

        def grad_norm(c):
            return np.sqrt((p.k1**2 + p.k3**2) * _norm(c) ** 2
                           + p.k_f**2 * _norm(1j * grid.wavenumbers * c) ** 2)

        a_l, _, _ = coupled_generators(p, grid)
        e, e2 = propagator(a_l, dt), propagator(a_l, dt / 2.0)
        times = np.arange(41) * dt
        acc = NormAccumulators(c_prime=c_prime, gamma=p.k1 * p.gamma, nu=p.nu)
        f = f0
        acc.update(0.0, _norm(f), grad_norm(f))
        sqg = np.sqrt(abs(p.k1 * p.gamma))
        integral, prev = 0.0, _norm(source(0.0)) ** 2
        norms = [_norm(f)]
        for j in range(40):
            t = times[j]
            s0, s1, s2 = source(t), source(t + dt / 2.0), source(t + dt)
            f = e @ f + (dt / 6.0) * (e @ s0 + 4.0 * (e2 @ s1) + s2)
            acc.update(times[j + 1], _norm(f), grad_norm(f))
            cur = np.exp(2 * c_prime * sqg * times[j + 1]) * _norm(s2) ** 2
            integral += 0.5 * dt * (prev + cur)
            prev = cur
            norms.append(_norm(f))
        assert np.array_equal(out["norms"], norms)
        assert out["x_norm_sq"] == acc.x_norm_sq
        assert out["weighted_source_integral"] == integral
        assert out["c_hat_fit"] == acc.x_norm_sq / (norms[0] ** 2 + integral / p.nu)

    def test_one_block_exponential_per_key(self, expm_calls):
        p, grid = self.P, build_grid(32, self.P)
        rng = np.random.default_rng(5)
        f0, g0 = grid.random_coeffs(rng), grid.random_coeffs(rng)
        first = evolve_coupled(p, f0, g0, 2.0, 0.25, grid=grid)
        again = evolve_coupled(p, g0, f0, 2.0, 0.25, grid=grid)
        assert expm_calls == [(64, 64)]
        # a different dt, then different params, each build a new propagator
        evolve_coupled(p, f0, g0, 2.0, 0.5, grid=grid)
        other = ModeParams(nu=0.01, gamma=0.1, k_f=0.5, k1=1, k3=1)
        evolve_coupled(other, f0, g0, 2.0, 0.5, grid=grid)
        assert len(expm_calls) == 3
        # only the last block propagator is kept: the first key builds anew,
        # with the same bits as its first build
        again_first = evolve_coupled(p, f0, g0, 2.0, 0.25, grid=grid)
        assert len(expm_calls) == 4
        assert np.array_equal(first.norm_f, again_first.norm_f)
        assert np.array_equal(first.norm_g, again_first.norm_g)
        assert not np.array_equal(first.norm_f, again.norm_f)

    def test_forced_decay_reuses_its_two_steps(self, expm_calls):
        p, grid = self.P, build_grid(32, self.P)
        f0 = grid.random_coeffs(np.random.default_rng(6))
        for spec in (ForcingSpec(kind="sustained", h2=f0), ForcingSpec(kind="zero")):
            forced_decay(p, spec, t_end=2.0, dt=0.1, c_hat=0.3, grid=grid, f0=f0)
        assert expm_calls == [(32, 32), (32, 32)]  # e at dt and e2 at dt/2, once
        # the block kind is separate and does not evict the A_L steps
        evolve_coupled(p, f0, f0, 1.0, 0.1, grid=grid)
        forced_decay(p, ForcingSpec(kind="zero"), t_end=2.0, dt=0.1, c_hat=0.3,
                     grid=grid, f0=f0)
        assert len(expm_calls) == 3

    def test_kept_propagators_are_read_only(self, expm_calls):
        p, grid = self.P, build_grid(32, self.P)
        f0 = grid.random_coeffs(np.random.default_rng(7))
        evolve_coupled(p, f0, f0, 1.0, 0.1, grid=grid)
        forced_decay(p, ForcingSpec(kind="zero"), t_end=1.0, dt=0.1, c_hat=0.3,
                     grid=grid, f0=f0)
        kept = [m for _, mats in evolution._LAST_PROPAGATORS.values() for m in mats]
        assert len(kept) == 3
        for m in kept:
            with pytest.raises(ValueError):
                m[0, 0] = 1.0


class TestDecayFitWindow:
    @pytest.mark.parametrize("k1, gamma", [(1, 0.0), (0, 0.4)])
    def test_default_window_needs_shear(self, k1, gamma):
        p = ModeParams(nu=0.5, gamma=gamma, k_f=1.0, k1=k1, k3=1)
        grid = build_grid(16, p)
        f0 = grid.random_coeffs(np.random.default_rng(8))
        traj = evolve_coupled(p, f0, f0, 5.0, 0.1, grid=grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no 2/0 on the way
            with pytest.raises(ConfigurationError, match="infinite"):
                fit_decay_rate(traj, "f")
        assert fit_decay_rate(traj, "f", t_min=1.0).rate > 0
