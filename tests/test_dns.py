"""DNS: steady state, invariants, convergence, diagnostics, sweep plumbing."""

import numpy as np
import pytest
from scipy.integrate import simpson

from kolmoflow.spectral import ConfigurationError
from kolmoflow.dns import (
    DNSConfig,
    DiagnosticsTracker,
    SpectralField3D,
    ThresholdMap,
    _shift_ky,
    explicit_rhs,
    init_perturbation,
    liftup_profile_residual,
    load_checkpoint,
    run_simulation,
    run_threshold_sweep,
    save_checkpoint,
    step_imex,
    velocity_recovery_residual,
)


def base_config(**kw):
    kw.setdefault("nu", 0.05)
    kw.setdefault("gamma", 0.05)
    kw.setdefault("k_f", 0.5)
    kw.setdefault("n", (16, 16, 16))
    kw.setdefault("epsilon", 1e-3)
    return DNSConfig(**kw)


class TestConfig:
    def test_kf_range(self):
        with pytest.raises(ConfigurationError):
            base_config(k_f=1.0)
        with pytest.raises(ConfigurationError):
            base_config(k_f=1.5)

    def test_odd_resolution(self):
        with pytest.raises(ConfigurationError):
            base_config(n=(15, 16, 16))

    def test_cfl_guard(self):
        with pytest.raises(ConfigurationError):
            base_config(dt=10.0)

    def test_default_horizon(self):
        cfg = base_config()
        assert cfg.t_end == pytest.approx(50.0 / np.sqrt(0.05))


class TestInit:
    def test_zero_epsilon(self):
        st = init_perturbation(base_config(epsilon=0.0))
        assert np.all(st.vhat == 0.0)

    def test_h2_norm_exact(self):
        st = init_perturbation(base_config(epsilon=2.5e-3, seed=7))
        assert st.h2_norm() == pytest.approx(2.5e-3, rel=1e-12)

    def test_divergence_free_and_real(self):
        st = init_perturbation(base_config(seed=7))
        assert st.divergence_max() <= 1e-12
        assert st.hermitian_defect() <= 1e-12

    def test_leray_idempotent(self):
        st = init_perturbation(base_config(seed=7))
        once = st.leray_project(st.vhat)
        twice = st.leray_project(once)
        assert np.max(np.abs(twice - once)) <= 1e-14 * np.max(np.abs(once))

    def test_spectral_support_filtered(self):
        st = init_perturbation(base_config(seed=7))
        assert st.tail_fraction() == 0.0

    def test_deterministic_seed(self):
        a = init_perturbation(base_config(seed=5))
        b = init_perturbation(base_config(seed=5))
        assert np.array_equal(a.vhat, b.vhat)


class TestStep:
    def test_zero_is_fixed_point(self):
        st = init_perturbation(base_config(epsilon=0.0, dt=0.02))
        for _ in range(200):
            step_imex(st)
        assert np.max(np.abs(st.vhat)) == 0.0

    def test_invariants_along_run(self):
        st = init_perturbation(base_config(seed=3, dt=0.02))
        for _ in range(50):
            step_imex(st)
            assert st.divergence_max() <= 1e-12
        assert st.hermitian_defect() <= 1e-12

    def test_pure_diffusion_single_mode(self):
        cfg = base_config(nonlinear=False, background=False, dt=0.01)
        st = init_perturbation(cfg)
        st.vhat[:] = 0.0
        amp = 1e-3 / np.sqrt(2.0)
        for sgn in (1, -1):
            st.vhat[0, sgn, 0, sgn] = amp
            st.vhat[2, sgn, 0, sgn] = -amp
        for _ in range(100):
            step_imex(st)
        want = amp * np.exp(-cfg.nu * 2.0 * st.t)
        got = np.abs(st.vhat[0, 1, 0, 1])
        assert abs(got - want) / want <= 1e-8

    def test_energy_balance_third_order(self):
        cfg = base_config(epsilon=0.05, seed=2, dt=0.02)

        def rhs_energy(st):
            visc = -cfg.nu * st.grad_norm_sq()
            cosv2 = (_shift_ky(st.vhat[1], 1) + _shift_ky(st.vhat[1], -1)) / 2.0
            lift = cfg.gamma / (cfg.nu * cfg.k_f)
            cross = -lift * st.vol * np.sum(cosv2 * np.conj(st.vhat[0])).real
            return visc + cross

        errs = []
        for nsub, dt in ((50, 0.02), (100, 0.01)):
            st = init_perturbation(cfg)
            e0 = 0.5 * st.l2_norm_sq()
            samples = [rhs_energy(st)]
            for _ in range(nsub):
                step_imex(st, dt=dt)
                samples.append(rhs_energy(st))
            e1 = 0.5 * st.l2_norm_sq()
            errs.append(abs((e1 - e0) - simpson(samples, dx=dt)) / (nsub * dt))
        assert errs[0] <= 1e-6
        assert errs[0] / errs[1] >= 2.0**3 * 0.7  # 3rd-order refinement

    def test_semi_discrete_energy_identity_exact(self):
        cfg = base_config(epsilon=0.05, seed=2, dt=0.02)
        st = init_perturbation(cfg)
        for _ in range(5):
            step_imex(st)
        rhs = explicit_rhs(st, st.vhat) - cfg.nu * st.k2 * st.vhat
        dedt = st.vol * np.sum(rhs * np.conj(st.vhat)).real
        visc = -cfg.nu * st.grad_norm_sq()
        cosv2 = (_shift_ky(st.vhat[1], 1) + _shift_ky(st.vhat[1], -1)) / 2.0
        lift = cfg.gamma / (cfg.nu * cfg.k_f)
        cross = -lift * st.vol * np.sum(cosv2 * np.conj(st.vhat[0])).real
        assert dedt == pytest.approx(visc + cross, rel=1e-10)

    def test_blowup_detection(self):
        cfg = base_config(epsilon=0.05, dt=0.02)
        st = init_perturbation(cfg)
        st.vhat *= 1e150  # force overflow through the quadratic term
        with pytest.raises(FloatingPointError), np.errstate(all="ignore"):
            for _ in range(50):
                step_imex(st)


class TestDiagnostics:
    def test_recovery_identity_single_mode(self):
        st = init_perturbation(base_config(seed=3))
        assert velocity_recovery_residual(st) <= 1e-12

    def test_recovery_along_run(self):
        st = init_perturbation(base_config(seed=3, dt=0.02))
        for _ in range(30):
            step_imex(st)
        assert velocity_recovery_residual(st) <= 1e-12

    def test_liftup_profile_closed_form(self):
        assert liftup_profile_residual(0.05, 0.05, 0.5, 0.01) <= 1e-12
        assert liftup_profile_residual(0.003, 0.1, 0.7, -0.2) <= 1e-12

    def test_mean_momentum_conserved(self):
        cfg = base_config(epsilon=0.05, seed=2, dt=0.02)
        st = init_perturbation(cfg)
        tracker = DiagnosticsTracker(cfg)
        tracker.frame(st)
        for _ in range(100):
            step_imex(st)
        fr = tracker.frame(st)
        f0 = tracker.frames[0]
        for a, b in ((f0.a1, fr.a1), (f0.a2, fr.a2), (f0.a3, fr.a3)):
            assert abs(b - a) <= 1e-10 * max(st.t, 1.0)

    def test_m0_m1_nondecreasing(self):
        cfg = base_config(epsilon=0.01, seed=4, dt=0.02)
        st = init_perturbation(cfg)
        tracker = DiagnosticsTracker(cfg)
        prev = (0.0, 0.0)
        for _ in range(10):
            for _ in range(5):
                step_imex(st)
            fr = tracker.frame(st)
            assert fr.m0 >= prev[0] and fr.m1 >= prev[1]
            prev = (fr.m0, fr.m1)

    def test_csv_stream(self, tmp_path):
        cfg = base_config(epsilon=0.01, seed=4, dt=0.02)
        st = init_perturbation(cfg)
        tracker = DiagnosticsTracker(cfg)
        tracker.frame(st)
        path = tmp_path / "frames.csv"
        tracker.write_csv(path, header_lines=["test"])
        text = path.read_text().splitlines()
        assert text[0] == "# test"
        assert text[1].startswith("t,")


class TestRuns:
    def test_small_epsilon_decays(self):
        cfg = base_config(epsilon=1e-4, seed=1, t_end=60.0)
        out = run_simulation(cfg, sample_every=20)
        assert out["outcome"] == "decayed"
        assert np.isfinite(out["rate_neq"]) and out["rate_neq"] > 0
        assert out["resolved"]

    def test_same_seed_same_outcome(self):
        cfg = base_config(epsilon=1e-3, seed=9, t_end=40.0)
        a = run_simulation(cfg, sample_every=20)
        cfg2 = base_config(epsilon=1e-3, seed=9, t_end=40.0)
        b = run_simulation(cfg2, sample_every=20)
        assert a["outcome"] == b["outcome"]
        assert a["m0"] == b["m0"]

    def test_threshold_map_monotonicity_logic(self):
        tmap = ThresholdMap(rows=[
            {"nu": 0.02, "epsilon": 1e-3, "outcome": "decayed"},
            {"nu": 0.02, "epsilon": 1e-1, "outcome": "persisted"},
            {"nu": 0.05, "epsilon": 1e-3, "outcome": "decayed"},
            {"nu": 0.05, "epsilon": 1e-1, "outcome": "decayed"},
        ])
        assert tmap.eps_star(0.02) == 1e-3
        assert tmap.eps_star(0.05) == 1e-1
        assert tmap.monotone_in_nu()

    def test_checkpoint_restart(self, tmp_path):
        cfg = base_config(epsilon=1e-3, seed=3, dt=0.02)
        st = init_perturbation(cfg)
        for _ in range(5):
            step_imex(st)
        save_checkpoint(st, tmp_path / "chk.npz")
        back = load_checkpoint(tmp_path / "chk.npz")
        assert np.array_equal(back.vhat, st.vhat)
        assert back.t == st.t
        step_imex(back)
        step_imex(st)
        assert np.allclose(back.vhat, st.vhat, rtol=0, atol=0)

    def test_checkpoint_keeps_linear_no_background_config(self, tmp_path):
        cfg = base_config(epsilon=1e-2, seed=5, dt=0.02, nonlinear=False,
                          background=False, cfl=0.4, filter_fraction=0.25)
        st = init_perturbation(cfg)
        for _ in range(3):
            step_imex(st)
        save_checkpoint(st, tmp_path / "chk.npz")
        back = load_checkpoint(tmp_path / "chk.npz")
        assert back.config == st.config
        for _ in range(3):
            step_imex(back)
            step_imex(st)
        assert np.array_equal(back.vhat, st.vhat)

    def test_checkpoint_without_new_fields_loads_defaults(self, tmp_path):
        cfg = base_config(epsilon=1e-3, seed=3, dt=0.02)
        st = init_perturbation(cfg)
        # the restart layout before nonlinear/background/cfl/filter_fraction
        np.savez(tmp_path / "old.npz", vhat=st.vhat, t=st.t, nu=cfg.nu, gamma=cfg.gamma,
                 k_f=cfg.k_f, n=np.array(cfg.n), dt=cfg.dt, t_end=cfg.t_end,
                 epsilon=cfg.epsilon, seed=cfg.seed, c_prime=cfg.c_prime)
        back = load_checkpoint(tmp_path / "old.npz")
        assert back.config == cfg

    def test_zero_epsilon_row_trivially_decays(self):
        tmap = run_threshold_sweep([0.05], [0.0],
                                   {"k_f": 0.5, "n": (16, 16, 16), "t_end": 2.0})
        assert tmap.rows[0]["outcome"] == "decayed"
