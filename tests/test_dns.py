"""DNS: steady state, invariants, convergence, diagnostics, sweep plumbing."""

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.linalg import expm

from kolmoflow.evolution import coupled_generators
from kolmoflow.spectral import ConfigurationError, ModeParams, build_grid
from kolmoflow.dns import (
    DNSConfig,
    DiagnosticsTracker,
    SpectralField3D,
    ThresholdMap,
    _project,
    _shift_ky,
    explicit_rhs,
    init_perturbation,
    liftup_profile_residual,
    nonlinear_rhs,
    run_simulation,
    run_threshold_sweep,
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

    def test_negative_epsilon(self):
        with pytest.raises(ConfigurationError, match="epsilon"):
            base_config(epsilon=-0.5)

    def test_zero_gamma_needs_a_horizon(self):
        # the default horizon 50/sqrt|gamma| is infinite at gamma = 0
        with pytest.raises(ConfigurationError, match="t_end"):
            base_config(gamma=0.0)
        assert base_config(gamma=0.0, t_end=1.0).t_end == 1.0


def hermitian_defect(st):
    """Largest |c_k - conj(c_{-k})| on the self-conjugate kz = 0 and Nyquist
    planes, relative to the largest coefficient. Elsewhere the half layout
    implies the symmetry."""
    nx, ny, nz = st.shape
    flip_x = (-np.arange(nx)) % nx
    flip_y = (-np.arange(ny)) % ny
    planes = st.vhat[..., [0, nz // 2]]
    mirror = np.conj(planes[:, flip_x][:, :, flip_y])
    scale = max(np.max(np.abs(st.vhat)), 1e-300)
    return float(np.max(np.abs(planes - mirror)) / scale)


def energy(st):
    """Kinetic energy int |V|^2 / 2."""
    return 0.5 * st.inner(st.vhat, st.vhat)


def viscous_rate(st):
    """-nu int |grad V|^2, the viscous part of dE/dt."""
    return -st.config.nu * st.inner(st.k2 * st.vhat, st.vhat)


def rfftn3(v):
    """The half spectrum of physical fields (..., nx, ny, nz), normalized as
    `vhat` is."""
    return np.fft.rfftn(v, axes=(-3, -2, -1), norm="forward")


def leray_full(st, what):
    """Leray projection of a copy of a half-layout spectrum."""
    return _project(what.copy(), st.kx, st.ky, st.kz, st.k2_safe)


def shifted_ky(w, s):
    """`_shift_ky` into a new array."""
    return _shift_ky(w, s, np.empty_like(w))


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
        assert hermitian_defect(st) <= 1e-12

    def test_leray_idempotent(self):
        st = init_perturbation(base_config(seed=7))
        once = leray_full(st, st.vhat)
        twice = leray_full(st, once)
        assert np.max(np.abs(twice - once)) <= 1e-14 * np.max(np.abs(once))

    def test_spectral_support_filtered(self):
        st = init_perturbation(base_config(seed=7))
        assert st.tail_fraction() == 0.0

    @pytest.mark.parametrize("n", [(16, 16, 16), (16, 12, 10)])
    def test_box_draw_is_bitwise_the_full_spectrum_draw(self, n):
        cfg = base_config(n=n, seed=3)
        st = init_perturbation(cfg)
        # the draw on the whole half spectrum: rfftn, dealias mask, projection
        want = rfftn3(-np.random.default_rng(cfg.seed).standard_normal((3,) + n))
        want *= st.dealias
        want[:, 0, 0, 0] = 0.0
        want = leray_full(st, want)
        want *= cfg.epsilon / st.h2_norm(want)
        assert np.array_equal(st.vhat, want)
        assert st.vhat[st.box].tobytes() == want[st.box].tobytes()  # signed zeros too

    def test_deterministic_seed(self):
        a = init_perturbation(base_config(seed=5))
        b = init_perturbation(base_config(seed=5))
        assert np.array_equal(a.vhat, b.vhat)


def hermitian_extension(half, nz):
    """Full fftn layout (..., nz) of a half spectrum: c_{-k} = conj(c_k)."""
    nx, ny = half.shape[-3:-1]
    mirror = np.conj(half[..., (-np.arange(nx)) % nx, :, :][..., (-np.arange(ny)) % ny, :])
    return np.concatenate([half, mirror[..., nz // 2 - 1:0:-1]], axis=-1)


def on_full(st, c):
    """Box coefficients scattered into the half layout, zero off the box."""
    out = np.zeros(c.shape[:-3] + st.vhat.shape[1:], dtype=complex)
    out[st.box] = c
    return out


def full_wavevectors(st):
    """Wavevectors (3, nx, ny, nz) of the full fftn layout and its 2/3 mask."""
    nx, ny, nz = st.config.n
    ix, iy, iz = np.meshgrid(*(np.fft.fftfreq(m, 1.0 / m) for m in (nx, ny, nz)),
                             indexing="ij")
    k = np.stack([ix, st.config.k_f * iy, iz])
    mask = (np.abs(ix) < nx / 3.0) & (np.abs(iy) < ny / 3.0) & (np.abs(iz) < nz / 3.0)
    return k, mask


def rotation_form_full(st, vfull):
    """Oracle: V x omega on the full fftn spectrum, 2/3-masked."""
    nx, ny, nz = st.config.n
    k, mask = full_wavevectors(st)
    v = vfull * mask
    omega = 1j * np.cross(k, v, axis=0)
    phys = lambda c: np.fft.ifftn(c, axes=(1, 2, 3)).real * (nx * ny * nz)
    prod = np.cross(phys(v), phys(omega), axis=0)
    return np.fft.fftn(prod, axes=(1, 2, 3)) / (nx * ny * nz) * mask


def advection_full(st, vfull):
    """Oracle: (V.grad)V from physical-space derivatives of the 2/3-masked
    full fftn spectrum, masked again."""
    nx, ny, nz = st.config.n
    k, mask = full_wavevectors(st)
    v = vfull * mask
    phys = lambda c: np.fft.ifftn(c, axes=(-3, -2, -1)).real * (nx * ny * nz)
    grad = phys(1j * k[:, None] * v[None])  # grad[j, i] = d_j V_i
    adv = np.einsum("jxyz,jixyz->ixyz", phys(v), grad)
    return np.fft.fftn(adv, axes=(1, 2, 3)) / (nx * ny * nz) * mask


class TestTransforms:
    def test_nonlinear_rhs_matches_full_spectrum_oracle(self):
        cfg = base_config(n=(16, 12, 10))
        st = SpectralField3D(cfg)
        rng = np.random.default_rng(11)
        half = rfftn3(rng.standard_normal((3,) + cfg.n))  # Hermitian by construction
        want = rotation_form_full(st, hermitian_extension(half, cfg.n[2]))
        box = half[st.box]
        got = on_full(st, nonlinear_rhs(st, box, np.empty_like(box)))
        assert np.max(np.abs(got - want[..., : cfg.n[2] // 2 + 1])) <= 1e-13 * np.max(np.abs(want))

    def test_projected_nonlinear_term_is_minus_projected_advection(self):
        # V x omega = grad |V|^2/2 - (V.grad)V, and the projection removes the
        # gradient. At ny = 12 the identity holds only because the box drops
        # |ky| = 4 = ny/3, onto which the products would alias.
        for n in [(16, 16, 10), (16, 12, 10)]:
            cfg = base_config(n=n, epsilon=1.0)
            st = init_perturbation(cfg)
            half = st.vhat
            box = half[st.box]
            got = on_full(st, st.project_box(nonlinear_rhs(st, box, np.empty_like(box))))
            adv = advection_full(st, hermitian_extension(half, n[2]))[..., : n[2] // 2 + 1]
            want = -leray_full(st, adv)
            assert np.max(np.abs(want)) > 0.0
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), n

    def test_hermitian_defect_checks_self_conjugate_planes(self):
        st = init_perturbation(base_config(seed=7))
        assert hermitian_defect(st) <= 1e-12
        top = np.max(np.abs(st.vhat))
        for iz in (0, st.config.n[2] // 2):
            bad = init_perturbation(base_config(seed=7))
            bad.vhat[0, 1, 2, iz] += 1e-3 * top
            assert hermitian_defect(bad) >= 1e-4

    def test_inner_is_full_spectrum_parseval(self):
        cfg = base_config(n=(8, 6, 10))
        st = SpectralField3D(cfg)
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((2, 3) + cfg.n)
        vol_mean = st.vol / a[0].size
        want = vol_mean * np.sum(a * b)
        got = st.inner(rfftn3(a), rfftn3(b))
        assert got == pytest.approx(want, rel=1e-13)


def full_spectrum_step(st, h):
    """Oracle: the integrating-factor SSP-RK3 step on the whole half
    spectrum, masking with `dealias` instead of staying on the box."""
    cfg, kx, ky, kz, mask = st.config, st.kx, st.ky, st.kz, st.dealias

    def shift(w, s):  # Galerkin: the frequency pushed past +-ny/2 is dropped
        ny = w.shape[-2]
        out = np.roll(w, s, axis=-2)
        out[..., ny // 2 if s == 1 else ny // 2 - 1, :] = 0.0
        return out

    def rhs(what):
        out = np.zeros_like(what)
        bg = (-0.5 * cfg.gamma / (cfg.nu * cfg.k_f**2)) * kx * (shift(what, 1) - shift(what, -1))
        bg[0] -= cfg.gamma / (cfg.nu * cfg.k_f) * (shift(what[1], 1) + shift(what[1], -1)) / 2.0
        out += bg
        if cfg.nonlinear:
            v = what * mask
            both = np.concatenate([v, 1j * np.stack([ky * v[2] - kz * v[1], kz * v[0] - kx * v[2],
                                                     kx * v[1] - ky * v[0]])])
            vx, vy, vz, wx, wy, wz = np.fft.irfftn(both, s=st.shape, axes=(1, 2, 3), norm="forward")
            prod = np.stack([vy * wz - vz * wy, vz * wx - vx * wz, vx * wy - vy * wx])
            out += np.fft.rfftn(prod, axes=(1, 2, 3), norm="forward") * mask
        return leray_full(st, out * mask)

    e_full = np.exp(-cfg.nu * st.k2 * h)
    e_half = np.exp(-cfg.nu * st.k2 * (h / 2.0))
    e_back = np.exp(np.minimum(cfg.nu * st.k2 * (h / 2.0), 200.0)) * mask
    u0 = st.vhat
    u1 = e_full * (u0 + h * rhs(u0))
    u_half = 0.75 * e_half * u0 + 0.25 * e_back * (u1 + h * rhs(u1))
    u_new = (e_full * u0 + 2.0 * e_half * (u_half + h * rhs(u_half))) / 3.0
    st.vhat = leray_full(st, u_new)
    st.t += h


class TestStep:
    @pytest.mark.parametrize("n", [(16, 12, 10), (16, 16, 16)])
    @pytest.mark.parametrize("nonlinear", [True, False])
    @pytest.mark.parametrize("background", [True, False])
    def test_box_step_is_bitwise_the_full_spectrum_step(self, n, nonlinear, background):
        cfg = base_config(n=n, epsilon=0.05, seed=2, nonlinear=nonlinear)
        if not background:  # no laminar flow (gamma = 0), on the same step
            cfg = base_config(n=n, epsilon=0.05, seed=2, nonlinear=nonlinear, gamma=0.0,
                              dt=cfg.dt, t_end=cfg.t_end)
        st = init_perturbation(cfg)
        oracle = init_perturbation(cfg)
        for _ in range(20):
            step_imex(st)
            full_spectrum_step(oracle, cfg.dt)
        assert np.array_equal(st.vhat, oracle.vhat)
        assert st.vhat[st.box].tobytes() == oracle.vhat[st.box].tobytes()  # signed zeros too
        assert st.t == oracle.t

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
        assert hermitian_defect(st) <= 1e-12

    def test_pure_diffusion_single_mode(self):
        cfg = base_config(nonlinear=False, gamma=0.0, dt=0.01, t_end=1.0)
        st = init_perturbation(cfg)
        st.vhat[:] = 0.0
        amp = 1e-3 / np.sqrt(2.0)
        # k = (1, 0, 1); its (-1, 0, -1) partner is the implied conjugate
        st.vhat[0, 1, 0, 1] = amp
        st.vhat[2, 1, 0, 1] = -amp
        for _ in range(100):
            step_imex(st)
        want = amp * np.exp(-cfg.nu * 2.0 * st.t)
        got = np.abs(st.vhat[0, 1, 0, 1])
        assert abs(got - want) / want <= 1e-8

    def test_energy_balance_third_order(self):
        def rhs_energy(st):
            cfg = st.config
            visc = viscous_rate(st)
            v2 = st.vhat[1][st.box]
            cosv2 = on_full(st, (shifted_ky(v2, 1) + shifted_ky(v2, -1)) / 2.0)
            lift = cfg.gamma / (cfg.nu * cfg.k_f)
            cross = -lift * st.inner(cosv2, st.vhat[0])
            return visc + cross

        errs = []
        for nsub, dt in ((50, 0.02), (100, 0.01)):
            st = init_perturbation(base_config(epsilon=0.05, seed=2, dt=dt))
            e0 = energy(st)
            samples = [rhs_energy(st)]
            for _ in range(nsub):
                step_imex(st)
                samples.append(rhs_energy(st))
            e1 = energy(st)
            errs.append(abs((e1 - e0) - simpson(samples, dx=dt)) / (nsub * dt))
        assert errs[0] <= 1e-6
        assert errs[0] / errs[1] >= 2.0**3 * 0.7  # 3rd-order refinement

    def test_semi_discrete_energy_identity_exact(self):
        cfg = base_config(epsilon=0.05, seed=2, dt=0.02)
        st = init_perturbation(cfg)
        for _ in range(5):
            step_imex(st)
        box = st.vhat[st.box]
        rhs = on_full(st, explicit_rhs(st, box, np.empty_like(box))) - cfg.nu * st.k2 * st.vhat
        dedt = st.inner(rhs, st.vhat)
        visc = viscous_rate(st)
        v2 = st.vhat[1][st.box]
        cosv2 = on_full(st, (shifted_ky(v2, 1) + shifted_ky(v2, -1)) / 2.0)
        lift = cfg.gamma / (cfg.nu * cfg.k_f)
        cross = -lift * st.inner(cosv2, st.vhat[0])
        assert dedt == pytest.approx(visc + cross, rel=1e-10)

    def test_blowup_detection(self):
        cfg = base_config(epsilon=0.05, dt=0.02)
        st = init_perturbation(cfg)
        st.vhat *= 1e150  # force overflow through the quadratic term
        with pytest.raises(FloatingPointError), np.errstate(all="ignore"):
            for _ in range(50):
                step_imex(st)


class TestLinearCrossCheck:
    """With `nonlinear=False` each (kx, kz) block of the DNS evolves the
    paper's linear mode system on its own: f = Lap v2 = -|k|^2 v2 and
    g = omega2 = i(kz v1 - kx v3) on the y wavenumbers the 2/3-rule box
    keeps. The exact solution is expm(t G) of the block generator
    G = [[-A_L, 0], [C, -A_H]] of `evolution.coupled_generators`, restricted
    to those wavenumbers. The DNS builds its background terms from the
    shear alone, so matching G also checks the Helmholtz symbol of ModeL
    and of the coupling C. The remaining error is the IF-RK3 time error,
    third order in dt."""

    NU = GAMMA = 0.05
    K_F = 0.5
    N = (8, 48, 8)
    KX, KZ = 1, 1

    def exact_generator(self, keep_y):
        with pytest.warns(UserWarning, match="nu\\^2"):
            params = ModeParams(nu=self.NU, gamma=self.GAMMA, k_f=self.K_F,
                                k1=self.KX, k3=self.KZ)
        grid = build_grid(32, params)
        keep = np.abs(grid.wavenumbers) < keep_y
        a_l, a_h, coupling = coupled_generators(params, grid)
        sub = np.ix_(keep, keep)
        zero = np.zeros_like(a_l[sub])
        return np.block([[-a_l[sub], zero], [coupling[sub], -a_h[sub]]]), grid.wavenumbers[keep]

    def block(self, st, iy):
        """(f, g) of the (KX, KZ) block on the y wavenumbers iy."""
        v = st.vhat[:, self.KX, iy % self.N[1], self.KZ]
        k2 = st.k2[self.KX, iy % self.N[1], self.KZ]
        return np.concatenate([-k2 * v[1], 1j * (self.KZ * v[0] - self.KX * v[2])])

    def test_dns_block_matches_the_exact_mode_propagator(self):
        ny = self.N[1]
        gen, iy = self.exact_generator(keep_y=ny / 3.0)
        errs = []
        for dt in (0.0125, 0.00625, 0.003125):
            cfg = base_config(nu=self.NU, gamma=self.GAMMA, k_f=self.K_F, n=self.N,
                              epsilon=0.05, seed=2, dt=dt, t_end=1.0, nonlinear=False)
            st = init_perturbation(cfg)
            x0 = self.block(st, iy)
            assert np.linalg.norm(x0) > 0
            for _ in range(round(1.0 / dt)):
                step_imex(st)
            assert st.t == pytest.approx(1.0, abs=1e-12)
            want = expm(st.t * gen) @ x0
            errs.append(np.linalg.norm(self.block(st, iy) - want) / np.linalg.norm(want))
        assert errs[0] / errs[1] >= 7.0 and errs[1] / errs[2] >= 7.0, errs
        assert errs[2] < 1e-6, errs


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

    def test_threshold_map_reports_bracketing(self):
        tmap = ThresholdMap(rows=[
            {"nu": 0.02, "gamma": 0.02, "epsilon": 1e-3, "seed": 0, "outcome": "decayed",
             "rate_neq": 0.1, "m0": 1.0, "m1": 1.0, "resolved": True},
            {"nu": 0.02, "gamma": 0.02, "epsilon": 1e-1, "seed": 0, "outcome": "persisted",
             "rate_neq": 0.0, "m0": 1.0, "m1": 1.0, "resolved": True},
            {"nu": 0.05, "gamma": 0.05, "epsilon": 1e-3, "seed": 0, "outcome": "decayed",
             "rate_neq": 0.1, "m0": 1.0, "m1": 1.0, "resolved": True},
            {"nu": 0.05, "gamma": 0.05, "epsilon": 1e-1, "seed": 0, "outcome": "decayed",
             "rate_neq": 0.1, "m0": 1.0, "m1": 1.0, "resolved": True},
        ])
        assert tmap.bracketed(0.02)
        assert not tmap.bracketed(0.05)  # every cell decayed: eps_star is a lower bound
        record = tmap.as_record()
        assert record["bracketed"] == {0.02: True, 0.05: False}
        assert record["monotone_in_nu"] is True

    def test_zero_epsilon_row_trivially_decays(self):
        tmap = run_threshold_sweep([0.05], [0.0],
                                   {"k_f": 0.5, "n": (16, 16, 16), "t_end": 2.0})
        assert tmap.rows[0]["outcome"] == "decayed"
