"""sigma_min paths, Psi scans, pseudospectrum fields and bound sweeps."""

import warnings

import numpy as np
import pytest

from kolmoflow.spectral import (
    ConfigurationError,
    ModeParams,
    StarMetric,
    assemble_L_lambda,
    assemble_mode_operators,
    assemble_N_lambda,
    build_grid,
)
from band_oracle import band_of
import kolmoflow.pseudospectra as ps
from kolmoflow.pseudospectra import (
    EmpiricalConstants,
    PSI_REFINE_RTOL,
    _column_norm_bound,
    _golden_refine,
    _norm_bound,
    compute_psi,
    pseudospectrum_grid,
    psi_bound_sweep,
    psi_for_params,
    psi_grid,
    psi_half_width,
    psi_operator,
    resolvent_bound_sweep,
    smallest_singular_value,
)


def diag_op(*values):
    return band_of(np.diag(np.asarray(values, dtype=complex)))


def n_lambda_cell(nu, alpha, n, lam):
    p = ModeParams(nu=nu, gamma=max(abs(alpha), 1.0), k_f=1.0, k1=1, k3=0)
    return assemble_N_lambda(p, lam, build_grid(n, p, alpha=alpha), alpha=alpha)


def dense_sigma_min(op):
    return np.linalg.svd(op.dense(), compute_uv=False)[-1]


def mode_params(which):
    """The parameters of the criterion-3 case of `which`."""
    return (ModeParams(nu=0.01, gamma=0.4, k_f=0.5, k1=1, k3=1) if which == "L" else
            ModeParams(nu=0.01, gamma=0.4, k_f=1.0, k1=1, k3=0))


def mode_psi_case(which, n):
    """(operator, half-width, metric) of one psi_for_params case at n."""
    p = mode_params(which)
    op, metric = psi_operator(p, which, n)
    return op, psi_half_width(p), metric


def full_grid_psi(op, half_width, scan_count, metric=None):
    """The Psi scan before it used evenness: the metric applied at every
    point, every grid and refinement point its own SVD, every interior
    minimum refined. Returns (psi, lam_star, width, lam_grid, sigma_grid)."""
    lam_grid = np.linspace(-half_width, half_width, scan_count)
    sig = np.array([smallest_singular_value(op, lam, metric) for lam in lam_grid])
    best_lam, best_sig = lam_grid[np.argmin(sig)], sig.min()
    width = np.diff(lam_grid).max()
    for i in range(1, len(lam_grid) - 1):
        if sig[i] <= sig[i - 1] and sig[i] <= sig[i + 1]:
            lam, s, width_i = _golden_refine(
                lambda x: smallest_singular_value(op, x, metric),
                lam_grid[i - 1], lam_grid[i + 1], PSI_REFINE_RTOL)
            if s < best_sig:
                best_sig, best_lam = s, lam
                width = width_i
    return float(best_sig), float(best_lam), float(width), lam_grid, sig


@pytest.fixture
def sigma_calls(monkeypatch):
    """(lam, sigma) of every smallest_singular_value call compute_psi makes."""
    calls = []
    inner = ps.smallest_singular_value

    def recording(op, lam=0.0, *args, **kwargs):
        sigma = inner(op, lam, *args, **kwargs)
        calls.append((lam, sigma))
        return sigma

    monkeypatch.setattr(ps, "smallest_singular_value", recording)
    return calls


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

    def test_clustered_cell_at_lambda_above_one(self):
        # |lambda| > 1 clusters the bottom singular values
        op = n_lambda_cell(1e-3, 100.0, 1024, 1.5)
        dense = dense_sigma_min(op)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigma = smallest_singular_value(op)
        assert abs(sigma - dense) / dense <= 1e-12

    def test_jordan_wielandt_star_metric_l_lambda(self):
        p = ModeParams(nu=1e-2, gamma=100.0, k_f=1.0, k1=1, k3=0)
        grid = build_grid(128, p, alpha=100.0)
        metric = StarMetric.for_beta(2.0, grid)
        for lam in (0.0, 0.75, 1.5):
            op = assemble_L_lambda(p, lam, grid, alpha=100.0, beta=2.0)
            m = metric.transform(op)
            dense = dense_sigma_min(m)
            assert abs(smallest_singular_value(m, method="banded") - dense) / dense <= 1e-12

    @pytest.mark.parametrize("method", ["lanczos", "Dense"])
    def test_unknown_method_rejected(self, method):
        with pytest.raises(ConfigurationError, match="method"):
            smallest_singular_value(diag_op(1, 2), method=method)

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


def upper_band_op(n=7, seed=3):
    """A non-symmetric Generic band: diagonals 0, 1, 2 only, so its rows
    and columns have different sums and norms."""
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n), dtype=complex)
    for k in (0, 1, 2):
        v = rng.standard_normal(n - k) + 1j * rng.standard_normal(n - k)
        a += np.diag(v * (k + 1), k)
    return band_of(a)


def star_mode_l(lam=0.3):
    """A ModeL shifted by i*lam and star-scaled W^(1/2) A W^(-1/2)."""
    op, _, metric = mode_psi_case("L", 64)
    return metric.transform(op.shifted(lam))


class TestNormBounds:
    """The bounds read off the band storage against dense oracles."""

    @pytest.mark.parametrize("make_op", [upper_band_op, star_mode_l])
    def test_norm_bound_is_sqrt_of_one_and_inf_norms(self, make_op):
        op = make_op()
        a = op.dense()
        want = np.sqrt(np.linalg.norm(a, 1) * np.linalg.norm(a, np.inf))
        assert _norm_bound(op) == pytest.approx(want, rel=1e-14)
        assert _norm_bound(op) >= np.linalg.norm(a, 2) * (1 - 1e-14)

    @pytest.mark.parametrize("make_op", [upper_band_op, star_mode_l])
    @pytest.mark.parametrize("lam", [0.0, -0.7, 2.5])
    def test_column_norm_bound_is_smallest_shifted_column(self, make_op, lam):
        op = make_op()
        shifted = op.dense() - 1j * lam * np.eye(op.n)
        want = np.linalg.norm(shifted, axis=0).min()
        assert _column_norm_bound(op, lam) == pytest.approx(want, rel=1e-14)
        assert dense_sigma_min(op.shifted(lam)) <= want * (1 + 1e-14)

    def test_jordan_wielandt_on_upper_band(self):
        op = upper_band_op(n=12)
        for lam in (0.0, 1.3):
            m = op.shifted(lam)
            dense = dense_sigma_min(m)
            assert abs(smallest_singular_value(m, method="banded") - dense) / dense <= 1e-12


def block_pairs_op(pairs, seed):
    """Block-diagonal band (b = 1) of 2x2 blocks U diag(p, q) V^* with random
    unitary U and V, so its singular values are the given pairs."""
    rng = np.random.default_rng(seed)
    a = np.zeros((2 * len(pairs), 2 * len(pairs)), dtype=complex)
    for i, pair in enumerate(pairs):
        u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        v, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        a[2 * i:2 * i + 2, 2 * i:2 * i + 2] = u @ np.diag(pair) @ v.conj().T
    return band_of(a)


def spread_pairs(head, seed, n_blocks=64):
    """The pairs `head` among blocks with singular values in [5, 10], shuffled."""
    rng = np.random.default_rng(100 + seed)
    pairs = list(head) + [tuple(r) for r in rng.uniform(5.0, 10.0, (n_blocks - len(head), 2))]
    return [pairs[i] for i in rng.permutation(len(pairs))]


def assert_banded_matches_dense(op, rtol=1e-12):
    dense = dense_sigma_min(op)
    assert abs(smallest_singular_value(op, method="banded") - dense) <= rtol * dense


class TestSigmaMinKernel:
    """The O(n) kernel against dense SVD where its block polish, its choice
    of Ritz value and its bisection floor decide the answer."""

    def test_near_degenerate_mode_h_pair(self):
        # the bottom pair is 5.4e-10 apart; a single polish vector settles
        # between the two
        p = ModeParams(nu=0.01, gamma=0.4, k_f=0.5, k1=1, k3=1)
        grid = build_grid(256, p, alpha=p.k1 * p.gamma / p.k_f**4)
        _, mode_h = assemble_mode_operators(p, grid)
        op = mode_h.shifted(0.3)
        sv = np.linalg.svd(op.dense(), compute_uv=False)
        assert sv[-2] / sv[-1] - 1.0 < 1e-8
        assert_banded_matches_dense(op)

    @pytest.mark.parametrize("seed", range(4))
    def test_constructed_pair_1e10_apart(self, seed):
        assert_banded_matches_dense(block_pairs_op(spread_pairs([(1.0, 1.0 + 1e-10)], seed), seed))

    @pytest.mark.parametrize("seed", range(6))
    def test_ritz_values_outside_the_bracket_rejected(self, seed):
        # -sigma_1 and the singular values 3 and 3(1 + 1e-6) all lie 2 from
        # the shift 1: three eigenvalues of B share the two other block
        # vectors, whose Ritz values then mix -sigma_1 with 3 and can fall
        # below sigma_1 in modulus
        head = [(1.0, 3.0), (3.0 * (1.0 + 1e-6), 7.0)]
        assert_banded_matches_dense(block_pairs_op(spread_pairs(head, seed), seed))

    def test_exactly_singular(self, monkeypatch):
        assert smallest_singular_value(diag_op(0, 1, 2), method="banded") == 0.0
        # a rank-one 2x2 block and no zero column: the bisection runs down to
        # its eps*||M|| floor
        a = np.diag(np.arange(1.0, 101.0)).astype(complex)
        a[:2, :2] = 1.0
        op = band_of(a)
        steps = []
        zpbtrf = ps.lapack.zpbtrf
        monkeypatch.setattr(ps.lapack, "zpbtrf",
                            lambda *args, **kw: steps.append(1) or zpbtrf(*args, **kw))
        eps = np.finfo(float).eps
        assert 0.0 <= smallest_singular_value(op, method="banded") <= 4 * eps * _norm_bound(op)
        assert 0 < len(steps) <= np.log2(1.0 / (ps._BRACKET_RTOL * eps))

    def test_polish_start_is_drawn_once_per_n(self):
        # the seeded draw each call used to make, kept read-only and shared
        rng = np.random.default_rng(0x5EED)
        fresh = rng.standard_normal((256, 3)) + 1j * rng.standard_normal((256, 3))
        block = ps._polish_start(128)
        assert ps._polish_start(128) is block and np.array_equal(block, fresh)
        assert ps._polish_start(64).shape == (128, 3)
        with pytest.raises(ValueError):
            block[0, 0] = 0.0

    @pytest.mark.parametrize("lam", [0.0, 0.8, -1.7])
    def test_complex_generic_band(self, lam):
        rng = np.random.default_rng(7)
        a = sum(np.diag(rng.standard_normal(200 - abs(k)) + 1j * rng.standard_normal(200 - abs(k)), k)
                for k in range(-2, 3))
        assert_banded_matches_dense(band_of(a).shifted(lam))

    def test_pseudospectrum_grid_complex_shifts(self):
        # around the ModeH eigenvalue 0.316 - 39.68i, at n = 128 > DENSE_SVD_MAX
        p = ModeParams(nu=0.01, gamma=0.4, k_f=1.0, k1=1, k3=0)
        _, mode_h = assemble_mode_operators(p, build_grid(128, p, alpha=0.4))
        field = pseudospectrum_grid(mode_h, (0.0, 1.0, -40.0, -38.5), (8, 8))
        want = np.array([[dense_sigma_min(mode_h.shifted(y - 1j * x)) for x in field.re]
                         for y in field.im])
        assert np.all(np.abs(field.sigma - want) <= 1e-12 * want)


class TestComputePsi:
    def test_normal_diag(self):
        res = compute_psi(diag_op(2, 5), 3.0, 64)
        assert res.psi == pytest.approx(2.0, rel=1e-6)
        assert res.lam_star == pytest.approx(0.0, abs=1e-3)
        assert res.lam_star <= 0.0
        assert res.converged

    def test_boundary_flagged(self):
        # eigenvalues 1 +- 10i: over [-3, 3] sigma_min falls towards lam = +-10,
        # so the minimum sits at the scan boundary
        op = band_of(np.array([[1.0, 10.0], [-10.0, 1.0]]))
        res = compute_psi(op, 3.0, 16)
        assert abs(res.lam_star) == 3.0
        assert not res.converged
        assert any("boundary" in f for f in res.flags)

    def test_scan_resolution_self_consistency(self):
        p = ModeParams(nu=0.01, gamma=0.4, k_f=1.0, k1=1, k3=0)
        grid = build_grid(256, p, alpha=p.k1 * p.gamma / p.k_f**4)
        _, mode_h = assemble_mode_operators(p, grid)
        r1 = compute_psi(mode_h, psi_half_width(p), 96)
        r2 = compute_psi(mode_h, psi_half_width(p), 144)
        assert abs(r1.psi - r2.psi) / r1.psi <= 0.01

    def test_determinism(self):
        p = ModeParams(nu=0.01, gamma=0.4, k_f=1.0, k1=1, k3=0)
        grid = build_grid(128, p, alpha=0.4)
        _, mode_h = assemble_mode_operators(p, grid)
        a = compute_psi(mode_h, psi_half_width(p), 48)
        b = compute_psi(mode_h, psi_half_width(p), 48)
        assert a.psi == b.psi and a.lam_star == b.lam_star
        assert np.array_equal(a.sigma_grid, b.sigma_grid)

    def test_psi_below_spectral_abscissa(self):
        # Psi lower-bounds Re(eig) for accretive operators: at lam = Im(eig)
        # the shifted operator A - i lam has the eigenvalue Re(eig), so
        # sigma_min there is at most Re(eig), for every eigenvalue the scan covers
        p = ModeParams(nu=0.02, gamma=0.3, k_f=0.5, k1=1, k3=0)
        grid = build_grid(128, p)
        _, mode_h = assemble_mode_operators(p, grid)
        eigs = np.linalg.eigvals(mode_h.dense())
        inside = eigs[np.abs(eigs.imag) <= psi_half_width(p)]
        assert inside.size and np.all(inside.real > 0)
        for eig in inside:
            assert smallest_singular_value(mode_h, eig.imag) <= eig.real * (1 + 1e-9)

    @pytest.mark.parametrize("which", ["H", "L", "Q1L"])
    def test_matches_full_grid_scan(self, which):
        op, half, metric = mode_psi_case(which, 64)
        res = compute_psi(op, half, 64, metric)
        psi, lam_star, width, lam_grid, _ = full_grid_psi(op, half, 64, metric)
        assert abs(res.psi - psi) <= 1e-12 * psi
        assert abs(abs(res.lam_star) - abs(lam_star)) <= max(res.scan_error, width)
        assert np.abs(res.lam_grid - lam_grid).max() <= np.spacing(half)
        assert res.lam_star <= 0.0
        record = res.as_record()
        assert record["sigma_evals"] == res.sigma_evals > 0

    @pytest.mark.xfail(strict=True, reason=(
        "the coarse scan misses the narrow dip of sigma_min near lam = -141.58 "
        "(ROADMAP Defects); the certified level-set minimum of direction 4 fixes it"))
    def test_finds_the_star_model_dip(self):
        # criterion 3's star ModeL case at n = 64 (dense SVD): the scan reads
        # Psi 0.7845 at lam -155.62, while sigma_min at lam = -141.578 is 0.7299
        p = mode_params("L")
        res = psi_for_params(p, "L", n=64, scan_count=96)
        op, metric = psi_operator(p, "L", 64)
        assert res.psi <= smallest_singular_value(op, -141.578, metric) * (1 + 1e-9)

    @pytest.mark.xfail(strict=True, reason=(
        "at nu = 1e-4 the coarse scan misses the dip of sigma_min near lam = 3999.674 "
        "(ROADMAP Defects, row 1); the certified minimum of direction 4 fixes it"))
    def test_finds_the_small_nu_mode_h_dip(self):
        # the 96-point scan reads Psi 0.48077; sigma_min at lam = 3999.674 is 0.275861
        p = ModeParams(nu=1e-4, gamma=0.4, k_f=1.0, k1=1, k3=0)
        res = psi_for_params(p, "H", n=1024, scan_count=96)
        op, _ = psi_operator(p, "H", 1024)
        assert res.psi <= (1 + 1e-6) * smallest_singular_value(op, 3999.674)

    def test_sqrt_gamma_scaling(self):
        psi_lo = psi_for_params(
            ModeParams(nu=0.01, gamma=0.1, k_f=1.0, k1=1, k3=0), "H", n=128).psi
        psi_hi = psi_for_params(
            ModeParams(nu=0.01, gamma=0.4, k_f=1.0, k1=1, k3=0), "H", n=128).psi
        assert psi_hi / psi_lo == pytest.approx(2.0, rel=0.15)


class TestPsiOperator:
    @pytest.mark.parametrize("which", ["H", "L", "Q1L"])
    def test_is_the_hand_built_gearhart_pruss_case(self, which):
        # criterion 3 used to assemble its operators and metrics itself
        p = mode_params(which)
        grid = build_grid(256, p, alpha=p.k1 * p.gamma / p.k_f**4)
        mode_l, mode_h = assemble_mode_operators(p, grid)
        if which == "H":
            want_op, want_weights = mode_h, None
        elif which == "L":
            want_op, want_weights = mode_l, StarMetric.for_beta(p.beta, grid).weights
        else:
            star = StarMetric.for_alpha1(grid)
            want_op = mode_l.restricted(grid.wavenumbers != 0)
            want_weights = star.weights[star.keep]
        op, metric = psi_operator(p, which, n=256)
        assert np.array_equal(op.ab, want_op.ab)
        if want_weights is None:
            assert metric is None
        else:
            assert metric.keep is None
            assert np.array_equal(metric.weights, want_weights)

    @pytest.mark.parametrize("n", [64, 128])
    def test_q1l_psi_is_the_keep_metric_scan_bit_for_bit(self, n):
        p = mode_params("Q1L")
        grid = psi_grid(p, n)
        mode_l, _ = assemble_mode_operators(p, grid)
        want = compute_psi(mode_l, psi_half_width(p), 96, StarMetric.for_alpha1(grid))
        got = psi_for_params(p, "Q1L", n=n, scan_count=96)
        assert (got.psi, got.lam_star, got.scan_error, got.sigma_evals) == (
            want.psi, want.lam_star, want.scan_error, want.sigma_evals)
        assert np.array_equal(got.sigma_grid, want.sigma_grid)
        assert np.array_equal(got.lam_grid, want.lam_grid)

    def test_selector_errors(self):
        with pytest.raises(ConfigurationError, match="selector"):
            psi_operator(mode_params("H"), "Q1H", n=64)
        with pytest.raises(ConfigurationError, match="Q1L"):
            psi_operator(mode_params("L"), "Q1L", n=64)


class TestPsiScanEvenness:
    @pytest.mark.parametrize("which, scan_count", [("H", 48), ("Q1L", 49)])
    def test_real_operator_one_svd_per_abs_lambda(self, sigma_calls, which, scan_count):
        op, half, metric = mode_psi_case(which, 64)
        res = compute_psi(op, half, scan_count, metric)
        assert np.array_equal(res.lam_grid, -res.lam_grid[::-1])
        assert np.array_equal(res.sigma_grid, res.sigma_grid[::-1])
        sigma_at = dict(sigma_calls)
        assert min(sigma_at) >= 0.0
        assert len(sigma_calls) == len(sigma_at) == res.sigma_evals
        # replay the refinements of the lam <= 0 minima on the values the
        # scan computed; refining their mirrors must add no call
        g, sig = res.lam_grid, res.sigma_grid
        one_side = 0
        for i in range(1, len(g) - 1):
            if g[i] <= 0.0 and sig[i] <= sig[i - 1] and sig[i] <= sig[i + 1]:
                seen = []
                _golden_refine(lambda x: seen.append(x) or sigma_at[abs(x)],
                               g[i - 1], g[i + 1], PSI_REFINE_RTOL)
                one_side += len(seen)
        assert len(sigma_calls) <= scan_count // 2 + 1 + one_side
        assert res.lam_star <= 0.0

    def test_lam_star_is_first_of_mirrored_pair(self):
        # eigenvalues 1 +- 0.02i: the odd grid's minimum sits at lam = 0, and
        # the golden search on [-h, h] starts on a tie and walks to +0.02
        op = band_of(np.array([[1.0, 0.02], [-0.02, 1.0]], dtype=complex))
        res = compute_psi(op, 3.0, 65)
        assert res.psi == pytest.approx(1.0, rel=1e-8)
        assert res.lam_star == pytest.approx(-0.02, abs=1e-3)

    def test_complex_operator_refused(self, sigma_calls):
        # sigma_min of a complex operator is not even in lam; N_lambda at a
        # nonzero shift carries the shift on its diagonal
        op = n_lambda_cell(1e-2, 10.0, 64, 0.5)
        with pytest.raises(ConfigurationError, match="real operator"):
            compute_psi(op, 2.0, 48)
        assert sigma_calls == []

    @pytest.mark.parametrize("half_width, scan_count", [(0.0, 48), (-1.0, 48), (2.0, 15)])
    def test_scan_shape_checked(self, half_width, scan_count):
        with pytest.raises(ConfigurationError):
            compute_psi(diag_op(1, 2), half_width, scan_count)


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
        jordan = band_of(np.array([[0, 1], [0, 0]], dtype=complex))
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

    def test_rows_at_lambda_above_one(self):
        # nu = 1e-3, alpha = 100 picks n = 1024
        c_hat, rows = resolvent_bound_sweep(
            "Nlambda", nus=[1e-3], alphas=[100.0], lams=[0.0, 1.5])
        assert [r["n"] for r in rows] == [1024, 1024]
        assert not any("fallback" in r for r in rows)
        assert [r["flag"] for r in rows] == ["", ""]
        assert c_hat.value == min(r["ratio"] for r in rows)

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
        c_hat, rows = psi_bound_sweep(sweep, which="H", scan_count=96)
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
