"""Operator assembly: collocation oracles, band structure, accretivity;
the package's one worker pool."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import kolmoflow

from kolmoflow.spectral import (
    TWO_PI,
    ConfigurationError,
    FourierGrid,
    ModeParams,
    OperatorMatrix,
    ResolventQuery,
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
)

RNG = np.random.default_rng(20260809)


def params_for(nu=0.01, gamma=0.4, k_f=1.0, k1=1, k3=0):
    return ModeParams(nu=nu, gamma=gamma, k_f=k_f, k1=k1, k3=k3)


def query_for(params, lam):
    """The u-form resolvent query at lam: beta_tilde = sqrt(beta^2 - 1)."""
    return ResolventQuery(lam=lam, beta_tilde=np.sqrt(params.beta**2 - 1.0))


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

def collocation_apply(kind, grid, params, lam=None, query=None, u_form=False,
                      nu=None, beta=None):
    """Pointwise physical-space evaluation of each operator on coefficients."""
    y = grid.y
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
            phi = grid.to_grid(-c / (query.beta_tilde**2 + n**2))
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
    q = query_for(p, lam)
    cases = [
        (assemble_N_lambda(p, lam, grid), collocation_apply("Nlambda", grid, p, lam=lam)),
        (assemble_L_lambda(p, q, grid), collocation_apply("Llambda", grid, p, lam=lam)),
        (assemble_L_lambda(p, q, grid, u_form=True),
         collocation_apply("Llambda", grid, p, lam=lam, query=q, u_form=True)),
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
    q = query_for(p, 0.2)
    ml, mh = assemble_mode_operators(p, grid)
    ops = [
        assemble_N_lambda(p, 0.2, grid),
        assemble_L_lambda(p, q, grid),
        assemble_L_lambda(p, q, grid, u_form=True),
        ml, mh,
        assemble_L1(0.01, 0.3, grid),
        helmholtz_inverse(p.beta, grid),
    ]
    for op in ops:
        assert op.bandwidth <= 2
        dense = op.dense()
        for k in range(3, grid.n):
            assert not np.any(np.diagonal(dense, offset=k))
            assert not np.any(np.diagonal(dense, offset=-k))


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
        op = assemble_L_lambda(p, ResolventQuery(lam=lam, beta_tilde=1.0), grid, beta=1.0)
        c = np.zeros(32, dtype=complex)
        c[grid.wavenumbers == 0] = 1.0
        out = op.matvec(c)
        want = -1j * p.alpha * lam / p.nu * c
        assert np.allclose(out, want, rtol=1e-13, atol=1e-13)

    def test_helmholtz_diagonal_rule(self):
        p = params_for(k_f=0.5, k1=1, k3=1)
        grid = build_grid(32, p)
        hinv = helmholtz_inverse(p.beta, grid)
        for n_mode in (-5, 0, 3):
            c = np.zeros(32, dtype=complex)
            c[grid.wavenumbers == n_mode] = 1.0
            # phi = (d^2-beta^2)^(-1) e^{iny} = -e^{iny}/(beta^2+n^2)
            phi = -hinv.matvec(c)
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
        want = -nu - (1j * beta / nu) * np.sin(grid.y)
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
        siny = to_coeffs(grid, np.sin(grid.y))
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
    assert sub.bandwidth <= 2
    dense = op.dense()
    assert np.allclose(sub.dense(), dense[np.ix_(keep, keep)])


def test_operator_matrix_restriction_matches_dense_round_trip():
    p = params_for()
    grid = build_grid(64, p)
    op, _ = assemble_mode_operators(p, grid)
    op = op.shifted(0.4)
    for keep in (StarMetric.for_alpha1(grid).keep, RNG.random(64) < 0.6):
        want = OperatorMatrix.from_dense(op.dense()[np.ix_(keep, keep)])
        got = op.restricted(keep)
        assert list(got.diags) == list(want.diags)
        assert all(np.array_equal(got.diags[k], want.diags[k]) for k in want.diags)


def test_operator_matrix_block_matvec():
    p = params_for(k_f=0.5, k1=1, k3=1)
    grid = build_grid(32, p)
    op = assemble_L_lambda(p, query_for(p, 0.3), grid)
    block = RNG.standard_normal((32, 3)) + 1j * RNG.standard_normal((32, 3))
    by_column = np.column_stack([op.matvec(block[:, j]) for j in range(3)])
    assert np.array_equal(op.matvec(block), by_column)


def test_operator_matrix_band_layout():
    # offsets -1 .. 2: half-bandwidth 2 with an all-zero offset -2 row
    a = sum(np.diag(RNG.standard_normal(9 - abs(k)) + 1j * RNG.standard_normal(9 - abs(k)), k)
            for k in (-1, 0, 1, 2))
    op = OperatorMatrix.from_dense(a)
    assert op.ab.shape == (5, 9) and (op.b, op.n, op.bandwidth) == (2, 9, 2)
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
