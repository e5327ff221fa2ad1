import numpy as np
import pytest

from ttkrylov.precond import (
    ExpSumPreconditioner,
    expsum_coeffs,
    matrix_exp,
    mode_multiply,
    spectral_interval,
)
from ttkrylov.tt import (
    RoundSpec,
    ShapeMismatch,
    kron_sum_operator,
    tt_add,
    tt_matvec,
    tt_norm,
    tt_random,
    tt_scale,
    tt_to_dense,
)


def taylor_expm(m, tol=1e-16):
    # oracle: scale so ||M|| <= 1/4, Taylor to term cutoff, square back
    m = np.asarray(m, dtype=np.float64)
    k = max(0, int(np.ceil(np.log2(max(np.linalg.norm(m, 2), 1e-30) / 0.25))))
    ms = m / (2.0**k)
    out = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for j in range(1, 120):
        term = term @ ms / j
        out = out + term
        if np.linalg.norm(term) < tol:
            break
    for _ in range(k):
        out = out @ out
    return out


def laplacian(n):
    t = -2.0 * np.eye(n) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    return -t  # positive definite orientation


class TestMatrixExp:
    def test_zero(self):
        assert np.array_equal(matrix_exp(np.zeros((4, 4))), np.eye(4))

    def test_diagonal(self):
        a = np.array([0.3, -1.2, 2.0])
        got = matrix_exp(np.diag(a))
        assert np.allclose(got, np.diag(np.exp(a)), atol=1e-13)

    def test_taylor_oracle(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((8, 8))
        assert np.allclose(matrix_exp(m), taylor_expm(m), atol=1e-10 * np.linalg.norm(taylor_expm(m)))

    def test_non_square(self):
        with pytest.raises(ShapeMismatch):
            matrix_exp(np.zeros((2, 3)))

    def test_non_finite(self):
        with pytest.raises(ValueError):
            matrix_exp(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestExpsumCoeffs:
    def test_point_interval_high_zeta(self):
        alpha, beta, bound = expsum_coeffs(1.0, 1.0, 20)
        e = float(alpha @ np.exp(-beta * 1.0))
        assert abs(e - 1.0) <= 1e-8
        assert bound <= 1e-8

    def test_bound_is_measured(self):
        alpha, beta, bound = expsum_coeffs(0.5, 60.0, 12)
        z = np.logspace(np.log10(0.5), np.log10(60.0), 1000)
        err = np.max(np.abs(z * (np.exp(-np.outer(z, beta)) @ alpha) - 1.0))
        assert err <= bound + 1e-12

    def test_pde_like_interval_zeta17(self):
        # the regime used by the preconditioned convection-diffusion runs
        _, _, bound = expsum_coeffs(0.123, 840.0, 17)
        assert bound <= 1e-4

    def test_wide_interval_zeta33(self):
        _, _, bound = expsum_coeffs(4e-7, 40.0, 33)
        assert bound <= 1e-4

    def test_betas_positive(self):
        _, beta, _ = expsum_coeffs(0.2, 30.0, 9)
        assert np.all(beta > 0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            expsum_coeffs(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            expsum_coeffs(-1.0, 1.0, 5)


class TestSpectralInterval:
    def test_identity_factors(self):
        lo, hi = spectral_interval([np.eye(4)] * 3)
        assert np.isclose(lo, 3.0, rtol=1e-6)
        assert np.isclose(hi, 3.0, rtol=1e-12)

    def test_diagonal_d1(self):
        lo, hi = spectral_interval([np.diag([1.0, 2.0, 3.0])])
        assert lo <= 1.0 + 1e-6
        assert hi >= 3.0 - 1e-12

    def test_laplacian_containment(self):
        factors = [laplacian(8) for _ in range(3)]
        lo, hi = spectral_interval(factors)
        eigs = np.linalg.eigvalsh(laplacian(8))
        true_lo, true_hi = 3 * eigs.min(), 3 * eigs.max()
        assert lo <= true_lo + 1e-9
        assert hi >= true_hi - 1e-9


class TestModeMultiply:
    def test_identity(self):
        v = tt_random([3, 4, 3], [2, 2], seed=1)
        w = mode_multiply(v, [np.eye(3), np.eye(4), np.eye(3)])
        assert np.allclose(tt_to_dense(w), tt_to_dense(v), atol=1e-13)
        assert w.ranks == v.ranks

    def test_dense_oracle(self):
        rng = np.random.default_rng(2)
        mats = [rng.standard_normal((3, 3)), rng.standard_normal((4, 4))]
        v = tt_random([3, 4], [2], seed=3)
        got = tt_to_dense(mode_multiply(v, mats)).ravel()
        want = np.kron(mats[0], mats[1]) @ tt_to_dense(v).ravel()
        assert np.allclose(got, want, atol=1e-12)


class TestPreconditioner:
    def test_identity_when_beta_zero(self):
        factors = [laplacian(4)] * 2
        p = ExpSumPreconditioner(factors, [1.0], [0.0], RoundSpec(1e-14))
        v = tt_random([4, 4], [2], seed=4)
        w = p.apply_inverse(v)
        assert np.allclose(tt_to_dense(w), tt_to_dense(v), atol=1e-12)

    def test_approximate_inverse_spd(self):
        factors = [laplacian(6) for _ in range(3)]
        p = ExpSumPreconditioner.from_kron_sum(factors, 24, RoundSpec(1e-12))
        q = kron_sum_operator(factors)
        for seed in (5, 6):
            x = tt_random([6, 6, 6], [2, 2], seed=seed)
            x = tt_scale(x, 1.0 / tt_norm(x))
            qx = tt_matvec(q, x)
            got = p.apply_inverse(qx)
            err = tt_norm(tt_add(got, tt_scale(x, -1.0)))
            assert err <= 10 * p.quad_bound + 1e-12

    def test_rank_law(self):
        factors = [laplacian(4)] * 3
        p = ExpSumPreconditioner.from_kron_sum(factors, 5, RoundSpec(1e-10))
        v = tt_random([4, 4, 4], [2, 2], seed=7)
        terms = [mode_multiply(v, e) for e in p.exps]
        assert len(terms) == 5
        for t in terms:
            assert t.ranks == v.ranks
        acc = terms[0]
        for t in terms[1:]:
            acc = tt_add(acc, t)
        assert acc.ranks == (1, 10, 10, 1)  # exactly zeta * input ranks

    def test_linearity(self):
        factors = [laplacian(4)] * 2
        p = ExpSumPreconditioner.from_kron_sum(factors, 8, RoundSpec(1e-12))
        a = tt_random([4, 4], [2], seed=8)
        b = tt_random([4, 4], [1], seed=9)
        lhs = p.apply_inverse(tt_add(tt_scale(a, 2.0), tt_scale(b, -3.0)))
        rhs = tt_add(tt_scale(p.apply_inverse(a), 2.0), tt_scale(p.apply_inverse(b), -3.0))
        # intermediate rounded additions admit error ~ zeta * rel_tol * term scale
        gap = tt_norm(tt_add(lhs, tt_scale(rhs, -1.0)))
        assert gap <= 1e-6 * max(tt_norm(lhs), 1.0)

    def test_only_sequential_accumulation(self):
        with pytest.raises(ValueError, match="accumulate"):
            ExpSumPreconditioner.from_kron_sum([laplacian(3)] * 2, 2, RoundSpec(1e-8),
                                               accumulate="stream")

    def test_dim_mismatch(self):
        p = ExpSumPreconditioner([np.eye(3)], [1.0], [1.0], RoundSpec(0.0))
        with pytest.raises(ShapeMismatch):
            p.apply_inverse(tt_random([4], [], seed=11))
