import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linprog

import ttkrylov as ttk
from ttkrylov import precond
from ttkrylov.precond import (
    ExpSumPreconditioner,
    _exchange_weights,
    _scaled_basis,
    _window_weights,
    expsum_coeffs,
    matrix_exp,
    mode_multiply,
    spectral_interval,
)
from ttkrylov import streaming
from ttkrylov.streaming import (
    LADDER_OVERSAMPLING,
    LADDER_START,
    SUM_PINV_RCOND,
    StreamFrame,
    stream_recover,
    stream_sketch,
)
from ttkrylov.tt import (
    NonFiniteCore,
    RoundedSum,
    RoundSpec,
    ShapeMismatch,
    attainable_ranks,
    kron_sum_operator,
    tt_add,
    tt_matvec,
    tt_norm,
    tt_random,
    tt_round,
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


# Bounds of the fit when every window's weights came from a linear program
# (HiGHS), before the Remez exchange; no interval may get worse than these
LP_SEARCH_BOUNDS = {
    (1.0, 1.0, 20): 1.5537400255e-09,
    (0.5, 60.0, 12): 9.8605212356e-06,
    (0.123, 840.0, 17): 1.7333486083e-05,
    (4e-7, 40.0, 33): 6.9668214321e-06,
    (0.2, 30.0, 9): 1.7015273634e-04,
}


def fit_pinned(lo, hi, zeta):
    alpha, beta, bound = expsum_coeffs(lo, hi, zeta)
    assert bound <= LP_SEARCH_BOUNDS[lo, hi, zeta] * (1 + 1e-6)
    return alpha, beta, bound


def lp_oracle(bs):
    """min t s.t. |bs @ a - 1| <= t, a >= 0, at tight solver tolerances."""
    npts, m = bs.shape
    cost = np.zeros(m + 1)
    cost[-1] = 1.0
    a_ub = np.block([[bs, -np.ones((npts, 1))], [-bs, -np.ones((npts, 1))]])
    b_ub = np.concatenate([np.ones(npts), -np.ones(npts)])
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0
    return res.x[:m], float(res.x[m])


def fit_grid(lo, hi, zeta):
    return np.logspace(np.log10(lo), np.log10(hi), max(1200, 20 * zeta))


def window_basis(lo, hi, zeta, u, v):
    """The scaled basis ``expsum_coeffs`` builds for the window (u, v)."""
    beta = np.geomspace(np.exp(u) / hi, np.exp(v) / lo, zeta)
    return _scaled_basis(fit_grid(lo, hi, zeta), beta)[0]


MARKOV4 = ttk.markov_factor_matrices(ttk.MarkovSpec(d=4, n=20, seed=0))
CD4 = ttk.cd_factor_matrices(ttk.ConvectionDiffusionSpec(d=4, n=34))


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

    def test_stack_equals_one_at_a_time(self):
        # the preconditioner's stacks: -beta_j A for a non-normal factor,
        # with and without squaring, and a diagonal matrix
        beta = np.geomspace(1e-2, 1e3, 7)
        stack = np.concatenate([-beta[:, None, None] * MARKOV4[0], np.diag([0.5, -2.0] * 10)[None]])
        got = matrix_exp(stack)
        assert got.shape == stack.shape
        for g, m in zip(got, stack):
            assert np.array_equal(g, matrix_exp(m))

    @pytest.mark.parametrize("shape", [(3, 2, 3), (2, 2, 2, 2), (4,)])
    def test_non_square_stack(self, shape):
        with pytest.raises(ShapeMismatch):
            matrix_exp(np.zeros(shape))

    def test_non_finite_stack(self):
        stack = np.zeros((3, 2, 2))
        stack[2, 1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            matrix_exp(stack)


class TestScaledBasis:
    def test_equals_the_plain_formula(self):
        lo, hi = spectral_interval(MARKOV4)
        z = fit_grid(lo, hi, 9)
        beta = np.geomspace(np.exp(-1.5) / hi, np.exp(2.5) / lo, 9)
        assert np.max(np.outer(z, beta)) > 700  # the clip binds
        with np.errstate(under="ignore"):
            plain = z[:, None] * np.exp(-np.clip(np.outer(z, beta), 0, 700))
        bs, scale = _scaled_basis(z, beta)
        assert np.array_equal(scale, plain.max(axis=0))
        assert np.array_equal(bs, plain / plain.max(axis=0))
        assert bs.flags.c_contiguous


class TestExpsumCoeffs:
    def test_point_interval_high_zeta(self):
        alpha, beta, bound = fit_pinned(1.0, 1.0, 20)
        e = float(alpha @ np.exp(-beta * 1.0))
        assert abs(e - 1.0) <= 1e-8
        assert bound <= 1e-8

    def test_bound_is_measured(self):
        alpha, beta, bound = fit_pinned(0.5, 60.0, 12)
        z = np.logspace(np.log10(0.5), np.log10(60.0), 1000)
        err = np.max(np.abs(z * (np.exp(-np.outer(z, beta)) @ alpha) - 1.0))
        assert err <= bound + 1e-12

    def test_pde_like_interval_zeta17(self):
        # the regime used by the preconditioned convection-diffusion runs
        _, _, bound = fit_pinned(0.123, 840.0, 17)
        assert bound <= 1e-4

    def test_wide_interval_zeta33(self):
        _, _, bound = fit_pinned(4e-7, 40.0, 33)
        assert bound <= 1e-4

    def test_betas_positive(self):
        _, beta, _ = fit_pinned(0.2, 30.0, 9)
        assert np.all(beta > 0)

    @pytest.mark.parametrize(
        "factors, lp_bound, beta_ends",
        [
            (ttk.markov_factor_matrices(ttk.MarkovSpec(d=4, n=20, seed=0)), 9.8367790417e-02,
             (0.04973705835922108, 2234830.0910786605)),  # the LP search's window
            (ttk.cd_factor_matrices(ttk.ConvectionDiffusionSpec(d=4, n=34)), 7.3230856910e-04,
             None),
            (ttk.cd_factor_matrices(ttk.ConvectionDiffusionSpec(d=6, n=64)), 1.7285204456e-03,
             None),
        ],
        ids=["markov4", "cd4", "cd6"],
    )
    def test_benchmark_intervals(self, factors, lp_bound, beta_ends):
        _, beta, bound = expsum_coeffs(*spectral_interval(factors), 9)
        assert bound <= lp_bound * (1 + 1e-6)
        if beta_ends is not None:
            assert np.allclose(beta[[0, -1]], beta_ends, rtol=1e-12, atol=0)

    def test_spd_fit_steady_in_lo(self):
        # test_approximate_inverse_spd's interval at zeta 24 (lo 0.5941868),
        # with lo moved by up to 1e-5 relative: the fit does not jump
        bounds = [expsum_coeffs(lo, 12.0, 24)[2] for lo in (0.5941856, 0.59418, 0.5941868)]
        assert max(bounds) <= 1e-11
        assert max(bounds) <= 1.01 * min(bounds)

    def test_scale_invariance(self):
        _, beta, bound = expsum_coeffs(0.2, 30.0, 9)
        for c in (1e-3, 7.0, 1e4):
            _, beta_c, bound_c = expsum_coeffs(0.2 * c, 30.0 * c, 9)
            assert np.allclose(beta_c * c, beta, rtol=1e-12, atol=0)
            assert bound_c == pytest.approx(bound, rel=1e-8)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            expsum_coeffs(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            expsum_coeffs(-1.0, 1.0, 5)

    @pytest.mark.parametrize("lo, hi", [(np.nan, 1.0), (1.0, np.nan), (1.0, np.inf)])
    def test_non_finite_endpoint(self, lo, hi):
        with pytest.raises(ValueError, match="finite"):
            expsum_coeffs(lo, hi, 3)

    @pytest.mark.parametrize("zeta", [2.5, 3.0, "3", True])
    def test_non_integer_zeta(self, zeta):
        with pytest.raises(ValueError, match="integer"):
            expsum_coeffs(1.0, 2.0, zeta)


def plain_exchange(bs, best=np.inf):
    """``_exchange_weights`` written plainly, with ``np.linalg.solve`` and
    ``scipy.linalg.qr``: the same operations in the same order."""
    npts, m = bs.shape
    coarse = np.vstack([bs[::8].T, np.ones(len(bs[::8]))])
    ref = 8 * np.sort(scipy.linalg.qr(coarse, mode="r", pivoting=True)[1][: m + 1])
    mat = np.empty((m + 1, m + 1))
    mat[:, m] = (-1.0) ** np.arange(m + 1)
    h_prev = bound = 0.0
    a_best = err_best = None
    for _ in range(precond._EXCHANGE_STEPS * (m + 1)):
        mat[:, :m] = bs[ref]
        try:
            sol = np.linalg.solve(mat, np.ones(m + 1))
        except np.linalg.LinAlgError:
            break
        a, h = sol[:m], abs(sol[m])
        if not h >= h_prev * (1.0 - precond._EXCHANGE_TOL):
            break
        h_prev = h
        err = bs @ a - 1.0
        sgn = np.sign(err[ref])
        if np.all(sgn[1:] == -sgn[:-1]):
            bound = max(bound, float(np.min(np.abs(err[ref]))))
            if bound >= best:
                return None, None, bound
        i = int(np.argmax(np.abs(err)))
        if abs(err[i]) <= bound * (1.0 + precond._EXCHANGE_TOL):
            return a, float(abs(err[i])), bound
        if err_best is None or abs(err[i]) < err_best:
            a_best, err_best = a, float(abs(err[i]))
        k = int(np.searchsorted(ref, i))
        if k <= m and ref[k] == i:
            break
        s_i = np.sign(err[i])
        if k == 0 and sgn[0] != s_i:
            ref = np.concatenate([[i], ref[:-1]])
        elif k == m + 1 and sgn[m] != s_i:
            ref = np.concatenate([ref[1:], [i]])
        elif k == m + 1 or (k > 0 and sgn[k - 1] == s_i):
            ref[k - 1] = i
        else:
            ref[k] = i
    return a_best, err_best, bound


class TestExchange:
    """The Remez exchange against a linear program on single windows."""

    @pytest.mark.parametrize(
        "lo, hi, zeta, u, v, best",
        [
            (2.85e-7, 28.5, 9, 0.0, 0.5, np.inf),
            (2.85e-7, 28.5, 9, 0.0, 0.5, 0.05),  # stops on its lower bound
            (2.85e-7, 28.5, 9, -1.5, 2.5, np.inf),
            (0.2, 30.0, 9, 0.0, 0.5, np.inf),  # a negative weight
            (0.5941868, 12.0, 24, 0.6, 2.5, np.inf),  # a rounding stop
            (1.0, 1.0 + 1e-9, 20, -1.0, 2.0, np.inf),
            (1e-3, 1e3, 40, 0.0, 1.0, np.inf),
        ],
    )
    def test_same_bits_as_the_plain_loop(self, lo, hi, zeta, u, v, best):
        bs = window_basis(lo, hi, zeta, u, v)
        got, want = _exchange_weights(bs, best), plain_exchange(bs, best)
        assert (got[0] is None) == (want[0] is None)
        if got[0] is not None:
            assert np.array_equal(got[0], want[0])
        assert got[1:] == want[1:]

    # windows whose unconstrained minimax weights are all nonnegative
    @pytest.mark.parametrize(
        "lo, hi, zeta, u, v",
        [
            (2.85e-7, 28.5, 9, 0.0, 0.5),
            (2.85e-7, 28.5, 9, 0.6, 1.1),
            (2.85e-7, 28.5, 9, -1.5, -1.0),
            (0.1, 50.0, 9, -0.8, 1.8),
        ],
    )
    def test_matches_lp_and_equioscillates(self, lo, hi, zeta, u, v):
        bs = window_basis(lo, hi, zeta, u, v)
        a, err, bound = _exchange_weights(bs)
        assert a is not None and np.all(a >= 0)
        assert bound <= err <= bound * (1 + 1e-8)
        _, t = lp_oracle(bs)
        assert err == pytest.approx(t, rel=1e-8)
        e = bs @ a - 1.0
        assert np.max(np.abs(e)) == err
        # sign runs among the points where |e| reaches err
        near = np.sign(e[np.abs(e) >= err * (1 - 1e-8)])
        runs = 1 + np.count_nonzero(near[1:] != near[:-1])
        assert runs >= zeta + 1

    def test_negative_weight_takes_active_set(self):
        bs = window_basis(0.2, 30.0, 9, 0.0, 0.5)
        a, err, bound = _exchange_weights(bs)
        assert np.any(a < 0)
        w, sig = _window_weights(bs, np.inf)
        assert np.all(w >= 0) and np.any(w == 0)
        assert sig >= bound
        assert sig == np.max(np.abs(bs @ w - 1.0))
        assert sig == pytest.approx(lp_oracle(bs)[1], rel=1e-8)
        # a window whose lower bound reaches the best error so far is skipped
        assert _window_weights(bs, bound) is None

    def test_stops_once_bound_reaches_best(self):
        bs = window_basis(2.85e-7, 28.5, 9, 0.0, 0.5)
        _, _, bound = _exchange_weights(bs)
        a, err, stop = _exchange_weights(bs, 0.5 * bound)
        assert a is None and err is None
        assert 0.5 * bound <= stop <= bound

    def test_rounding_stop_returns_best_iterate(self):
        # at zeta 24 rounding stops this window's exchange short of its bound
        bs = window_basis(0.5941868, 12.0, 24, 0.6, 2.5)
        a, err, bound = _exchange_weights(bs)
        assert bound * (1 + 1e-8) < err
        assert err == np.max(np.abs(bs @ a - 1.0))

    def test_singular_reference_falls_back_to_nnls(self):
        # a repeated node: every reference matrix is singular
        bs = _scaled_basis(fit_grid(0.2, 30.0, 4), np.array([0.05, 0.05, 0.5, 2.0]))[0]
        a, err, bound = _exchange_weights(bs)
        assert a is None and err is None
        w, sig = _window_weights(bs, np.inf)
        assert np.all(w >= 0) and np.isfinite(sig)
        assert sig == np.max(np.abs(bs @ w - 1.0))


class TestPruning:
    """The fit skips work that cannot change its result, and no decision."""

    @pytest.mark.parametrize(
        "lo, hi, zeta",
        [
            (*spectral_interval(MARKOV4), 9),
            (*spectral_interval(CD4), 9),
            (0.2, 30.0, 9),
            (0.5, 60.0, 12),
        ],
        ids=["markov4", "cd4", "0.2-30", "0.5-60"],
    )
    def test_same_fit_as_unpruned(self, lo, hi, zeta, monkeypatch):
        exchange = precond._exchange_weights
        stops = []

        def pruned_exchange(bs, best=np.inf):
            a, err, bound = exchange(bs, best)
            stops.append(a is None and bound >= best)
            return a, err, bound

        monkeypatch.setattr(precond, "_exchange_weights", pruned_exchange)
        pruned = expsum_coeffs(lo, hi, zeta)
        assert any(stops)
        monkeypatch.setattr(precond, "_exchange_weights", lambda bs, best=np.inf: exchange(bs))
        unpruned = expsum_coeffs(lo, hi, zeta)
        assert np.array_equal(pruned[0], unpruned[0])
        assert np.array_equal(pruned[1], unpruned[1])
        assert pruned[2] == unpruned[2]

    def test_each_window_scored_once(self, monkeypatch):
        # every scored window builds its basis once; no node set may repeat,
        # even one a compass step back reaches under another (u, v)
        nodes = []
        basis = precond._scaled_basis
        monkeypatch.setattr(precond, "_scaled_basis",
                            lambda z, beta: nodes.append(beta.tobytes()) or basis(z, beta))
        expsum_coeffs(*spectral_interval(MARKOV4), 9)
        assert len(nodes) > 36  # the 6 x 6 scan, then compass moves
        assert len(set(nodes)) == len(nodes)


def smallest_sym_eig(f):
    return np.linalg.eigvalsh(0.5 * (f + f.T))[0]


class TestSpectralInterval:
    def test_identity_factors(self):
        lo, hi = spectral_interval([np.eye(4)] * 3)
        assert lo == pytest.approx(3.0, rel=1e-12)
        assert np.isclose(hi, 3.0, rtol=1e-12)

    def test_diagonal_d1(self):
        lo, hi = spectral_interval([np.diag([1.0, 2.0, 3.0])])
        assert lo <= 1.0 + 1e-6
        assert hi >= 3.0 - 1e-12

    def test_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            spectral_interval([[[np.nan]]])
        with pytest.raises(ValueError, match="factor 1"):
            spectral_interval([np.eye(2), np.array([[1.0, np.inf], [0.0, 1.0]])])

    def test_laplacian_containment(self):
        factors = [laplacian(8) for _ in range(3)]
        lo, hi = spectral_interval(factors)
        eigs = np.linalg.eigvalsh(laplacian(8))
        true_lo, true_hi = 3 * eigs.min(), 3 * eigs.max()
        assert lo == pytest.approx(true_lo, rel=1e-12)
        assert hi >= true_hi - 1e-9

    def test_exact_lambda_min(self):
        rng = np.random.default_rng(3)
        factors = [laplacian(n) + 2.0 * np.eye(n) + 0.3 * rng.standard_normal((n, n))
                   for n in (3, 5, 7)]
        lo, _ = spectral_interval(factors)
        assert lo == pytest.approx(sum(smallest_sym_eig(f) for f in factors), rel=1e-12)

    def test_markov4_floor(self):
        # the walk generators' symmetric parts sum to an indefinite matrix,
        # so the floor 1e-8 * lambda_max decides lambda_min
        assert sum(smallest_sym_eig(f) for f in MARKOV4) < 0
        assert spectral_interval(MARKOV4) == (2.8531392796577946e-07, 28.531392796577947)


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
        assert p.quad_bound <= 1e-11
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

    def test_empty_sum_rejected(self):
        with pytest.raises(ValueError, match="at least one term"):
            ExpSumPreconditioner([np.eye(3)] * 3, [], [], RoundSpec(1e-8))

    def test_dim_mismatch(self):
        p = ExpSumPreconditioner([np.eye(3)], [1.0], [1.0], RoundSpec(0.0))
        with pytest.raises(ShapeMismatch):
            p.apply_inverse(tt_random([4], [], seed=11))

    def test_non_finite_input_rejected(self):
        p = ExpSumPreconditioner([laplacian(3)] * 2, [1.0], [1.0], RoundSpec(1e-8))
        v = tt_random([3, 3], [2], seed=12)
        v.cores[1][0, 0, 0] = np.inf
        with pytest.raises(NonFiniteCore):
            p.apply_inverse(v)

    @pytest.mark.parametrize("alpha,beta", [([np.nan], [1.0]), ([1.0], [np.inf])])
    def test_non_finite_coefficients_rejected(self, alpha, beta):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            ExpSumPreconditioner([laplacian(3)] * 2, alpha, beta, RoundSpec(1e-8))


def dense_apply(p, v):
    """sum_j alpha_j (x_k exp(-beta_j A_k)) v, densely."""
    x = tt_to_dense(v)
    out = np.zeros_like(x)
    for a, mats in zip(p.alpha, p.exps):
        y = x
        for k, m in enumerate(mats):
            y = np.moveaxis(np.tensordot(m, y, axes=([1], [k])), 0, k)
        out += a * y
    return out


def sequential_apply(p, v):
    """The zeta mode products summed by sequential rounded additions."""
    acc = RoundedSum(RoundSpec(p.spec.rel_tol))
    for e in p.exps:
        acc.add(mode_multiply(v, e))
    return tt_round(acc.combine(p.alpha), p.spec)


def rel_gap(a, b):
    return tt_norm(tt_add(a, tt_scale(b, -1.0))) / tt_norm(b)


def same_cores(a, b):
    return a.ranks == b.ranks and all(np.array_equal(x, y) for x, y in zip(a.cores, b.cores))


class TestStreamedApply:
    def test_dense_oracle(self):
        # the sums have rank 18-19 at the middle mode (full rank 36): the
        # second frame (rank 32) recovers them, not exactly
        factors = ttk.cd_factor_matrices(ttk.ConvectionDiffusionSpec(d=4, n=6))
        p = ExpSumPreconditioner.from_kron_sum(factors, 9, RoundSpec(1e-6), stream_seed=3)
        for seed in (12, 13):
            v = tt_random(p.dims, [4, 4, 4], seed=seed)
            want = dense_apply(p, v)
            got = p.apply_inverse(v)
            assert 16 < got.ranks[2] < 32
            assert np.linalg.norm(tt_to_dense(got) - want) <= 1e-6 * np.linalg.norm(want)

    def test_growth_meets_rel_tol_against_sequential_sum(self):
        # a random rank-10 input gives a sum of rank 34 at the middle mode,
        # beyond the first frame's 16
        p = ExpSumPreconditioner.from_kron_sum(MARKOV4, 9, RoundSpec(3e-7), stream_seed=7)
        v = tt_random(p.dims, [10, 10, 10], seed=1)
        got = p.apply_inverse(v)
        assert max(got.ranks) > 16
        assert rel_gap(got, sequential_apply(p, v)) <= 3e-7

    def test_deterministic(self):
        p = ExpSumPreconditioner.from_kron_sum(MARKOV4, 9, RoundSpec(3e-7), stream_seed=7)
        q = ExpSumPreconditioner(MARKOV4, p.alpha, p.beta, p.spec, stream_seed=7)
        small = tt_random(p.dims, [2, 2, 2], seed=2)
        first = p.apply_inverse(small)
        assert same_cores(first, p.apply_inverse(small))
        # an apply that climbs to larger frames does not change later applies
        p.apply_inverse(tt_random(p.dims, [10, 10, 10], seed=1))
        assert same_cores(first, p.apply_inverse(small))
        assert same_cores(first, q.apply_inverse(small))
        other = ExpSumPreconditioner(MARKOV4, p.alpha, p.beta, p.spec, stream_seed=8)
        assert not same_cores(first, other.apply_inverse(small))

    def test_max_rank_caps_without_growth(self, monkeypatch):
        recoveries = []  # one per frame tried
        recover = streaming.stream_recover
        monkeypatch.setattr(streaming, "stream_recover",
                            lambda *a: recoveries.append(a) or recover(*a))
        p = ExpSumPreconditioner.from_kron_sum(MARKOV4, 9, RoundSpec(3e-7), stream_seed=7)
        capped = ExpSumPreconditioner(MARKOV4, p.alpha, p.beta, RoundSpec(3e-7, 3),
                                      stream_seed=7)
        v = tt_random(p.dims, [1, 1, 1], seed=4)
        full = p.apply_inverse(v)
        assert 3 < max(full.ranks) <= 12
        recoveries.clear()
        got = capped.apply_inverse(v)
        assert max(got.ranks) == 3
        assert len(recoveries) == 1
        assert same_cores(got, tt_round(full, capped.spec))

    def test_first_rung_is_a_plain_frame(self):
        # an apply that stays on its first frame sketches the mode products
        # against StreamFrame.create at the first rung's ranks and seed
        p = ExpSumPreconditioner.from_kron_sum(MARKOV4, 9, RoundSpec(3e-7), stream_seed=7)
        v = tt_random(p.dims, [2, 2, 2], seed=2)
        bound = [min(f, len(p.exps) * r) for f, r in zip(attainable_ranks(p.dims), v.ranks[1:-1])]
        frame = StreamFrame.create(p.dims, [LADDER_START] * 3, LADDER_OVERSAMPLING,
                                   seed=[7, 0]).leading(bound)
        pairs = [stream_sketch(mode_multiply(v, e), frame) for e in p.exps]
        want = stream_recover(pairs, p.alpha, RoundSpec(3e-7), SUM_PINV_RCOND)
        assert max(want.ranks) <= LADDER_START - 4  # room left: no climb
        assert same_cores(p.apply_inverse(v), want)

    def test_stream_seed_defaults_to_zero(self):
        p = ExpSumPreconditioner([laplacian(3)] * 2, [1.0], [0.5], RoundSpec(1e-8))
        assert p.stream_seed == 0

    def test_bad_stream_seed(self):
        for seed in (-1, 1.5, "0", True):
            with pytest.raises(ValueError, match="nonnegative integer"):
                ExpSumPreconditioner([laplacian(3)] * 2, [1.0], [0.5], RoundSpec(1e-8),
                                     stream_seed=seed)
