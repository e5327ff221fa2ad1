import numpy as np
import pytest

from ttkrylov.precond import ExpSumPreconditioner
from ttkrylov.problems import (
    ConvectionDiffusionSpec,
    MarkovSpec,
    cd_factor_matrices,
    convection_diffusion,
    dense_reference,
    markov_chain,
)
from ttkrylov.sketch import kr_sketch_new
from ttkrylov.solvers import (
    SolverConfig,
    sketched_lsq,
    true_residual,
    tt_gmres,
    tt_sgmres,
    tt_sgmres_vanilla,
    tt_spgmres,
)
from ttkrylov.streaming import StreamFrame
from ttkrylov.tt import (
    NonFiniteCore,
    RoundSpec,
    identity_operator,
    tt_add,
    tt_norm,
    tt_random,
    tt_scale,
    tt_to_dense,
    tt_zero,
)


def solve_dense(op, rhs):
    m, e = dense_reference(op, rhs)
    return np.linalg.solve(m, e)


def rel_gap(x, want_flat):
    got = tt_to_dense(x).ravel()
    return np.linalg.norm(got - want_flat) / np.linalg.norm(want_flat)


class TestSketchedLsq:
    def test_orthonormal_columns(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((30, 5)))
        rhs = rng.standard_normal(30)
        y, res = sketched_lsq(q, rhs)
        assert np.allclose(y, q.T @ rhs, atol=1e-12)
        assert np.isclose(res, np.linalg.norm(q @ y - rhs))

    def test_single_column(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((20, 1))
        rhs = rng.standard_normal(20)
        y, _ = sketched_lsq(w, rhs)
        assert np.isclose(y[0], float(w[:, 0] @ rhs) / float(w[:, 0] @ w[:, 0]))

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((40, 6)) + 3 * np.eye(40, 6)
        rhs = rng.standard_normal(40)
        y, _ = sketched_lsq(w, rhs)
        y2 = np.linalg.solve(w.T @ w, w.T @ rhs)
        assert np.allclose(y, y2, atol=1e-10)


class TestTrueResidual:
    def test_exact_solution(self):
        b = tt_random([3, 3, 3], [2, 2], seed=3)
        assert true_residual(identity_operator([3, 3, 3]), b, b) <= 1e-13

    def test_zero_guess(self):
        b = tt_random([3, 3, 3], [2, 2], seed=4)
        assert np.isclose(true_residual(identity_operator([3, 3, 3]), b, tt_zero([3, 3, 3])), 1.0)

    def test_dense_oracle(self):
        op, rhs = convection_diffusion(ConvectionDiffusionSpec(d=3, n=4))
        x = tt_random([4, 4, 4], [2, 2], seed=5)
        m, e = dense_reference(op, rhs)
        want = np.linalg.norm(e - m @ tt_to_dense(x).ravel()) / np.linalg.norm(e)
        assert np.isclose(true_residual(op, rhs, x), want, rtol=1e-8)


class TestTTGMRES:
    def test_identity_converges_immediately(self):
        b = tt_random([3, 3, 3], [2, 2], seed=6)
        cfg = SolverConfig(maxit=5, tol=1e-10, seed=0)
        x, rep = tt_gmres(identity_operator([3, 3, 3]), b, None, cfg)
        assert rep.converged and rep.iterations == 1
        gap = tt_norm(tt_add(x, tt_scale(b, -1.0))) / tt_norm(b)
        assert gap <= 1e-10

    def test_pde_dense_oracle(self):
        op, rhs = convection_diffusion(ConvectionDiffusionSpec(d=3, n=5))
        cfg = SolverConfig(maxit=120, tol=1e-10, seed=1)
        x, rep = tt_gmres(op, rhs, None, cfg)
        assert rep.converged
        assert rel_gap(x, solve_dense(op, rhs)) <= 1e-8

    def test_nonzero_initial_guess(self):
        op, rhs = convection_diffusion(ConvectionDiffusionSpec(d=3, n=4))
        x0 = tt_random([4, 4, 4], [1, 1], seed=7)
        cfg = SolverConfig(maxit=100, tol=1e-9, seed=2)
        x, rep = tt_gmres(op, rhs, x0, cfg)
        assert rep.converged
        assert rel_gap(x, solve_dense(op, rhs)) <= 1e-7

    def test_report_histories_consistent(self):
        op, rhs = convection_diffusion(ConvectionDiffusionSpec(d=2, n=6))
        cfg = SolverConfig(maxit=60, tol=1e-8, seed=3, track_true_residual=True)
        x, rep = tt_gmres(op, rhs, None, cfg)
        assert len(rep.res_sketched) == rep.iterations
        assert len(rep.res_true) == rep.iterations
        assert len(rep.basis_rank) == rep.iterations
        for p, hist in rep.times.items():
            assert len(hist) == rep.iterations
        # the residual estimate tracks the true residual at convergence
        assert rep.res_true[-1] <= 10 * max(rep.res_sketched[-1], 1e-8)


def _small_problem(seed=0):
    op, rhs = convection_diffusion(ConvectionDiffusionSpec(d=3, n=5))
    return op, rhs


class TestTTsGMRES:
    def test_identity_converges_immediately(self):
        dims = [3, 3, 3]
        b = tt_random(dims, [1, 1], seed=8)
        cfg = SolverConfig(maxit=6, tol=1e-9, seed=4)
        s = kr_sketch_new(dims, cfg.sketch_rows, seed=5)
        x, rep = tt_sgmres(identity_operator(dims), b, None, cfg, s)
        assert rep.converged and rep.iterations == 1
        gap = tt_norm(tt_add(x, tt_scale(b, -1.0))) / tt_norm(b)
        assert gap <= 1e-8

    def test_pde_true_residual(self):
        op, rhs = _small_problem()
        cfg = SolverConfig(maxit=100, tol=1e-8, ell=1, eta=0.3, seed=6, solution_rank=10)
        s = kr_sketch_new(rhs.dims, cfg.sketch_rows, seed=7)
        x, rep = tt_sgmres(op, rhs, None, cfg, s)
        assert rep.converged
        assert true_residual(op, rhs, x) <= 1e-6

    def test_markov_true_residual(self):
        op, rhs = markov_chain(MarkovSpec(d=3, n=5, seed=9))
        cfg = SolverConfig(maxit=120, tol=1e-8, ell=1, eta=0.3, seed=8, solution_rank=12)
        s = kr_sketch_new(rhs.dims, cfg.sketch_rows, seed=9)
        x, rep = tt_sgmres(op, rhs, None, cfg, s)
        assert rep.converged
        assert true_residual(op, rhs, x) <= 1e-6

    def test_window_containment(self):
        op, rhs = _small_problem()
        cfg = SolverConfig(maxit=60, tol=1e-6, ell=1, seed=10)
        s = kr_sketch_new(rhs.dims, cfg.sketch_rows, seed=11)
        _, rep = tt_sgmres(op, rhs, None, cfg, s)
        assert rep.max_resident_basis <= 2

    def test_sketched_residual_monotone(self):
        op, rhs = _small_problem()
        cfg = SolverConfig(maxit=80, tol=1e-8, ell=1, seed=12)
        s = kr_sketch_new(rhs.dims, cfg.sketch_rows, seed=13)
        _, rep = tt_sgmres(op, rhs, None, cfg, s)
        hist = rep.res_sketched
        for a, b in zip(hist, hist[1:]):
            assert b <= a + 1e-12

    def test_stta_combine_mode(self):
        op, rhs = _small_problem()
        cfg = SolverConfig(maxit=100, tol=1e-7, ell=2, seed=14, combine_mode="stta",
                           solution_rank=10)
        s = kr_sketch_new(rhs.dims, cfg.sketch_rows, seed=15)
        x, rep = tt_sgmres(op, rhs, None, cfg, s)
        assert rep.converged
        assert true_residual(op, rhs, x) <= 1e-5

    def test_nonzero_initial_guess(self):
        op, rhs = _small_problem()
        x0 = tt_random(rhs.dims, [2, 2], seed=16)
        cfg = SolverConfig(maxit=100, tol=1e-8, ell=1, seed=17, solution_rank=12)
        s = kr_sketch_new(rhs.dims, cfg.sketch_rows, seed=18)
        x, rep = tt_sgmres(op, rhs, x0, cfg, s)
        assert rep.converged
        assert true_residual(op, rhs, x) <= 1e-6

    def test_determinism(self):
        op, rhs = _small_problem()
        outs = []
        for _ in range(2):
            cfg = SolverConfig(maxit=40, tol=1e-6, ell=1, seed=19)
            s = kr_sketch_new(rhs.dims, cfg.sketch_rows, seed=20)
            frame = StreamFrame.create(rhs.dims, [8, 8], seed=21)
            _, rep = tt_sgmres(op, rhs, None, cfg, s, frame)
            outs.append(rep.res_sketched)
        assert outs[0] == outs[1]

    def test_maxit_returns_best_iterate(self):
        op, rhs = _small_problem()
        cfg = SolverConfig(maxit=3, tol=1e-12, ell=1, seed=22)
        s = kr_sketch_new(rhs.dims, cfg.sketch_rows, seed=23)
        x, rep = tt_sgmres(op, rhs, None, cfg, s)
        assert not rep.converged
        assert rep.iterations == 3
        assert x.dims == rhs.dims

    def test_stops_when_basis_stops_growing(self):
        # tol below what double precision attains: once the residual sits
        # at roundoff, new sketched columns repeat the span of the old ones
        op, rhs = _small_problem()
        cfg = SolverConfig(maxit=120, tol=1e-14, ell=1, seed=12)
        s = kr_sketch_new(rhs.dims, cfg.sketch_rows, seed=13)
        x, rep = tt_sgmres(op, rhs, None, cfg, s)
        assert not rep.converged
        assert rep.iterations < cfg.maxit
        assert rep.warnings[-1] == f"iteration {rep.iterations}: sketched basis stopped growing"
        assert rep.res_sketched[-1] < 1e-12
        assert true_residual(op, rhs, x) < 1e-11

    def test_forced_iterations_run_past_breakdown(self):
        op, rhs = _small_problem()
        cfg = SolverConfig(maxit=40, tol=1e-14, ell=1, seed=12, force_iterations=True)
        s = kr_sketch_new(rhs.dims, cfg.sketch_rows, seed=13)
        _, rep = tt_sgmres(op, rhs, None, cfg, s)
        assert rep.iterations == 40


class TestVanilla:
    def test_identity(self):
        dims = [3, 3]
        b = tt_random(dims, [1], seed=24)
        cfg = SolverConfig(maxit=5, tol=1e-9, seed=25)
        s = kr_sketch_new(dims, cfg.sketch_rows, seed=26)
        x, rep = tt_sgmres_vanilla(identity_operator(dims), b, None, cfg, s)
        assert rep.converged and rep.iterations == 1
        assert tt_norm(tt_add(x, tt_scale(b, -1.0))) / tt_norm(b) <= 1e-8

    def test_same_trajectory_as_enhanced(self):
        # identical except for the final reconstruction
        op, rhs = _small_problem()
        cfg = SolverConfig(maxit=25, tol=1e-10, ell=1, eta=0.3, seed=27,
                           force_iterations=True)
        s = kr_sketch_new(rhs.dims, cfg.sketch_rows, seed=28)
        _, rep_v = tt_sgmres_vanilla(op, rhs, None, cfg, s)
        cfg2 = SolverConfig(maxit=25, tol=1e-10, ell=1, eta=0.3, seed=27,
                            force_iterations=True)
        _, rep_e = tt_sgmres(op, rhs, None, cfg2, s)
        assert np.allclose(rep_v.res_sketched, rep_e.res_sketched, rtol=1e-8)


class TestNoTruncationEquivalence:
    def test_matches_gmres_on_small_instance(self):
        # full window, no truncation: same Krylov space, so the final
        # iterates agree once both have converged
        dims = [4, 4]
        op, rhs = convection_diffusion(ConvectionDiffusionSpec(d=2, n=4))
        cfg_g = SolverConfig(maxit=16, tol=1e-12, eta=1.0, seed=29)
        x_g, rep_g = tt_gmres(op, rhs, None, cfg_g)
        cfg_s = SolverConfig(maxit=16, tol=1e-12, ell=16, eta=1.0, seed=29,
                             sketch_rows=512, solution_rank=16)
        s = kr_sketch_new(dims, cfg_s.sketch_rows, seed=30)
        x_s, rep_s = tt_sgmres(op, rhs, None, cfg_s, s)
        want = solve_dense(op, rhs)
        assert rel_gap(x_g, want) <= 1e-8
        assert rel_gap(x_s, want) <= 1e-8
        r_g = true_residual(op, rhs, x_g)
        r_s = true_residual(op, rhs, x_s)
        assert abs(r_g - r_s) <= 1e-8


class TestPreconditionedSolver:
    def test_identity_preconditioner_matches_plain(self):
        op, rhs = _small_problem()
        n = rhs.dims[0]
        p = ExpSumPreconditioner([np.zeros((n, n))] * 3, [1.0], [0.0],
                                 RoundSpec(1e-14))
        cfg = SolverConfig(maxit=60, tol=1e-6, ell=1, seed=31, solution_rank=10)
        s = kr_sketch_new(rhs.dims, cfg.sketch_rows, seed=32)
        frame = StreamFrame.create(rhs.dims, [10, 10], seed=33)
        x_p, rep_p = tt_spgmres(op, p, rhs, None, cfg, s, frame)
        x_u, rep_u = tt_sgmres(op, rhs, None, cfg, s, frame)
        assert rep_p.iterations == rep_u.iterations
        assert np.allclose(rep_p.res_sketched, rep_u.res_sketched, rtol=1e-6)

    def test_expsum_accelerates_pde(self):
        spec = ConvectionDiffusionSpec(d=3, n=16)
        op, rhs = convection_diffusion(spec)
        p = ExpSumPreconditioner.from_kron_sum(
            cd_factor_matrices(spec), 17, RoundSpec(1e-9, max_rank=30)
        )
        cfg = SolverConfig(maxit=20, tol=1e-9, ell=1, eta=0.1, seed=34,
                           max_rank=30, solution_rank=15)
        s = kr_sketch_new(rhs.dims, cfg.sketch_rows, seed=35)
        x, rep = tt_spgmres(op, p, rhs, None, cfg, s)
        assert rep.converged
        assert rep.iterations <= 6
        assert true_residual(op, rhs, x) <= 1e-7


class TestNonFiniteInput:
    @pytest.mark.parametrize("solver", ["gmres", "sgmres", "sgmres-stta", "spgmres"])
    def test_nan_rhs_rejected(self, solver):
        op, rhs = _small_problem()
        rhs = rhs.copy()  # the problem's rhs cores may share one buffer
        rhs.cores[1][0, 2, 0] = np.nan
        mode = "stta" if solver == "sgmres-stta" else "explicit"
        cfg = SolverConfig(maxit=10, tol=1e-6, seed=0, combine_mode=mode)
        s = kr_sketch_new(rhs.dims, cfg.sketch_rows, seed=1)
        with pytest.raises(NonFiniteCore, match="core 1"):
            if solver == "gmres":
                tt_gmres(op, rhs, None, cfg)
            elif solver == "spgmres":
                pre = ExpSumPreconditioner.from_kron_sum(
                    cd_factor_matrices(ConvectionDiffusionSpec(d=3, n=5)), 3, RoundSpec(1e-8)
                )
                tt_spgmres(op, pre, rhs, None, cfg, s)
            else:
                tt_sgmres(op, rhs, None, cfg, s)

    def test_inf_initial_guess_rejected(self):
        op, rhs = _small_problem()
        x0 = tt_random(rhs.dims, [2, 2], seed=2)
        x0.cores[0][0, 0, 0] = np.inf
        with pytest.raises(NonFiniteCore, match="core 0"):
            tt_gmres(op, rhs, x0, SolverConfig(maxit=10, tol=1e-6))
