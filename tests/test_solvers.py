import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttkrylov import solvers, streaming
from ttkrylov.precond import ExpSumPreconditioner
from ttkrylov.problems import (
    ConvectionDiffusionSpec,
    MarkovSpec,
    cd_factor_matrices,
    convection_diffusion,
    dense_reference,
    markov_chain,
    markov_factor_matrices,
)
from ttkrylov.sketch import kr_apply, kr_sketch_new
from ttkrylov.solvers import (
    FRAME_OVERSAMPLING,
    SolverConfig,
    _LeastSquares,
    make_solver_frame,
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
    ShapeMismatch,
    identity_operator,
    tt_add,
    tt_dot,
    tt_matvec,
    tt_norm,
    tt_random,
    tt_round,
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
        y, res, _ = sketched_lsq(q, rhs)
        assert np.allclose(y, q.T @ rhs, atol=1e-12)
        assert np.isclose(res, np.linalg.norm(q @ y - rhs))

    def test_single_column(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((20, 1))
        rhs = rng.standard_normal(20)
        y, _, _ = sketched_lsq(w, rhs)
        assert np.isclose(y[0], float(w[:, 0] @ rhs) / float(w[:, 0] @ w[:, 0]))

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((40, 6)) + 3 * np.eye(40, 6)
        rhs = rng.standard_normal(40)
        y, _, _ = sketched_lsq(w, rhs)
        y2 = np.linalg.solve(w.T @ w, w.T @ rhs)
        assert np.allclose(y, y2, atol=1e-10)


class TestSketchedLsqWarning:
    def test_rank_deficiency_warned_once_after_other_warnings(self):
        dims = [3, 3, 3]
        b = tt_random(dims, [2, 2], seed=0)
        warnings = ["iteration 1: an earlier warning"]
        col = kr_apply(kr_sketch_new(dims, 12, seed=1), b)
        lsq = _LeastSquares(col, np.linalg.norm(col), 3, warnings)
        for _ in range(3):  # the same column again: the basis is singular
            lsq.update(col)
        assert warnings == ["iteration 1: an earlier warning",
                            "iteration 2: sketched basis nearly rank-deficient"]


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

    def test_relaxed_rounding_history(self):
        # the trace digest's CD run: tt_gmres rounds A z by pivoted QR and
        # each Gram-Schmidt sum by one streamed rounding, and its iterations
        # and basis ranks are those of SVD-rounded modified Gram-Schmidt
        op, rhs = convection_diffusion(ConvectionDiffusionSpec(d=3, n=5))
        cfg = SolverConfig(maxit=30, tol=1e-8, seed=0, solution_rank=12,
                           track_true_residual=True)
        _, rep = tt_gmres(op, rhs, None, cfg)
        assert rep.converged and rep.iterations == 19
        assert rep.basis_rank == [2, 3, 4] + [5] * 16
        assert rep.res_true[-1] == pytest.approx(5.25e-10, rel=1e-2)

    @pytest.mark.parametrize("name", ["gmres", "vanilla", "sgmres", "spgmres"])
    def test_only_relaxed_steps_round_pivoted(self, name, monkeypatch):
        # tt_gmres: one pivoted rounding (A z) and one streamed recovery
        # (w - sum_i h_i v_i) per iteration; the assembly's roundings and
        # every other variant's keep the SVD
        calls, recoveries = [], []

        def recording(v, spec, **kwargs):
            calls.append(kwargs.get("pivoted", False))
            return tt_round(v, spec, **kwargs)

        recover = streaming.stream_recover
        monkeypatch.setattr(solvers, "tt_round", recording)
        monkeypatch.setattr(streaming, "stream_recover",
                            lambda *args: recoveries.append(args) or recover(*args))
        op, rhs = convection_diffusion(ConvectionDiffusionSpec(d=3, n=4))
        _, rep = run_variant(name, op, rhs, None, SolverConfig(maxit=6, tol=1e-12, seed=0))
        k = rep.iterations
        if name == "gmres":
            assert calls == [True] * k and len(recoveries) == k
        else:
            assert sum(calls) == 0

    def test_nonzero_initial_guess(self):
        op, rhs = convection_diffusion(ConvectionDiffusionSpec(d=3, n=4))
        x0 = tt_random([4, 4, 4], [1, 1], seed=7)
        cfg = SolverConfig(maxit=100, tol=1e-9, seed=2)
        x, rep = tt_gmres(op, rhs, x0, cfg)
        assert rep.converged
        assert rel_gap(x, solve_dense(op, rhs)) <= 1e-7


def dense_gmres_residuals(m, e, maxit):
    """Relative residual history of dense GMRES from zero: Arnoldi with
    modified Gram-Schmidt, least squares by ``np.linalg.lstsq``."""
    beta = np.linalg.norm(e)
    basis, h, out = [e / beta], np.zeros((maxit + 1, maxit)), []
    for k in range(1, maxit + 1):
        w = m @ basis[-1]
        for i, v in enumerate(basis):
            h[i, k - 1] = w @ v
            w = w - h[i, k - 1] * v
        h[k, k - 1] = np.linalg.norm(w)
        basis.append(w / h[k, k - 1])
        rhs = np.zeros(k + 1)
        rhs[0] = beta
        y = np.linalg.lstsq(h[: k + 1, :k], rhs, rcond=None)[0]
        out.append(np.linalg.norm(h[: k + 1, :k] @ y - rhs) / beta)
    return np.array(out)


class TestGMRESOracle:
    @pytest.mark.parametrize("d,n", [(2, 6), (3, 4)])
    def test_residual_history_matches_dense_gmres(self, d, n):
        # tol 1e-13: the relaxed rounding at tol^2 / rel_res stays below
        # 2e-17 relative while rel_res > 5e-10, as it does for 14 iterations,
        # so no rounding truncates more than roundoff; the run stops at maxit
        op, rhs = convection_diffusion(ConvectionDiffusionSpec(d=d, n=n))
        cfg = SolverConfig(maxit=14, tol=1e-13, seed=0)
        _, rep = tt_gmres(op, rhs, None, cfg)
        want = dense_gmres_residuals(*dense_reference(op, rhs), cfg.maxit)
        assert rep.iterations == cfg.maxit
        np.testing.assert_allclose(rep.res_sketched, want, rtol=1e-8)


class TestStreamedGramSchmidt:
    """tt_gmres takes every Hessenberg coefficient from the rounded A z
    (classical Gram-Schmidt) and forms w - sum_i h_i v_i by one streamed
    rounding against a frame drawn from cfg.seed (``GrowingFrame``)."""

    @staticmethod
    def draws(monkeypatch):
        """The rungs of the frames the solve draws, in order."""
        rungs, draw = [], streaming.GrowingFrame._draw
        monkeypatch.setattr(streaming.GrowingFrame, "_draw",
                            lambda self, rung: rungs.append(rung) or draw(self, rung))
        return rungs

    def test_repeatable_at_one_seed_same_iterations_at_another(self):
        # full ranks 8, 64, 8: the frame's rank 36 is below the middle one
        op, rhs = convection_diffusion(ConvectionDiffusionSpec(d=4, n=8))
        cfg = SolverConfig(maxit=40, tol=1e-8, seed=3)
        (x1, r1), (x2, r2) = (tt_gmres(op, rhs, None, cfg) for _ in range(2))
        assert all(np.array_equal(a, b) for a, b in zip(x1.cores, x2.cores))
        assert r1.res_sketched == r2.res_sketched and r1.basis_rank == r2.basis_rank
        x3, r3 = tt_gmres(op, rhs, None, replace(cfg, seed=4))
        assert r3.res_sketched != r1.res_sketched  # the seed reaches the frame
        assert r1.converged and r3.converged and r3.iterations == r1.iterations
        assert rel_gap(x3, tt_to_dense(x1).ravel()) <= 1e-7

    def test_frame_grows_past_its_first_rung_and_matches_dense_gmres(self, monkeypatch):
        # a first frame of rank 4 has room for rank 0 only (4 - max(4, 1));
        # the middle rank (full: 16) climbs it to rung 6 (ceil(4 * 1.25**6)
        # = 16); tol as in TestGMRESOracle, so no rounding truncates
        monkeypatch.setattr(streaming, "GROWTH_START", 4)
        rungs = self.draws(monkeypatch)
        op, rhs = convection_diffusion(ConvectionDiffusionSpec(d=4, n=4))
        cfg = SolverConfig(maxit=14, tol=1e-13, seed=0)
        _, rep = tt_gmres(op, rhs, None, cfg)
        want = dense_gmres_residuals(*dense_reference(op, rhs), cfg.maxit)
        assert rungs[0] == 0 and rungs == sorted(rungs) and rungs[-1] >= 3
        assert rep.peak_rank > 4 and rep.iterations == cfg.maxit
        np.testing.assert_allclose(rep.res_sketched, want, rtol=1e-8)

    def test_max_rank_caps_the_basis(self, monkeypatch):
        op, rhs = convection_diffusion(ConvectionDiffusionSpec(d=4, n=8))
        cfg = SolverConfig(maxit=20, tol=1e-10, seed=0, force_iterations=True)
        _, free = tt_gmres(op, rhs, None, cfg)
        rungs = self.draws(monkeypatch)
        _, capped = tt_gmres(op, rhs, None, replace(cfg, max_rank=6))
        assert free.peak_rank > 6 and capped.peak_rank == 6
        # sums of capped vectors are not low-rank, but the first frame has
        # room for the rank that the cap keeps, so it does not grow
        assert rungs == [0]


def _small_problem(seed=0):
    op, rhs = convection_diffusion(ConvectionDiffusionSpec(d=3, n=5))
    return op, rhs


VARIANTS = ("gmres", "vanilla", "sgmres", "spgmres")


def run_variant(name, op, rhs, x0, cfg, precond=None, sketch=None):
    """Solve with the named variant; the sketch defaults to one drawn from
    cfg.seed and the preconditioner to the identity."""
    if name == "gmres":
        return tt_gmres(op, rhs, x0, cfg)
    s = kr_sketch_new(rhs.dims, cfg.sketch_rows, seed=cfg.seed + 1) if sketch is None else sketch
    if name == "vanilla":
        return tt_sgmres_vanilla(op, rhs, x0, cfg, s)
    if name == "sgmres":
        return tt_sgmres(op, rhs, x0, cfg, s)
    if precond is None:
        precond = ExpSumPreconditioner([np.zeros((n, n)) for n in rhs.dims], [1.0], [0.0],
                                       RoundSpec(1e-14))
    return tt_spgmres(op, precond, rhs, x0, cfg, s)


class TestReportInvariants:
    @pytest.mark.parametrize("name,forced", [(v, False) for v in VARIANTS] + [("sgmres", True)],
                             ids=list(VARIANTS) + ["sgmres-forced"])
    def test_report_histories_consistent(self, name, forced):
        spec = ConvectionDiffusionSpec(d=2, n=6)
        op, rhs = convection_diffusion(spec)
        cfg = SolverConfig(maxit=40, tol=1e-8, seed=3, track_true_residual=True,
                           force_iterations=forced, solution_rank=12)
        pre = None
        if name == "spgmres":
            pre = ExpSumPreconditioner.from_kron_sum(cd_factor_matrices(spec), 3, RoundSpec(1e-10))
        x, rep = run_variant(name, op, rhs, None, cfg, pre)
        if forced:
            assert rep.iterations == cfg.maxit
        assert len(rep.res_sketched) == rep.iterations
        assert len(rep.res_true) == rep.iterations
        assert len(rep.basis_rank) == rep.iterations
        for p, hist in rep.times.items():
            assert len(hist) == rep.iterations
        assert sum(rep.phase_totals().values()) <= rep.wall_time
        assert rep.converged
        # the residual estimate tracks the true residual at convergence, and
        # the returned solution is the last tracked iterate
        assert rep.res_true[-1] <= 10 * max(rep.res_sketched[-1], 1e-8)
        assert rep.res_true[-1] == true_residual(op, rhs, x)
        # tracking only observes: without it the solve is bitwise the same
        for mode in ("explicit", "stta"):
            tracked, untracked = (
                run_variant(name, op, rhs, None,
                            replace(cfg, combine_mode=mode, track_true_residual=track), pre)
                for track in (True, False))
            assert all(np.array_equal(c, u) for c, u in zip(tracked[0].cores, untracked[0].cores))
            assert tracked[1].res_sketched == untracked[1].res_sketched
            assert tracked[1].basis_rank == untracked[1].basis_rank
            assert tracked[1].iterations == untracked[1].iterations


def appended_basis(monkeypatch):
    """The vectors a solve appends to its window, w / h_new: the solver's
    tt_scale calls whose factor is 1 / (norm of the vector's last core)."""
    appended, scale = [], solvers.tt_scale

    def spy(a, alpha):
        out = scale(a, alpha)
        if alpha == 1.0 / solvers._norm(a.cores[-1]):
            appended.append(out)
        return out

    monkeypatch.setattr(solvers, "tt_scale", spy)
    return appended


class TestBasisNormalization:
    """h_new is taken from the last core of the rounded w, so every
    appended basis vector must have unit norm."""

    @pytest.mark.parametrize("name,mode", [("gmres", "explicit"), ("sgmres", "explicit"),
                                           ("sgmres", "stta"), ("spgmres", "explicit"),
                                           ("spgmres", "stta")])
    def test_appended_vectors_have_unit_norm(self, monkeypatch, name, mode):
        spec = ConvectionDiffusionSpec(d=3, n=5)
        op, rhs = convection_diffusion(spec)
        cfg = SolverConfig(maxit=12, tol=1e-10, ell=2, seed=4, combine_mode=mode,
                           solution_rank=12)
        pre = None
        if name == "spgmres":
            pre = ExpSumPreconditioner.from_kron_sum(cd_factor_matrices(spec), 3, RoundSpec(1e-12))
        appended = appended_basis(monkeypatch)
        _, rep = run_variant(name, op, rhs, None, cfg, pre)
        assert rep.iterations >= 5 and len(appended) == rep.iterations
        for v in appended:
            assert abs(tt_norm(v) - 1.0) <= 1e-13

    @pytest.mark.parametrize("name,mode", [("gmres", "explicit"), ("sgmres", "explicit"),
                                           ("sgmres", "stta")])
    def test_lucky_breakdown_appends_nothing_and_converges(self, monkeypatch, name, mode):
        dims = [3, 3, 3]
        b = tt_random(dims, [1, 1], seed=8)
        cfg = SolverConfig(maxit=6, tol=1e-9, seed=4, combine_mode=mode)
        appended = appended_basis(monkeypatch)
        x, rep = run_variant(name, identity_operator(dims), b, None, cfg)
        assert rep.converged and rep.iterations == 1 and appended == []
        assert tt_norm(tt_add(x, tt_scale(b, -1.0))) <= 1e-8 * tt_norm(b)


class TestShiftedFold:
    """Without a preconditioner the explicit window's newest vector is z,
    and h z is subtracted inside A z's last core (``_subtract_shifted``).
    MGS makes each appended vector orthogonal to the one before it up to
    the rounding; a shift of the wrong sign or channel would leave a
    component of about 2 h."""

    @pytest.mark.parametrize("name", ["sgmres", "vanilla"])
    @pytest.mark.parametrize("ell", [1, 2])
    def test_consecutive_basis_vectors_orthogonal(self, monkeypatch, name, ell):
        op, rhs = _small_problem()
        cfg = SolverConfig(maxit=12, tol=1e-10, ell=ell, seed=4)
        folds = []
        fold = solvers._subtract_shifted
        monkeypatch.setattr(solvers, "_subtract_shifted",
                            lambda *args: folds.append(args[-1]) or fold(*args))
        appended = appended_basis(monkeypatch)
        _, rep = run_variant(name, op, rhs, None, cfg)
        assert rep.iterations == cfg.maxit and len(folds) == rep.iterations
        basis = [tt_scale(rhs, 1.0 / tt_norm(rhs)), *appended]
        for v, w in zip(basis, basis[1:]):
            assert abs(tt_dot(w, v)) <= 10 * cfg.eta * cfg.tol

    def test_preconditioned_and_stta_runs_do_not_fold(self, monkeypatch):
        op, rhs = _small_problem()
        calls = []
        monkeypatch.setattr(solvers, "_subtract_shifted", lambda *args: calls.append(args))
        for name, mode in (("spgmres", "explicit"), ("sgmres", "stta"), ("gmres", "explicit")):
            run_variant(name, op, rhs, None, SolverConfig(maxit=6, tol=1e-10, combine_mode=mode))
        assert calls == []


class TestConfigIntegers:
    @pytest.mark.parametrize("key,value", [("seed", 1.5), ("maxit", 2.5), ("ell", 1.5),
                                           ("sketch_rows", 250.5), ("max_rank", 4.0),
                                           ("solution_rank", 12.5), ("ell", True)])
    def test_non_integer_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            SolverConfig(**{key: value})

    def test_numpy_integers_accepted(self):
        cfg = SolverConfig(maxit=np.int64(10), ell=np.int32(2), seed=np.uint8(3))
        assert cfg.sketch_rows == 20


class TestEntry:
    @pytest.mark.parametrize("name", VARIANTS)
    def test_operator_dims_checked(self, name):
        _, rhs = _small_problem()
        op, _ = convection_diffusion(ConvectionDiffusionSpec(d=3, n=4))
        with pytest.raises(ShapeMismatch, match="operator dims"):
            run_variant(name, op, rhs, None, SolverConfig(maxit=10, tol=1e-6))

    @pytest.mark.parametrize("name", VARIANTS)
    def test_zero_rhs_gives_zero_solution(self, name):
        # the nonzero x0 must not be returned: A x0 != 0 = b
        op, rhs = _small_problem()
        x0 = tt_random(rhs.dims, [2, 2], seed=1)
        x, rep = run_variant(name, op, tt_zero(rhs.dims), x0, SolverConfig(maxit=10, tol=1e-6))
        assert rep.converged and rep.iterations == 0
        assert tt_norm(tt_matvec(op, x)) == 0.0


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


class TestSolverFrame:
    """Recovery ranks max(b rank, solution rank), clipped to the full rank."""

    @pytest.mark.parametrize("solution_rank,ranks", [(None, (8, 60, 8)), (6, (7, 30, 7))])
    def test_recovery_ranks(self, solution_rank, ranks):
        b = tt_random([8, 8, 8, 8], [7, 30, 7], seed=0)  # default solution rank 60
        frame = make_solver_frame(b, SolverConfig(solution_rank=solution_rank), seed=1)
        assert frame.right.ranks[1:-1] == ranks
        assert frame.left.ranks[1:-1] == tuple(r + FRAME_OVERSAMPLING for r in ranks)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_as_accurate_as_a_double_frame(self, seed):
        # unclipped (full ranks 8, 64, 8); the solution has rank 4 < 6.
        # Without that headroom the rank-6 frame loses accuracy: at tol 1e-7,
        # where the solution reaches rank 6, its true residual is 5-10x worse
        op, rhs = convection_diffusion(ConvectionDiffusionSpec(d=4, n=8))
        runs = []
        for frame_ranks in (None, [2 * 6] * 3):
            cfg = SolverConfig(maxit=60, tol=1e-5, seed=seed, solution_rank=6)
            s = kr_sketch_new(rhs.dims, cfg.sketch_rows, seed=seed)
            frame = None if frame_ranks is None else StreamFrame.create(rhs.dims, frame_ranks,
                                                                        seed=seed + 1)
            x, rep = tt_sgmres(op, rhs, None, cfg, s, frame)
            runs.append((rep.iterations, true_residual(op, rhs, x)))
        (it_new, res_new), (it_old, res_old) = runs
        assert it_new == it_old
        assert res_new <= 1.5 * res_old

    def test_stta_warns_when_the_frame_caps_a_basis_vector(self):
        op, rhs = convection_diffusion(ConvectionDiffusionSpec(d=4, n=8))
        warned = {}
        for mode in ("explicit", "stta"):
            cfg = SolverConfig(maxit=20, tol=1e-8, seed=0, solution_rank=3, combine_mode=mode)
            s = kr_sketch_new(rhs.dims, cfg.sketch_rows, seed=0)
            _, rep = tt_sgmres(op, rhs, None, cfg, s)
            warned[mode] = rep.warnings
        assert warned["explicit"] == []
        assert warned["stta"] == [
            "iteration 2: the recovery frame caps the basis vector at modes [1, 2, 3]"]


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

    def test_nonzero_initial_guess(self):
        # x = x0 + sum_i y_i z_i: the preconditioner must not be applied to x0
        spec = ConvectionDiffusionSpec(d=3, n=8)
        op, rhs = convection_diffusion(spec)
        p = ExpSumPreconditioner.from_kron_sum(cd_factor_matrices(spec), 5, RoundSpec(1e-10))
        cfg = SolverConfig(maxit=40, tol=1e-8)
        s = kr_sketch_new(rhs.dims, cfg.sketch_rows, seed=0)
        x0 = tt_random(rhs.dims, [2, 2], seed=1)
        x, rep = tt_spgmres(op, p, rhs, x0, cfg, s)
        assert rep.converged
        assert true_residual(op, rhs, x) <= 1e-7


@pytest.fixture(scope="module")
def markov4():
    """The d=4, n=20 Markov chain with a zeta=9 expsum preconditioner."""
    spec = MarkovSpec(d=4, n=20, seed=0)
    op, rhs = markov_chain(spec)
    p = ExpSumPreconditioner.from_kron_sum(markov_factor_matrices(spec), 9, RoundSpec(0.3e-6))
    return op, rhs, p


class TestFlexiblePreconditioning:
    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_converged_means_true_residual(self, markov4, ell):
        # x is formed from the z_i = P^{-1} v_i the least squares fitted, so
        # the sketched residual it reports holds for x itself
        op, rhs, p = markov4
        cfg = SolverConfig(maxit=60, tol=1e-6, ell=ell, seed=0)
        s = kr_sketch_new(rhs.dims, cfg.sketch_rows, seed=0)
        x, rep = tt_spgmres(op, p, rhs, None, cfg, s)
        if rep.converged:
            assert true_residual(op, rhs, x) <= 10 * cfg.tol

    def test_stta_matches_explicit(self):
        # the STTA window must combine the pairs of the v_i, not of the z_i
        spec = ConvectionDiffusionSpec(d=3, n=5)
        op, rhs = convection_diffusion(spec)
        p = ExpSumPreconditioner.from_kron_sum(cd_factor_matrices(spec), 3, RoundSpec(3e-9))
        runs = {}
        for mode in ("explicit", "stta"):
            cfg = SolverConfig(maxit=30, tol=1e-8, ell=1, seed=0, solution_rank=12,
                               combine_mode=mode)
            s = kr_sketch_new(rhs.dims, cfg.sketch_rows, seed=0)
            x, rep = tt_spgmres(op, p, rhs, None, cfg, s)
            runs[mode] = rep.iterations, true_residual(op, rhs, x)
        (it_e, res_e), (it_s, res_s) = runs["explicit"], runs["stta"]
        assert abs(it_s - it_e) <= 1
        assert res_e / 10 <= res_s <= 10 * res_e


class TestNonFiniteInput:
    @pytest.mark.parametrize("solver", ["gmres", "sgmres", "sgmres-stta", "spgmres"])
    def test_nan_rhs_rejected(self, solver):
        op, rhs = _small_problem()
        rhs = rhs.copy()  # the problem's rhs cores may share one buffer
        rhs.cores[1][0, 2, 0] = np.nan
        mode = "stta" if solver == "sgmres-stta" else "explicit"
        cfg = SolverConfig(maxit=10, tol=1e-6, seed=0, combine_mode=mode)
        with pytest.raises(NonFiniteCore, match="core 1"):
            run_variant(solver.removesuffix("-stta"), op, rhs, None, cfg)

    def test_inf_initial_guess_rejected(self):
        op, rhs = _small_problem()
        x0 = tt_random(rhs.dims, [2, 2], seed=2)
        x0.cores[0][0, 0, 0] = np.inf
        with pytest.raises(NonFiniteCore, match="core 0"):
            tt_gmres(op, rhs, x0, SolverConfig(maxit=10, tol=1e-6))

    # these used to reach LAPACK in tt_sgmres ("DLASCL parameter number 4
    # had an illegal value", then "SVD did not converge in Linear Least
    # Squares"), and tt_gmres and tt_spgmres named a core of a Krylov vector
    @pytest.mark.parametrize("solver", ["gmres", "vanilla", "sgmres", "sgmres-stta", "spgmres"])
    def test_nan_operator_core_rejected(self, solver, capfd):
        op, rhs = _small_problem()
        op = op.copy()
        op.op_cores[1][1, 0, 0, 0] = np.nan
        mode = "stta" if solver == "sgmres-stta" else "explicit"
        cfg = SolverConfig(maxit=10, tol=1e-6, seed=0, combine_mode=mode)
        with pytest.raises(NonFiniteCore, match="^operator core 1 holds a non-finite entry$"):
            run_variant(solver.removesuffix("-stta"), op, rhs, None, cfg)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("solver", ["vanilla", "sgmres", "sgmres-stta", "spgmres"])
    def test_nan_sketch_factor_rejected(self, solver, capfd):
        op, rhs = _small_problem()
        mode = "stta" if solver == "sgmres-stta" else "explicit"
        cfg = SolverConfig(maxit=10, tol=1e-6, seed=0, combine_mode=mode)
        s = kr_sketch_new(rhs.dims, cfg.sketch_rows, seed=1)
        s.factors[2][3, 1] = np.nan
        with pytest.raises(NonFiniteCore, match="^sketch factor 2 holds a non-finite entry$"):
            run_variant(solver.removesuffix("-stta"), op, rhs, None, cfg, sketch=s)
        assert capfd.readouterr() == ("", "")


# ---------------------------------------------------------------------------
# extreme magnitudes: a solve of s b returns s x, and stops where b's does

MAGNITUDE_RUNS = [("gmres", "explicit"), ("vanilla", "explicit"), ("sgmres", "explicit"),
                  ("sgmres", "stta"), ("spgmres", "explicit"), ("spgmres", "stta")]


@functools.cache
def magnitude_problem():
    """CD d=3, n=5 with a zeta=3 preconditioner, and the iteration count of
    every variant at b itself."""
    spec = ConvectionDiffusionSpec(d=3, n=5)
    op, rhs = convection_diffusion(spec)
    pre = ExpSumPreconditioner.from_kron_sum(cd_factor_matrices(spec), 3, RoundSpec(0.3e-6))
    iterations = {}
    for name, mode in MAGNITUDE_RUNS:
        _, rep = solve_scaled(op, rhs, pre, name, mode, 1.0)
        assert rep.converged
        iterations[name, mode] = rep.iterations
    return op, rhs, pre, iterations


def solve_scaled(op, rhs, pre, name, mode, s):
    cfg = SolverConfig(maxit=40, tol=1e-6, seed=0, combine_mode=mode)
    return run_variant(name, op, tt_scale(rhs, s), None, cfg, pre)


class TestExtremeMagnitudes:
    # before the driver's norms were overflow-safe, b scaled by 1e200
    # converged after one iteration with a wrong x, and b scaled by 1e-200
    # raised ZeroDivisionError in the sketched variants
    @pytest.mark.parametrize("s", [1e200, 1e300, 1e-200, 1e-300])
    @pytest.mark.parametrize("name,mode", MAGNITUDE_RUNS)
    def test_scaled_rhs_stops_where_b_does(self, name, mode, s):
        op, rhs, pre, iterations = magnitude_problem()
        x, rep = solve_scaled(op, rhs, pre, name, mode, s)
        assert rep.converged
        assert rep.iterations == iterations[name, mode]
        assert true_residual(op, rhs, tt_scale(x, 1.0 / s)) <= 1e-5

    @settings(max_examples=15, deadline=None)
    @given(k=st.integers(-1000, 1000))
    def test_power_of_two_scaling(self, k):
        op, rhs, pre, iterations = magnitude_problem()
        for name, mode in MAGNITUDE_RUNS:
            _, rep = solve_scaled(op, rhs, pre, name, mode, 2.0**k)
            assert rep.converged
            assert rep.iterations == iterations[name, mode]
