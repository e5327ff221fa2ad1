"""Krylov solvers for TT linear systems.

Four variants share one reporting format:

* ``tt_gmres``          -- full orthogonalization, relaxed rounding,
                           Hessenberg least squares (Givens updated).
* ``tt_sgmres_vanilla`` -- incomplete orthogonalization + sketched least
                           squares; final solution by sequential rounded
                           additions over the stored basis (kept for the
                           accuracy comparison: this path is fragile).
* ``tt_sgmres``         -- incomplete orthogonalization, sketch-only basis
                           memory: only the last ell basis vectors stay
                           resident, the solution is recovered from
                           accumulated streaming sketches.
* ``tt_spgmres``        -- right-preconditioned ``tt_sgmres``.

The sketched variants stop, unconverged, at a numerical breakdown: when the
newest column of the sketched basis lies in the span of the earlier ones to
within the least-squares cutoff, the Krylov space has stopped growing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .precond import ExpSumPreconditioner
from .sketch import KhatriRaoSketch, kr_apply
from .streaming import StreamFrame, combine_pairs, stream_recover, stream_sketch
from .tt import (
    RoundSpec,
    ShapeMismatch,
    TTOperator,
    TTVector,
    check_finite,
    tt_add,
    tt_dot,
    tt_matvec,
    tt_norm,
    tt_round,
    tt_scale,
)

PHASES = ("matvec", "sketch", "orth", "round", "lsq", "recovery")

_LSQ_RCOND = 1e-12
_BREAKDOWN_FACTOR = 1e-14
_CONDITION_WATERMARK = 1e-10


@dataclass
class SolverConfig:
    """Shared knobs of the solver suite (see module docstring)."""

    maxit: int = 200
    tol: float = 1e-6
    ell: int = 1
    eta: float = 0.3
    max_rank: int | None = None
    sketch_rows: int | None = None  # default: 2 * maxit
    oversampling: int = 20
    solution_rank: int | None = None  # default: generous heuristic from b
    combine_mode: str = "explicit"  # or "stta"
    seed: int = 0
    track_true_residual: bool = False
    force_iterations: bool = False  # run all maxit iterations (figure runs)

    def __post_init__(self):
        if not (0 < self.tol < 1):
            raise ValueError("tol must lie in (0, 1)")
        if self.ell < 1:
            raise ValueError("ell must be >= 1")
        if not (0 < self.eta <= 1):
            raise ValueError("eta must lie in (0, 1]")
        if self.maxit < 1:
            raise ValueError("maxit must be >= 1")
        if self.combine_mode not in ("explicit", "stta"):
            raise ValueError("combine_mode must be 'explicit' or 'stta'")
        if self.sketch_rows is None:
            self.sketch_rows = 2 * self.maxit
        if self.sketch_rows <= self.maxit:
            raise ValueError("sketch_rows must exceed maxit")


@dataclass
class SolveReport:
    """Per-iteration history plus run-level outcomes of one solve."""

    converged: bool = False
    iterations: int = 0
    res_sketched: list = field(default_factory=list)  # relative
    res_true: list | None = None  # relative, when tracked
    basis_rank: list = field(default_factory=list)
    times: dict = field(default_factory=lambda: {p: [] for p in PHASES})
    seed: int = 0
    warnings: list = field(default_factory=list)
    max_resident_basis: int = 0
    wall_time: float = 0.0

    @property
    def peak_rank(self) -> int:
        return max(self.basis_rank, default=0)

    def phase_totals(self) -> dict:
        return {p: float(sum(v)) for p, v in self.times.items()}


class _PhaseTimer:
    def __init__(self, report):
        self.report = report
        self.current = {p: 0.0 for p in PHASES}

    def add(self, phase, t0):
        self.current[phase] += time.perf_counter() - t0

    def flush(self):
        for p in PHASES:
            self.report.times[p].append(self.current[p])
            self.current[p] = 0.0


def sketched_lsq(w: np.ndarray, rhs: np.ndarray):
    """Least-squares coefficients through the SVD pseudo-inverse.

    Returns (y, residual_norm) for min_y ||w y - rhs||; the relative
    singular-value cutoff is 1e-12.
    """
    y, res, sv = _lsq_svd(w, rhs)
    return y, res


def _lsq_svd(w, rhs):
    if w.ndim != 2 or w.shape[0] < w.shape[1]:
        raise ValueError("need a tall (s >= k) matrix")
    y, _, _, sv = np.linalg.lstsq(w, rhs, rcond=_LSQ_RCOND)
    res = float(np.linalg.norm(w @ y - rhs))
    return y, res, sv


def true_residual(a: TTOperator, b: TTVector, x: TTVector) -> float:
    """||b - A x|| / ||b|| in TT arithmetic, one rounding at 1e-12."""
    r = tt_round(tt_add(b, tt_scale(tt_matvec(a, x), -1.0)), RoundSpec(1e-12))
    nb = tt_norm(b)
    return tt_norm(r) / nb if nb > 0 else tt_norm(r)


def default_solution_rank(b: TTVector, cfg: SolverConfig) -> int:
    if cfg.solution_rank is not None:
        return cfg.solution_rank
    return max(max(b.ranks) * 2, 20)


def make_solver_frame(b: TTVector, cfg: SolverConfig, seed) -> StreamFrame:
    """One frame for the whole run: recovery ranks cover b and twice the
    expected solution rank."""
    sol = default_solution_rank(b, cfg)
    ranks = [max(r, 2 * sol) for r in b.ranks[1:-1]]
    return StreamFrame.create(b.dims, ranks, oversampling=cfg.oversampling, seed=seed)


def _is_zero(v: TTVector | None) -> bool:
    return v is None or all(np.all(c == 0) for c in v.cores)


def _check_inputs(b, x0):
    check_finite(b)
    if x0 is not None:
        check_finite(x0)


def _initial_residual(a, b, x0):
    if _is_zero(x0):
        return b.copy()
    return tt_add(b, tt_scale(tt_matvec(a, x0), -1.0))


# ---------------------------------------------------------------------------
# TT-GMRES (full orthogonalization, relaxed truncation)


def tt_gmres(a: TTOperator, b: TTVector, x0: TTVector | None, cfg: SolverConfig):
    """Classic GMRES in TT arithmetic.

    Matvec results and Gram-Schmidt updates are rounded at eta_k * tol
    with the relaxation eta_k = tol / rel_res_{k-1} (clamped to
    [1e-14, 1]); y_k comes from the Givens-updated QR of the Hessenberg
    matrix; the solution is accumulated by sequential rounded additions.
    """
    _check_inputs(b, x0)
    t_start = time.perf_counter()
    report = SolveReport(seed=cfg.seed)
    nb = tt_norm(b)
    r0 = _initial_residual(a, b, x0)
    beta = tt_norm(r0)
    if beta == 0 or nb == 0:
        report.converged = True
        return (x0.copy() if x0 is not None else b.copy()), report
    basis = [tt_scale(r0, 1.0 / beta)]
    maxit = cfg.maxit
    h = np.zeros((maxit + 1, maxit))
    cos = np.zeros(maxit)
    sin = np.zeros(maxit)
    g = np.zeros(maxit + 1)
    g[0] = beta
    rel_res = beta / nb
    timer = _PhaseTimer(report)
    k_done = 0
    converged = False

    def assemble(k):
        t0 = time.perf_counter()
        # back substitution on the rotated Hessenberg system
        hh = h[:k, :k].copy()
        gg = g[:k].copy()
        y = np.zeros(k)
        for i in range(k - 1, -1, -1):
            y[i] = (gg[i] - hh[i, i + 1 :] @ y[i + 1 :]) / hh[i, i]
        x = x0.copy() if not _is_zero(x0) else None
        for i in range(k):
            term = tt_scale(basis[i], float(y[i]))
            x = term if x is None else tt_round(tt_add(x, term), RoundSpec(cfg.tol))
        timer.current["recovery"] += time.perf_counter() - t0
        return x

    for k in range(1, maxit + 1):
        kk = k - 1
        eta_k = min(max(cfg.tol / rel_res, _BREAKDOWN_FACTOR), 1.0)
        delta = eta_k * cfg.tol
        t0 = time.perf_counter()
        w = tt_matvec(a, basis[-1])
        timer.add("matvec", t0)
        # the norm is not rounding work; _SketchedRun leaves it untimed too
        norm_av = tt_norm(w)
        t0 = time.perf_counter()
        w = tt_round(w, RoundSpec(delta, cfg.max_rank))
        timer.add("round", t0)
        t0 = time.perf_counter()
        for i in range(k):
            hik = tt_dot(w, basis[i])
            h[i, kk] = hik
            w = tt_round(tt_add(w, tt_scale(basis[i], -hik)), RoundSpec(delta, cfg.max_rank))
        timer.add("orth", t0)
        hnew = tt_norm(w)
        h[k, kk] = hnew
        lucky = hnew <= _BREAKDOWN_FACTOR * norm_av
        if not lucky:
            basis.append(tt_scale(w, 1.0 / hnew))
        t0 = time.perf_counter()
        # Givens update of column kk
        for i in range(kk):
            tmp = cos[i] * h[i, kk] + sin[i] * h[i + 1, kk]
            h[i + 1, kk] = -sin[i] * h[i, kk] + cos[i] * h[i + 1, kk]
            h[i, kk] = tmp
        denom = np.hypot(h[kk, kk], h[k, kk])
        cos[kk] = h[kk, kk] / denom if denom else 1.0
        sin[kk] = h[k, kk] / denom if denom else 0.0
        h[kk, kk] = denom
        h[k, kk] = 0.0
        g[k] = -sin[kk] * g[kk]
        g[kk] = cos[kk] * g[kk]
        res_est = abs(g[k])
        timer.add("lsq", t0)
        rel_res = max(res_est / nb, 1e-300)
        report.res_sketched.append(rel_res)
        report.basis_rank.append(max(basis[-1].ranks))
        report.max_resident_basis = max(report.max_resident_basis, len(basis))
        k_done = k
        if cfg.track_true_residual:
            x_k = assemble(k)
            if report.res_true is None:
                report.res_true = []
            report.res_true.append(true_residual(a, b, x_k))
        timer.flush()
        hit = res_est <= nb * cfg.tol or lucky
        if hit:
            converged = True
        if (hit and not cfg.force_iterations) or lucky:
            break

    x = assemble(k_done)
    timer.flush()
    report.converged = converged
    report.iterations = k_done
    report.wall_time = time.perf_counter() - t_start
    _trim_timer_tail(report, k_done)
    return x, report


def _trim_timer_tail(report, k_done):
    # the assemble() after the loop appended one extra timing row; fold it
    # into the last iteration's row
    for p in PHASES:
        lst = report.times[p]
        while len(lst) > k_done and len(lst) > 1:
            extra = lst.pop()
            lst[-1] += extra


# ---------------------------------------------------------------------------
# sketched solvers


class _SketchedRun:
    """Shared machinery of the sketched GMRES variants."""

    def __init__(self, a, b, x0, cfg, sketch, frame=None, precond=None,
                 keep_full_basis=False):
        if sketch.dims != b.dims:
            raise ShapeMismatch("sketch dims do not match the right-hand side")
        if a.col_dims != b.dims or a.row_dims != b.dims:
            raise ShapeMismatch("operator dims do not match the right-hand side")
        _check_inputs(b, x0)
        self.a, self.b, self.cfg = a, b, cfg
        self.sketch = sketch
        self.frame = frame
        self.precond = precond
        self.keep_full_basis = keep_full_basis
        self.x0 = None if _is_zero(x0) else x0
        self.report = SolveReport(seed=cfg.seed)
        self.timer = _PhaseTimer(self.report)
        self.window = []  # (global index, TTVector)
        self.basis = []  # vanilla only: all basis vectors
        self.w_cols = []
        self.pairs = []  # one SketchPair per basis vector, when framed
        self.h = np.zeros((cfg.maxit + 1, cfg.maxit))

    def expand(self, v):
        t0 = time.perf_counter()
        u = self.precond.apply_inverse(v) if self.precond is not None else v
        w = tt_matvec(self.a, u)
        self.timer.add("matvec", t0)
        return w

    def sketch_vec(self, v):
        t0 = time.perf_counter()
        out = kr_apply(self.sketch, v)
        self.timer.add("sketch", t0)
        return out

    def pair_of(self, v):
        t0 = time.perf_counter()
        p = stream_sketch(v, self.frame)
        self.timer.add("sketch", t0)
        return p

    def run(self):
        cfg = self.cfg
        t_start = time.perf_counter()
        nb_sketch = float(np.linalg.norm(self.sketch_vec(self.b)))
        r0 = _initial_residual(self.a, self.b, self.x0)
        beta = tt_norm(r0)
        if beta == 0 or nb_sketch == 0:
            self.report.converged = True
            return (self.x0.copy() if self.x0 is not None else self.b.copy()), self.report
        v1 = tt_scale(r0, 1.0 / beta)
        sr0 = self.sketch_vec(r0)
        if self.frame is not None:
            self.pairs.append(self.pair_of(v1))
            self.x0_pair = self.pair_of(self.x0) if self.x0 is not None else None
        self.window = [(0, v1)]
        if self.keep_full_basis:
            self.basis = [v1]
        spec_basis = RoundSpec(cfg.eta * cfg.tol, cfg.max_rank)
        y = np.zeros(1)
        k_done = 0
        converged = False
        for k in range(1, cfg.maxit + 1):
            kk = k - 1
            vt = self.expand(self.window[-1][1])
            norm_av = tt_norm(vt)
            self.w_cols.append(self.sketch_vec(vt))
            t0 = time.perf_counter()
            if cfg.combine_mode == "explicit" or self.frame is None:
                for gi, vi in self.window:
                    hik = tt_dot(vt, vi)
                    self.h[gi, kk] = hik
                    vt = tt_add(vt, tt_scale(vi, -hik))
                self.timer.add("orth", t0)
                t0 = time.perf_counter()
                vt = tt_round(vt, spec_basis)
                self.timer.add("round", t0)
            else:
                hs = [(gi, tt_dot(vt, vi)) for gi, vi in self.window]
                for gi, hik in hs:
                    self.h[gi, kk] = hik
                self.timer.add("orth", t0)
                pv = self.pair_of(vt)
                t0 = time.perf_counter()
                comb = combine_pairs(
                    [pv] + [self.pairs[gi] for gi, _ in hs],
                    [1.0] + [-hik for _, hik in hs],
                )
                vt = stream_recover(comb, spec_basis)
                self.timer.add("round", t0)
            hnew = tt_norm(vt)
            self.h[k, kk] = hnew
            lucky = hnew <= _BREAKDOWN_FACTOR * norm_av
            if not lucky:
                vnew = tt_scale(vt, 1.0 / hnew)
                if self.frame is not None:
                    self.pairs.append(self.pair_of(vnew))
                self.report.max_resident_basis = max(
                    self.report.max_resident_basis, len(self.window) + 1
                )
                self.window.append((k, vnew))
                if len(self.window) > cfg.ell:
                    self.window.pop(0)
                if self.keep_full_basis:
                    self.basis.append(vnew)
            t0 = time.perf_counter()
            w = np.stack(self.w_cols, axis=1)
            y, res, sv = _lsq_svd(w, sr0)
            # a column the least squares cannot resolve from the earlier ones
            # means the truncated recurrence has stopped adding directions;
            # past it the fit only absorbs rounding noise
            stalled = k > 1 and (
                _lsq_svd(w[:, :-1], w[:, -1])[1] <= _LSQ_RCOND * np.linalg.norm(w[:, -1])
            )
            self.timer.add("lsq", t0)
            if sv.size and sv[-1] < _CONDITION_WATERMARK * sv[0]:
                msg = f"iteration {k}: sketched basis nearly rank-deficient"
                if not self.report.warnings or self.report.warnings[-1][:9] != msg[:9]:
                    self.report.warnings.append(msg)
            rel = res / nb_sketch
            self.report.res_sketched.append(rel)
            self.report.basis_rank.append(
                max((max(v.ranks) for _, v in self.window), default=1)
            )
            k_done = k
            if cfg.track_true_residual:
                x_k = self.assemble(y)
                if self.report.res_true is None:
                    self.report.res_true = []
                self.report.res_true.append(true_residual(self.a, self.b, x_k))
            self.timer.flush()
            hit = res <= nb_sketch * cfg.tol
            if hit:
                converged = True
            if ((hit or stalled) and not cfg.force_iterations) or lucky:
                if lucky:
                    converged = True
                elif not hit:
                    self.report.warnings.append(f"iteration {k}: sketched basis stopped growing")
                break
        x = self.assemble(y)
        self.timer.flush()
        self.report.converged = converged
        self.report.iterations = k_done
        self.report.wall_time = time.perf_counter() - t_start
        _trim_timer_tail(self.report, k_done)
        return x, self.report

    def assemble(self, y):
        raise NotImplementedError


class _VanillaRun(_SketchedRun):
    """Final solution by sequential rounded additions over the full basis."""

    def assemble(self, y):
        t0 = time.perf_counter()
        x = self.x0.copy() if self.x0 is not None else None
        for i in range(len(y)):
            term = tt_scale(self.basis[i], float(y[i]))
            x = term if x is None else tt_round(tt_add(x, term), RoundSpec(self.cfg.tol))
        self.timer.current["recovery"] += time.perf_counter() - t0
        return x


class _StreamedRun(_SketchedRun):
    """Final solution recovered from the accumulated sketch pairs."""

    def assemble(self, y):
        t0 = time.perf_counter()
        pairs = [self.pairs[i] for i in range(len(y))]
        coeffs = [float(c) for c in y]
        if self.x0 is not None:
            pairs.append(self.x0_pair)
            coeffs.append(1.0)
        spec = RoundSpec(self.cfg.tol, default_solution_rank(self.b, self.cfg))
        u = stream_recover(combine_pairs(pairs, coeffs), spec)
        if self.precond is not None:
            u = self.precond.apply_inverse(u)
        self.timer.current["recovery"] += time.perf_counter() - t0
        return u


def tt_sgmres_vanilla(a, b, x0, cfg: SolverConfig, sketch: KhatriRaoSketch):
    """Sketched GMRES keeping the whole basis; fragile final summation."""
    run = _VanillaRun(a, b, x0, cfg, sketch, keep_full_basis=True)
    return run.run()


def tt_sgmres(a, b, x0, cfg: SolverConfig, sketch: KhatriRaoSketch,
              frame: StreamFrame | None = None):
    """Sketch-only-memory TT-sGMRES (window of ell basis vectors)."""
    if frame is None:
        frame = make_solver_frame(b, cfg, seed=cfg.seed + 1)
    run = _StreamedRun(a, b, x0, cfg, sketch, frame=frame)
    return run.run()


def tt_spgmres(a, precond: ExpSumPreconditioner, b, x0, cfg: SolverConfig,
               sketch: KhatriRaoSketch, frame: StreamFrame | None = None):
    """Right-preconditioned TT-sGMRES: the Krylov space is built for
    A P^{-1}; the returned solution is x = P^{-1} u."""
    if frame is None:
        frame = make_solver_frame(b, cfg, seed=cfg.seed + 1)
    run = _StreamedRun(a, b, x0, cfg, sketch, frame=frame, precond=precond)
    return run.run()
