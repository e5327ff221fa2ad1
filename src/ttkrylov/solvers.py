"""Krylov solvers for TT linear systems.

Four variants run one driver loop (``_krylov``) and share one report format:

* ``tt_gmres``          -- full orthogonalization, relaxed rounding,
                           least squares on the Hessenberg matrix.
* ``tt_sgmres_vanilla`` -- incomplete orthogonalization + sketched least
                           squares; final solution by sequential rounded
                           additions over the stored basis (kept for the
                           accuracy comparison: this path is fragile).
* ``tt_sgmres``         -- incomplete orthogonalization, sketch-only basis
                           memory: only the last ell basis vectors stay
                           resident, the solution is recovered from
                           accumulated streaming sketches.  Each z_i costs
                           sum_mu min(l n r, l t + t n t' + t' r) entries
                           for its ranks t against the frame's left ranks
                           l and recovery ranks r, plus its Omegas.
* ``tt_spgmres``        -- flexibly right-preconditioned ``tt_sgmres``.

Each iteration expands the newest basis vector v_k: the preconditioned
variant applies z_k = P^{-1} v_k (otherwise z_k = v_k), the assembly keeps
z_k, and A z_k passes through three parts:

* orthogonalize and round.  ``tt_gmres`` orthogonalizes against the whole
  basis by classical Gram-Schmidt: it rounds A z at the relaxed tolerance
  eta_k * tol, truncating each bond by column-pivoted QR (``tt_round(...,
  pivoted=True)``, the SVD's error bound at well under half its cost),
  takes every h_i = <w, v_i> from that w, and forms w - sum_i h_i v_i by
  one streamed rounding at the same tolerance (``GrowingFrame``, seeded by
  ``cfg.seed``): each term is sketched in turn, the pairs are added into
  one and recovered once, and no pair is kept between iterations.  The
  frame grows when a sum has no room in it, so only ``max_rank`` caps a
  basis vector.  The sketched variants run modified Gram-Schmidt against
  the last ell vectors and round once, at eta * tol, after the last step.
  Each step subtracts its vector with ``tt_add``, which adds the vector's
  ranks to w's, except the last step of a sketched window without a
  preconditioner: there the newest window vector is z itself, and h z is
  subtracted inside A z.  That takes a block E with A + sigma I = (A's
  cores 0..d-2, last core + sigma E), found once per solve by
  ``tt_op_shift_core``; it exists when the identity on modes 0..d-2 is a
  combination of what A's op-rank channels carry into the last core, as
  for a Kronecker sum (its passthrough channel) and the op-rounded Markov
  operator.  The rows of w's last core that hold A z's then become the
  last core of (A - h I) z, and the rounding's input keeps A z's ranks
  rho r instead of (rho + 1) r; A z, its sketch and every h are those
  ``tt_add`` gives.  Without E the last step takes ``tt_add`` too.
* least squares: one problem, min_y ||M y - rhs||, solved by SVD
  (``sketched_lsq``) in ``_LeastSquares``.  ``tt_gmres`` fits the Hessenberg
  matrix H to beta e_1, the coordinates of A V in the orthonormal basis; the
  sketched variants fit the sketched images S A Z to S r0 (Nakatsukasa and
  Tropp, arXiv:2111.00113).
* assembly: one of the rounding layer's rounded linear combinations of TT
  vectors, started at x0 (the preconditioner's apply uses the third,
  ``streamed_mode_sum``).  Every solution and every
  tracked true residual's x is its ``combine(y)`` = x0 + sum_i y_i z_i, the
  vectors whose images the least squares fitted (flexible GMRES, Saad
  1993): no P^{-1} follows it.  ``RoundedSum`` (``tt``) keeps the z_i and
  adds them by sequential rounded additions; ``StreamedSum``
  (``streaming``) keeps only their sketch pairs, each Psi dense or as its
  three factors, whichever is smaller, and recovers the sum once.  The
  report's ``kept_mb`` is the size of what the assembly keeps.

Whatever the branch, the orthogonalized vector w ends as a ``tt_round``
output (``stream_recover`` rounds too), whose cores 0..d-2 are
left-orthonormal, so h_new = ||w|| is the Frobenius norm of its last core,
not a second sweep of ``tt_norm``.  A lucky breakdown ends the run as
converged: the orthogonalized vector vanishes next to ||A v||, which is
taken from the Hessenberg column as sqrt(sum_i h_ik^2 + h_new^2) (the
window vectors are orthonormal).  Every variant also stops, unconverged,
at a numerical breakdown: when the newest column of M lies in the span of
the earlier ones to within the least-squares cutoff, the Krylov space has
stopped growing.  On Hessenberg columns that means the orthogonalized
vector kept about 1e-12 of ||A v|| or less, so a new basis vector would be
rounding noise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .precond import ExpSumPreconditioner
from .sketch import KhatriRaoSketch, kr_apply
from .streaming import GrowingFrame, StreamedSum, StreamFrame
from .tt import (
    RoundedSum,
    RoundSpec,
    ShapeMismatch,
    TTOperator,
    TTVector,
    _matvec_core,
    _norm,
    check_count,
    check_finite,
    tt_add,
    tt_dot,
    tt_matvec,
    tt_norm,
    tt_op_shift_core,
    tt_round,
    tt_scale,
    tt_zero,
)

PHASES = ("matvec", "sketch", "orth", "round", "lsq", "recovery")

_LSQ_RCOND = 1e-12
_BREAKDOWN_FACTOR = 1e-14
_CONDITION_WATERMARK = 1e-10
_RANK_DEFICIENT = "sketched basis nearly rank-deficient"
# the solver frame's left ranks exceed its recovery ranks by this much
FRAME_OVERSAMPLING = 20


@dataclass
class SolverConfig:
    """Shared knobs of the solver suite (see module docstring)."""

    maxit: int = 200
    tol: float = 1e-6
    ell: int = 1
    eta: float = 0.3
    max_rank: int | None = None
    sketch_rows: int | None = None  # default: 2 * maxit
    # rank cap of the streamed solution and, with b's ranks, the frame's
    # recovery rank; give it a few ranks of headroom above the solution's
    # own (default: max(2 * largest rank of b, 20))
    solution_rank: int | None = None
    # seeds tt_gmres's Gram-Schmidt frames (GrowingFrame) and, at seed + 1,
    # the solution frame of a sketched variant given none; ttk also draws
    # the sketch from it
    seed: int = 0
    track_true_residual: bool = False
    force_iterations: bool = False  # run all maxit iterations (figure runs)

    def __post_init__(self):
        if not (0 < self.tol < 1):
            raise ValueError("tol must lie in (0, 1)")
        if not (0 < self.eta <= 1):
            raise ValueError("eta must lie in (0, 1]")
        check_count(self.seed, "seed", 0)
        for key in ("ell", "maxit", "max_rank", "solution_rank", "sketch_rows"):
            if getattr(self, key) is not None:
                check_count(getattr(self, key), key)
        if self.sketch_rows is None:
            self.sketch_rows = 2 * self.maxit
        if self.sketch_rows <= self.maxit:
            raise ValueError("sketch_rows must exceed maxit")


@dataclass
class SolveReport:
    """Per-iteration history plus run-level outcomes of one solve.

    ``basis_rank[k]`` is the largest TT rank of the newest basis vector
    after iteration k+1 (the previous one after a lucky breakdown).  The
    histories and ``times[p]`` have one entry per iteration.  A tracked
    solve returns its last tracked iterate; otherwise the final assembly's
    time is added to the last ``times["recovery"]`` entry.  ``kept_mb`` is
    the size in MiB of what the assembly keeps of the z_i at the end (the
    terms, or their sketch pairs).
    """

    converged: bool = False
    iterations: int = 0
    res_sketched: list = field(default_factory=list)  # relative
    res_true: list | None = None  # relative, when tracked
    basis_rank: list = field(default_factory=list)
    times: dict = field(default_factory=lambda: {p: [] for p in PHASES})
    warnings: list = field(default_factory=list)
    max_resident_basis: int = 0
    kept_mb: float = 0.0
    wall_time: float = 0.0

    @property
    def peak_rank(self) -> int:
        return max(self.basis_rank, default=0)

    def phase_totals(self) -> dict:
        return {p: float(sum(v)) for p, v in self.times.items()}


class _PhaseTimer:
    """Adds phase times into the last row of ``report.times``; ``open_row``
    starts the next row, one per iteration."""

    def __init__(self, report):
        self.times = report.times
        self.open_row()

    def open_row(self):
        for row in self.times.values():
            row.append(0.0)

    def add(self, phase, t0):
        self.times[phase][-1] += time.perf_counter() - t0

    def timed(self, phase, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.add(phase, t0)
        return out


def sketched_lsq(w: np.ndarray, rhs: np.ndarray):
    """Least-squares coefficients through the SVD pseudo-inverse.

    Returns (y, residual_norm, singular_values) for min_y ||w y - rhs||;
    the relative singular-value cutoff is 1e-12.
    """
    if w.ndim != 2 or w.shape[0] < w.shape[1]:
        raise ValueError("need a tall (s >= k) matrix")
    y, _, _, sv = np.linalg.lstsq(w, rhs, rcond=_LSQ_RCOND)
    return y, _norm(w @ y - rhs), sv


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
    """One frame for the whole run, with recovery ranks max(b rank,
    solution rank) and left ranks FRAME_OVERSAMPLING = 20 above them.

    The streamed solution is rounded to the solution rank anyway, and STTA
    recovers a tensor of rank <= r exactly from a rank-r right map and an
    oversampled left map (Kressner, Vandereycken and Voorhaar,
    arXiv:2208.02600).  A sum that is only close to low rank, as the
    rounded basis makes it, is recovered less well once its rank nears r,
    so an explicit solution rank wants some headroom; a larger frame
    costs time in every sketch and memory in every kept pair: per mode
    min(l n r, l t + t n t' + t' r) entries for a term of ranks t, left
    ranks l and recovery ranks r.  ``StreamFrame.create`` clips each rank
    to what the mode attains.
    """
    sol = default_solution_rank(b, cfg)
    ranks = [max(r, sol) for r in b.ranks[1:-1]]
    return StreamFrame.create(b.dims, ranks, oversampling=FRAME_OVERSAMPLING, seed=seed)


def _is_zero(v: TTVector | None) -> bool:
    return v is None or all(np.all(c == 0) for c in v.cores)


def _subtract_shifted(w: TTVector, shift: np.ndarray, z: TTVector, h: float) -> TTVector:
    """w - h z, for a w whose last core starts with the rows of A z's last
    core, given A's ``tt_op_shift_core`` ``shift``.

    The matvec core is linear in the op core, so subtracting h times the
    shift's matvec core, which has as many rows, from those rows makes
    them the last core of (A - h I) z.  ``tt_add`` puts its first term's
    rows first (for d = 1 it adds the cores), so A z minus older window
    vectors qualifies.  w's other cores are shared, and its ranks do not
    grow.
    """
    delta = _matvec_core(shift, z.cores[-1])
    last = w.cores[-1].copy()
    last[: len(delta)] -= h * delta
    return TTVector([*w.cores[:-1], last])


# ---------------------------------------------------------------------------
# least squares


class _LeastSquares:
    """min_y ||M y - rhs|| over the columns of M fed so far, by ``sketched_lsq``.

    ``tt_gmres`` feeds the Hessenberg columns (rhs beta e_1, residuals
    relative to ||b||); the sketched variants feed the sketches S A z_k (rhs
    S r0, residuals relative to ||S b||).  A Hessenberg column is one entry
    longer than the last, so only the rows the columns have reached enter
    the fit.
    """

    def __init__(self, rhs, scale, maxit, warnings):
        self.m = np.zeros((len(rhs), maxit))
        self.rhs, self.scale, self.warnings = rhs, scale, warnings
        self.k = 0

    def update(self, col):
        """Append a column and solve; return (residual, stalled)."""
        self.m[: len(col), self.k] = col
        self.k += 1
        m = self.m[: len(col), : self.k]
        self.y, res, sv = sketched_lsq(m, self.rhs[: len(col)])
        # a column the least squares cannot resolve from the earlier ones
        # means the recurrence has stopped adding directions; past it the
        # fit only absorbs rounding noise
        stalled = self.k > 1 and (
            sketched_lsq(m[:, :-1], m[:, -1])[1] <= _LSQ_RCOND * _norm(m[:, -1])
        )
        if sv[-1] < _CONDITION_WATERMARK * sv[0] and not any(
            w.endswith(_RANK_DEFICIENT) for w in self.warnings
        ):
            self.warnings.append(f"iteration {self.k}: {_RANK_DEFICIENT}")
        return res, stalled


# ---------------------------------------------------------------------------
# the driver


def _krylov(a, b, x0, cfg: SolverConfig, sketch=None, frame=None, precond=None):
    """The Krylov loop of all four variants (see the module docstring).

    Without a sketch it is ``tt_gmres``; with a frame the solution is
    streamed, otherwise summed from the kept z_i.
    """
    if a.col_dims != b.dims or a.row_dims != b.dims:
        raise ShapeMismatch("operator dims do not match the right-hand side")
    if sketch is not None and sketch.dims != b.dims:
        raise ShapeMismatch("sketch dims do not match the right-hand side")
    check_finite(b.cores)
    if x0 is not None:
        check_finite(x0.cores)
    check_finite(a.op_cores, "operator core")
    if sketch is not None:
        check_finite(sketch.factors, "sketch factor")
    t_start = time.perf_counter()
    report = SolveReport()
    x0 = None if _is_zero(x0) else x0
    nb = tt_norm(b)
    r0 = b if x0 is None else tt_add(b, tt_scale(tt_matvec(a, x0), -1.0))
    beta = tt_norm(r0)
    if nb == 0 or beta == 0:
        # b = 0 is solved by x = 0 whatever x0 is; b - A x0 = 0 by x0
        report.converged = True
        return (tt_zero(b.dims) if nb == 0 else x0.copy()), report
    timer = _PhaseTimer(report)
    relaxed = sketch is None
    if relaxed:
        rhs, scale = np.zeros(cfg.maxit + 1), nb
        rhs[0] = beta
    else:
        rhs = timer.timed("sketch", kr_apply, sketch, r0)
        scale = _norm(rhs if x0 is None else timer.timed("sketch", kr_apply, sketch, b))
    lsq = _LeastSquares(rhs, scale, cfg.maxit, report.warnings)
    if frame is None:
        assembly = RoundedSum(RoundSpec(cfg.tol), start=x0)
        keep = assembly.add
    else:
        sol_spec = RoundSpec(cfg.tol, default_solution_rank(b, cfg))
        assembly = StreamedSum(frame, sol_spec, start=x0)
        keep = partial(timer.timed, "sketch", assembly.add)
    window_size = cfg.maxit + 1 if relaxed else cfg.ell
    window = [(0, tt_scale(r0, 1.0 / beta))]  # (basis index, basis vector)
    if cfg.track_true_residual:
        report.res_true = []
    spec = RoundSpec(cfg.eta * cfg.tol, cfg.max_rank)
    rel_res = beta / nb
    converged = False
    pinv = (lambda v: v) if precond is None else precond.apply_inverse
    # with z = v and a once-rounded window, the newest window vector is z
    # itself and folds into A z (see the module docstring)
    shift = None if relaxed or precond is not None else tt_op_shift_core(a)
    growing = GrowingFrame(b.dims, cfg.seed) if relaxed else None

    for k in range(1, cfg.maxit + 1):
        if k > 1:
            timer.open_row()
        # expand: z = P^{-1} v enters the solution, A z the Krylov space
        z = timer.timed("matvec", pinv, window[-1][1])
        keep(z)
        w = timer.timed("matvec", tt_matvec, a, z)
        if not relaxed:  # the sketched least squares fits S A z, not col
            sw = timer.timed("sketch", kr_apply, sketch, w)
        # orthogonalize and round; w is rebound at every step so that no
        # earlier, larger version of it stays alive
        if relaxed:  # eta_k = tol / rel_res_{k-1}, clamped to [1e-14, 1]
            eta_k = min(max(cfg.tol / rel_res, _BREAKDOWN_FACTOR), 1.0)
            spec = RoundSpec(eta_k * cfg.tol, cfg.max_rank)
            w = timer.timed("round", tt_round, w, spec, pivoted=True)
        t0 = time.perf_counter()
        col = np.zeros(k + 1)
        if relaxed:  # classical Gram-Schmidt, one streamed rounding
            basis = [v for _, v in window]
            col[:k] = [tt_dot(w, v) for v in basis]
            w = growing.round_sum([w, *basis], [1.0, *-col[:k]], spec)
        else:  # modified Gram-Schmidt
            for i, v in window:
                col[i] = tt_dot(w, v)
                if v is z and shift is not None:
                    w = _subtract_shifted(w, shift, z, col[i])
                else:
                    w = tt_add(w, tt_scale(v, -col[i]))
        timer.add("orth", t0)
        if not relaxed:
            w = timer.timed("round", tt_round, w, spec)
        # w is a tt_round output: cores 0..d-2 are left-orthonormal, so
        # the norm is that of the last core
        hnew = col[k] = _norm(w.cores[-1])
        lucky = hnew <= _BREAKDOWN_FACTOR * _norm(col)
        if not lucky:
            window.append((k, tt_scale(w, 1.0 / hnew)))
        del w  # its cores may be views into larger arrays: free them before the next A z
        report.max_resident_basis = max(report.max_resident_basis, len(window))
        if len(window) > window_size:
            window.pop(0)

        res, stalled = timer.timed("lsq", lsq.update, col if relaxed else sw)
        rel_res = max(res / lsq.scale, 1e-300)
        report.res_sketched.append(rel_res)
        report.basis_rank.append(max(window[-1][1].ranks))
        if cfg.track_true_residual:
            x = timer.timed("recovery", assembly.combine, lsq.y)
            report.res_true.append(true_residual(a, b, x))
        hit = res <= lsq.scale * cfg.tol
        converged = converged or hit or lucky
        if lucky or ((hit or stalled) and not cfg.force_iterations):
            if not (hit or lucky):
                report.warnings.append(f"iteration {k}: sketched basis stopped growing")
            break

    if not cfg.track_true_residual:  # else x is the last tracked iterate
        x = timer.timed("recovery", assembly.combine, lsq.y)
    report.converged = converged
    report.iterations = k
    report.kept_mb = assembly.nbytes / 2**20
    report.wall_time = time.perf_counter() - t_start
    return x, report


# ---------------------------------------------------------------------------
# the four variants


def tt_gmres(a: TTOperator, b: TTVector, x0: TTVector | None, cfg: SolverConfig):
    """Classic GMRES in TT arithmetic, with classical Gram-Schmidt.

    A z is rounded at eta_k * tol with the relaxation eta_k = tol /
    rel_res_{k-1} (clamped to [1e-14, 1]), by pivoted-QR truncation (Gu and
    Eisenstat, SISC 17, 1996, for the rank-revealing QR); every Hessenberg
    coefficient is taken from that rounded w, and w - sum_i h_i v_i is
    formed by one streamed rounding at the same tolerance, against a frame
    drawn from ``cfg.seed`` that grows when the sum has no room in it
    (Kressner, Vandereycken and Voorhaar, arXiv:2208.02600; Al Daas et al.,
    SISC 2023, arXiv:2110.04393, for randomized rounding in TT-GMRES).
    Dolgov (Russ. J. Numer. Anal. Math. Modelling 28, 2013) rounds every
    modified Gram-Schmidt step instead.  y_k is the SVD least-squares fit
    of the Hessenberg matrix to beta e_1; the solution is accumulated by
    sequential rounded additions, which keep the SVD truncation.
    """
    return _krylov(a, b, x0, cfg)


def tt_sgmres_vanilla(a, b, x0, cfg: SolverConfig, sketch: KhatriRaoSketch):
    """Sketched GMRES keeping the whole basis; fragile final summation."""
    return _krylov(a, b, x0, cfg, sketch)


def tt_sgmres(a, b, x0, cfg: SolverConfig, sketch: KhatriRaoSketch,
              frame: StreamFrame | None = None):
    """Sketch-only-memory TT-sGMRES (window of ell basis vectors)."""
    if frame is None:
        frame = make_solver_frame(b, cfg, seed=cfg.seed + 1)
    return _krylov(a, b, x0, cfg, sketch, frame)


def tt_spgmres(a, precond: ExpSumPreconditioner, b, x0, cfg: SolverConfig,
               sketch: KhatriRaoSketch, frame: StreamFrame | None = None):
    """Flexibly right-preconditioned TT-sGMRES: the Krylov space is built
    for A P^{-1}; the returned solution is x = x0 + sum_i y_i z_i over the
    z_i = P^{-1} v_i that the iterations computed, so the rounded P^{-1} is
    never applied to a vector the least squares did not see."""
    if frame is None:
        frame = make_solver_frame(b, cfg, seed=cfg.seed + 1)
    return _krylov(a, b, x0, cfg, sketch, frame, precond)
